(* Regenerates every table and figure of the paper plus the ablations,
   then runs Bechamel micro-benchmarks of the core operations.

   Environment:
     DHTLB_SCALE=full   paper scale (100 trials); default is quick scale
     DHTLB_TRIALS=n     explicit trial count
     DHTLB_ONLY=a,b     run only the named sections (see [sections]) *)

let wanted =
  match Sys.getenv_opt "DHTLB_ONLY" with
  | None | Some "" -> None
  | Some s -> Some (String.split_on_char ',' (String.lowercase_ascii s))

(* Wall time of every section that ran, and the hot-path throughput
   metrics, accumulate here and are dumped to BENCH_hotpath.json so
   successive PRs have a machine-readable perf trajectory. *)
let section_times : (string * float) list ref = ref []
let hotpath_metrics : (string * Json_out.t) list ref = ref []
let metric name v = hotpath_metrics := (name, v) :: !hotpath_metrics

let section name f =
  let run =
    match wanted with
    | None -> true
    | Some names -> List.mem (String.lowercase_ascii name) names
  in
  if run then begin
    Printf.printf "==== %s ====\n%!" name;
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    section_times := (name, dt) :: !section_times;
    Printf.printf "---- (%s: %.1fs)\n\n%!" name dt
  end

let trials = Scale.trials ()
let seed = Scale.seed ()

let paper_table1 () =
  print_string
    "Paper reference (Table I): medians 69.4/346.6/692.3 (1000n), \
     13.8/69.3/138.4 (5000n), 7.0/34.6/69.2 (10000n)\n";
  let trials = min trials 5 in
  print_string (Initial_distribution.print_table1 (Initial_distribution.table1 ~trials ~seed ()))

let paper_table2 () =
  print_string
    "Paper reference (Table II) row 'churn 0':    7.476 7.467 5.043 5.022 5.016\n\
     Paper reference (Table II) row 'churn 0.01': 3.721 2.104 3.076 1.873 1.309\n";
  print_string Sweep.(churn.table (run ~trials ~seed churn))

let figures_1_3 () =
  print_string (Initial_distribution.figure1 ~seed ());
  print_newline ();
  print_string (Initial_distribution.figure2 ~seed ());
  print_newline ();
  print_string (Initial_distribution.figure3 ~seed ())

let paired_figures () =
  List.iter
    (fun spec ->
      print_string (Paired_figures.run_spec spec);
      print_newline ())
    (Paired_figures.specs ~seed ())

let summaries () =
  print_string (Summaries.random_injection ~trials ~seed ());
  print_newline ();
  print_string (Summaries.neighbor_injection ~trials ~seed ());
  print_newline ();
  print_string (Summaries.invitation ~trials ~seed ())

let ablations () =
  print_string (Ablations.sybil_threshold ~trials ~seed ());
  print_newline ();
  print_string (Ablations.max_sybils ~trials ~seed ());
  print_newline ();
  print_string (Ablations.num_successors ~trials ~seed ());
  print_newline ();
  print_string (Ablations.churn_with_injection ~trials ~seed ());
  print_newline ();
  print_string (Ablations.messages ~seed ())

let extensions () =
  print_string (Ablations.invitation_median_split ~trials ~seed ());
  print_newline ();
  print_string (Ablations.neighbor_avoid_repeats ~trials ~seed ());
  print_newline ();
  print_string (Ablations.rejoin_identity ~trials ~seed ());
  print_newline ();
  print_string (Ablations.strength_aware ~trials ~seed ());
  print_newline ();
  print_string (Ablations.clustered_keys ~trials ~seed ());
  print_newline ();
  print_string (Ablations.stagger ~trials ~seed ());
  print_newline ();
  print_string (Ablations.static_vnodes ~trials ~seed ());
  print_newline ();
  print_string (Ablations.failure_churn ~trials ~seed ())

let maintenance () =
  print_string
    "Stabilization protocol under churn (paper VI-A footnote 2: maintenance      costs rise with churn)
";
  print_string (Maintenance.print_table (Maintenance.run ~seed ()))

let failures () =
  print_string
    "Key loss under simultaneous failure vs replication (paper IV-A/V backup      assumption)
";
  print_string
    (Failure_recovery.print_table
       (Failure_recovery.run ~seed ~trials:(min trials 5) ()))

let routing () =
  print_string
    "Lookup hop scaling (Chord guarantee; also the per-join charge)\n";
  print_string (Lookup_hops.print_table (Lookup_hops.run ~seed ()));
  print_newline ();
  print_string "Across overlays (Chord fingers / Symphony k=4 / Kademlia k=8):\n";
  print_string (Overlay_hops.print_table (Overlay_hops.run ~seed ()))

let timeline () =
  print_string
    "Work completed per tick, first 50 ticks (paper V-C detailed window)\n";
  print_string (Work_timeline.print_table (Work_timeline.run ~seed ()))

(* ------------------------------------------------------------------ *)
(* The simulation hot path: tick/consume throughput end to end, plus   *)
(* the Id_set bulk removal against the single-key loop it replaced.    *)

let hotpath () =
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let nodes = 1000 and tasks = 100_000 in
  let params = { (Params.default ~nodes ~tasks) with Params.seed } in
  let state, dt_create = timed (fun () -> State.create params) in
  (* Headline numbers are pinned metrics-off / in-memory trace so they
     stay comparable across commits regardless of the environment. *)
  let r, dt_run =
    timed (fun () ->
        Engine.run_state ~sink:Trace.Memory ~metrics:false state
          Engine.no_strategy)
  in
  let ticks = match r.Engine.outcome with Engine.Finished t | Engine.Aborted t | Engine.Timed_out t -> t in
  let ticks_per_s = float_of_int ticks /. dt_run in
  let keys_per_s = float_of_int tasks /. dt_run in
  Printf.printf
    "end-to-end %dn/%dt (no strategy): create %.3fs, run %.3fs (%d ticks, \
     %.0f ticks/s, %.0f keys consumed/s)\n"
    nodes tasks dt_create dt_run ticks ticks_per_s keys_per_s;
  metric "sim_nodes" (Json_out.Int nodes);
  metric "sim_tasks" (Json_out.Int tasks);
  metric "sim_create_s" (Json_out.Float dt_create);
  metric "sim_run_s" (Json_out.Float dt_run);
  metric "sim_ticks" (Json_out.Int ticks);
  metric "ticks_per_s" (Json_out.Float ticks_per_s);
  metric "keys_consumed_per_s" (Json_out.Float keys_per_s);
  (* Identical rerun with metrics on: attributes the run time to engine
     phases for the BENCH json.  The headline timing above is untouched
     (this also spot-checks that instrumentation leaves the simulation
     deterministic). *)
  let r2 =
    Engine.run_state ~sink:Trace.Memory ~metrics:true (State.create params)
      Engine.no_strategy
  in
  let ticks2 =
    match r2.Engine.outcome with Engine.Finished t | Engine.Aborted t | Engine.Timed_out t -> t
  in
  if ticks2 <> ticks then
    Printf.printf "WARNING: metrics-on rerun took %d ticks, expected %d\n"
      ticks2 ticks;
  let m = r2.Engine.metrics in
  Printf.printf
    "phase split (metrics-on rerun): decide %.3fs consume %.3fs churn %.3fs \
     trace %.3fs check %.3fs (wall %.3fs)\n"
    m.Metrics.decide_s m.Metrics.consume_s m.Metrics.churn_s m.Metrics.trace_s
    m.Metrics.check_s m.Metrics.wall_s;
  metric "phase_decide_s" (Json_out.Float m.Metrics.decide_s);
  metric "phase_consume_s" (Json_out.Float m.Metrics.consume_s);
  metric "phase_churn_s" (Json_out.Float m.Metrics.churn_s);
  metric "phase_trace_s" (Json_out.Float m.Metrics.trace_s);
  metric "phase_check_s" (Json_out.Float m.Metrics.check_s);
  metric "phase_wall_s" (Json_out.Float m.Metrics.wall_s);
  metric "gc_minor_words" (Json_out.Float m.Metrics.minor_words);
  metric "gc_major_words" (Json_out.Float m.Metrics.major_words);
  metric "gc_minor_collections" (Json_out.Int m.Metrics.minor_collections);
  metric "gc_major_collections" (Json_out.Int m.Metrics.major_collections);
  (* Same scale with live replication on and two mid-run crash bursts:
     what the survivable data plane costs end to end (replica upkeep on
     every churn event plus burst recovery).  The headline sim_run_s
     above stays recovery-off, so the CI gate keeps comparing like with
     like across commits; this leg gets its own metrics. *)
  let recovery_params =
    {
      params with
      Params.replicas = 2;
      faults =
        {
          Faults.none with
          Faults.crash_bursts =
            [ { Faults.at = 20; count = 50 }; { Faults.at = 60; count = 50 } ];
        };
    }
  in
  let recovery_state, dt_recovery_create =
    timed (fun () -> State.create recovery_params)
  in
  let r3, dt_recovery =
    timed (fun () ->
        Engine.run_state ~sink:Trace.Memory ~metrics:false recovery_state
          Engine.no_strategy)
  in
  let ticks3 =
    match r3.Engine.outcome with Engine.Finished t | Engine.Aborted t | Engine.Timed_out t -> t
  in
  let m3 = r3.Engine.messages in
  Printf.printf
    "recovery-on rerun (replicas=2, 2x50-machine bursts): create %.3fs, run \
     %.3fs (%d ticks, %d replications, %d tasks lost)\n"
    dt_recovery_create dt_recovery ticks3 m3.Messages.replications
    m3.Messages.tasks_lost;
  metric "sim_create_recovery_s" (Json_out.Float dt_recovery_create);
  metric "sim_run_recovery_s" (Json_out.Float dt_recovery);
  metric "sim_recovery_ticks" (Json_out.Int ticks3);
  metric "sim_recovery_replications" (Json_out.Int m3.Messages.replications);
  metric "sim_recovery_tasks_lost" (Json_out.Int m3.Messages.tasks_lost);
  (* Drain a 100k-key set: the legacy nth+remove loop vs the one-pass
     bulk removal, on identical draw streams. *)
  let n_keys = 100_000 in
  let keys =
    let rng = Prng.create seed in
    let a = Keygen.task_keys rng n_keys in
    Array.sort Id.compare a;
    a
  in
  let full = Id_set.of_sorted_array keys in
  let drain_single () =
    let rng = Prng.create (seed + 1) in
    let s = ref full in
    while Id_set.cardinal !s > 0 do
      let k = Id_set.nth !s (Prng.int_below rng (Id_set.cardinal !s)) in
      s := Id_set.remove k !s
    done
  in
  let drain_bulk batch () =
    let rng = Prng.create (seed + 1) in
    let rand b = Prng.int_below rng b in
    let s = ref full in
    while Id_set.cardinal !s > 0 do
      let _, rest = Id_set.take_random_n ~rand !s batch in
      s := rest
    done
  in
  let (), dt_single = timed drain_single in
  let (), dt_bulk1 = timed (drain_bulk 1) in
  let (), dt_bulk6 = timed (drain_bulk 6) in
  let rate dt = float_of_int n_keys /. dt in
  Printf.printf
    "drain 100k keys: nth+remove %.0f keys/s, bulk(1) %.0f keys/s, bulk(6) \
     %.0f keys/s (speedup %.2fx / %.2fx)\n"
    (rate dt_single) (rate dt_bulk1) (rate dt_bulk6)
    (dt_single /. dt_bulk1) (dt_single /. dt_bulk6)
    ;
  metric "drain_single_keys_per_s" (Json_out.Float (rate dt_single));
  metric "drain_bulk1_keys_per_s" (Json_out.Float (rate dt_bulk1));
  metric "drain_bulk6_keys_per_s" (Json_out.Float (rate dt_bulk6));
  metric "bulk1_speedup" (Json_out.Float (dt_single /. dt_bulk1));
  metric "bulk6_speedup" (Json_out.Float (dt_single /. dt_bulk6))

(* ------------------------------------------------------------------ *)
(* The scale leg: the simulation at DHT-population sizes, driven by a   *)
(* real balancing strategy.  The hotpath section above watches the      *)
(* 1000-node tick machinery; this one answers "does a 100k-node /       *)
(* 1M-task run finish in single-digit seconds, and does setup stay      *)
(* below the strategy run it feeds?".  Each leg sweeps three seeds and  *)
(* reports per-seed numbers plus medians, which is what ci.sh gates.    *)

let scale_json : Json_out.t option ref = ref None

let scale () =
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let strategy = Strategy.Random_injection in
  let seeds = [ seed; seed + 1; seed + 2 ] in
  let median l =
    let a = List.sort compare l in
    List.nth a (List.length a / 2)
  in
  let leg name ~nodes ~tasks ~churn =
    Printf.printf "%s leg: %dn / %dt, churn %.2f, strategy %s\n%!" name nodes
      tasks churn (Strategy.name strategy);
    let runs =
      List.map
        (fun sd ->
          let params =
            {
              (Params.default ~nodes ~tasks) with
              Params.seed = sd;
              churn_rate = churn;
            }
          in
          let state, dt_create = timed (fun () -> State.create params) in
          let r, dt_run =
            timed (fun () ->
                Engine.run_state ~sink:Trace.Memory ~metrics:false state
                  (Strategy.make strategy ()))
          in
          let ticks =
            match r.Engine.outcome with
            | Engine.Finished t | Engine.Aborted t | Engine.Timed_out t -> t
          in
          let keys_per_s = float_of_int tasks /. dt_run in
          Printf.printf
            "  seed %d: create %.2fs, run %.2fs (%d ticks, factor %.2f, %.0f \
             keys/s)\n%!"
            sd dt_create dt_run ticks r.Engine.factor keys_per_s;
          (sd, dt_create, dt_run, ticks, r.Engine.factor, keys_per_s))
        seeds
    in
    let med_create = median (List.map (fun (_, c, _, _, _, _) -> c) runs) in
    let med_run = median (List.map (fun (_, _, r, _, _, _) -> r) runs) in
    let med_keys = median (List.map (fun (_, _, _, _, _, k) -> k) runs) in
    (* High-water mark of the major heap so far: the memory envelope the
       leg fits in (monotone across legs, so the last leg reports the
       run's overall peak). *)
    let top_heap_mb =
      float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8.0 /. 1e6
    in
    Printf.printf
      "  %s medians: create %.2fs %s run %.2fs, %.0f keys/s, heap \
       high-water %.0f MB\n%!"
      name med_create
      (if med_create < med_run then "<" else ">=")
      med_run med_keys top_heap_mb;
    ( name,
      Json_out.Obj
        [
          ("nodes", Json_out.Int nodes);
          ("tasks", Json_out.Int tasks);
          ("churn", Json_out.Float churn);
          ( "runs",
            Json_out.List
              (List.map
                 (fun (sd, c, r, t, f, k) ->
                   Json_out.Obj
                     [
                       ("seed", Json_out.Int sd);
                       ("sim_create_s", Json_out.Float c);
                       ("sim_run_s", Json_out.Float r);
                       ("ticks", Json_out.Int t);
                       ("factor", Json_out.Float f);
                       ("keys_per_s", Json_out.Float k);
                     ])
                 runs) );
          ("sim_create_s_median", Json_out.Float med_create);
          ("sim_run_s_median", Json_out.Float med_run);
          ("keys_per_s_median", Json_out.Float med_keys);
          ("top_heap_mb", Json_out.Float top_heap_mb);
        ] )
  in
  let quick = leg "quick" ~nodes:20_000 ~tasks:200_000 ~churn:0.01 in
  let full = leg "full" ~nodes:100_000 ~tasks:1_000_000 ~churn:0.0 in
  scale_json :=
    Some
      (Json_out.Obj
         [
           ("strategy", Json_out.String (Strategy.name strategy));
           ("seeds", Json_out.List (List.map (fun s -> Json_out.Int s) seeds));
           quick;
           full;
         ])

(* ------------------------------------------------------------------ *)
(* The streaming leg: the open-system engine under continuous Poisson  *)
(* arrival.  The scale section above times draining a fixed batch; this *)
(* one times a fixed 300-tick horizon in which roughly 6x the initial   *)
(* batch arrives while it runs — the steady-state path (arrival draws,  *)
(* birth ledger, window collector) is what's on the clock.  Three       *)
(* seeds, per-seed numbers plus medians; ci.sh gates the run-time       *)
(* median against the committed BENCH_stream.json.                      *)

let stream_json : Json_out.t option ref = ref None

let stream_bench () =
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let strategy = Strategy.Random_injection in
  let seeds = [ seed; seed + 1; seed + 2 ] in
  let median l =
    let a = List.sort compare l in
    List.nth a (List.length a / 2)
  in
  let nodes = 10_000 and tasks = 100_000 and churn = 0.01 in
  let arrivals =
    {
      Arrivals.none with
      Arrivals.profile = Some (Arrivals.Poisson { rate = 2_000.0 });
      horizon = 300;
      window = 50;
    }
  in
  Printf.printf
    "stream leg: %dn / %dt initial, poisson=2000/tick over %d ticks, churn \
     %.2f, strategy %s\n%!"
    nodes tasks arrivals.Arrivals.horizon churn (Strategy.name strategy);
  let runs =
    List.map
      (fun sd ->
        let params =
          {
            (Params.default ~nodes ~tasks) with
            Params.seed = sd;
            churn_rate = churn;
            arrivals;
          }
        in
        let state, dt_create = timed (fun () -> State.create params) in
        let r, dt_run =
          timed (fun () ->
              Engine.run_state ~sink:Trace.Memory ~metrics:false state
                (Strategy.make strategy ()))
        in
        let completed =
          List.fold_left (fun acc (_, c) -> acc + c) 0 r.Engine.sojourn_ledger
        in
        let keys_per_s = float_of_int completed /. dt_run in
        Printf.printf
          "  seed %d: create %.2fs, run %.2fs (%d arrived, %d completed, \
           %.0f keys/s)\n%!"
          sd dt_create dt_run r.Engine.arrived_total completed keys_per_s;
        (sd, dt_create, dt_run, r.Engine.arrived_total, completed, keys_per_s))
      seeds
  in
  let med_create = median (List.map (fun (_, c, _, _, _, _) -> c) runs) in
  let med_run = median (List.map (fun (_, _, r, _, _, _) -> r) runs) in
  let med_keys = median (List.map (fun (_, _, _, _, _, k) -> k) runs) in
  Printf.printf
    "  stream medians: create %.2fs %s run %.2fs, %.0f keys completed/s\n%!"
    med_create
    (if med_create < med_run then "<" else ">=")
    med_run med_keys;
  stream_json :=
    Some
      (Json_out.Obj
         [
           ("strategy", Json_out.String (Strategy.name strategy));
           ("seeds", Json_out.List (List.map (fun s -> Json_out.Int s) seeds));
           ("nodes", Json_out.Int nodes);
           ("tasks", Json_out.Int tasks);
           ("churn", Json_out.Float churn);
           ("arrivals", Json_out.String (Arrivals.to_string arrivals));
           ( "runs",
             Json_out.List
               (List.map
                  (fun (sd, c, r, a, d, k) ->
                    Json_out.Obj
                      [
                        ("seed", Json_out.Int sd);
                        ("sim_create_s", Json_out.Float c);
                        ("sim_run_s", Json_out.Float r);
                        ("arrived", Json_out.Int a);
                        ("completed", Json_out.Int d);
                        ("keys_per_s", Json_out.Float k);
                      ])
                  runs) );
           ("sim_create_s_median", Json_out.Float med_create);
           ("sim_run_s_median", Json_out.Float med_run);
           ("keys_per_s_median", Json_out.Float med_keys);
         ])

(* Stamp the emitted metrics with enough provenance to compare runs
   across commits and machines: the git revision the numbers belong to,
   the core count, and the compiler that produced the binary. *)
let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, rev when rev <> "" -> rev
    | _ -> "unknown"
  with _ -> "unknown"

let emit_hotpath_json () =
  (* Only when the hotpath section actually ran: a DHTLB_ONLY run of
     some other section must not clobber the committed baseline with a
     file that has no hotpath numbers (ci.sh gates against it). *)
  if !hotpath_metrics = [] then ()
  else begin
  let file = "BENCH_hotpath.json" in
  let json =
    Json_out.Obj
      [
        ("schema", Json_out.String "dhtlb-hotpath/1");
        ("scale", Json_out.String (Scale.describe ()));
        ("git_rev", Json_out.String (git_rev ()));
        ("domains", Json_out.Int (Domain.recommended_domain_count ()));
        ("ocaml_version", Json_out.String Sys.ocaml_version);
        ( "sections_wall_s",
          Json_out.Obj
            (List.rev_map (fun (n, s) -> (n, Json_out.Float s)) !section_times)
        );
        ("hotpath", Json_out.Obj (List.rev !hotpath_metrics));
      ]
  in
  Atomic_write.write file (Json_out.to_string ~pretty:true json ^ "\n");
  Printf.printf "wrote %s\n%!" file
  end

let emit_scale_json () =
  match !scale_json with
  | None -> ()
  | Some legs ->
      let file = "BENCH_scale.json" in
      let json =
        Json_out.Obj
          [
            ("schema", Json_out.String "dhtlb-scale/1");
            ("git_rev", Json_out.String (git_rev ()));
            ("domains", Json_out.Int (Domain.recommended_domain_count ()));
            ("ocaml_version", Json_out.String Sys.ocaml_version);
            ("scale", legs);
          ]
      in
      Atomic_write.write file (Json_out.to_string ~pretty:true json ^ "\n");
      Printf.printf "wrote %s\n%!" file

let emit_stream_json () =
  match !stream_json with
  | None -> ()
  | Some leg ->
      let file = "BENCH_stream.json" in
      let json =
        Json_out.Obj
          [
            ("schema", Json_out.String "dhtlb-stream/1");
            ("git_rev", Json_out.String (git_rev ()));
            ("domains", Json_out.Int (Domain.recommended_domain_count ()));
            ("ocaml_version", Json_out.String Sys.ocaml_version);
            ("stream", leg);
          ]
      in
      Atomic_write.write file (Json_out.to_string ~pretty:true json ^ "\n");
      Printf.printf "wrote %s\n%!" file

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the substrate's hot operations.        *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  let rng = Prng.create seed in
  let payload = Bytes.make 64 'x' in
  Prng.fill_bytes rng payload;
  let payload = Bytes.to_string payload in
  let id_a = Keygen.fresh rng and id_b = Keygen.fresh rng in
  let big_set =
    let s = ref Id_set.empty in
    for _ = 1 to 10_000 do
      s := Id_set.add (Keygen.fresh rng) !s
    done;
    !s
  in
  let arc = Interval.make ~after:id_a ~upto:id_b in
  let ring =
    Array.fold_left (fun r id -> Ring.add id () r) Ring.empty (Keygen.node_ids rng 1000)
  in
  let tables = Routing.build_tables ring in
  let start = match Ring.min_binding_opt ring with
    | Some (id, _) -> id
    | None -> assert false
  in
  let small_sim_params =
    { (Params.default ~nodes:100 ~tasks:2_000) with Params.seed }
  in
  let tests =
    Test.make_grouped ~name:"dhtlb"
      [
        Test.make ~name:"sha1-64B" (Staged.stage (fun () -> Sha1.digest_string payload));
        Test.make ~name:"id-midpoint" (Staged.stage (fun () -> Id.midpoint id_a id_b));
        Test.make ~name:"idset-split-arc-10k"
          (Staged.stage (fun () -> Id_set.split_arc arc big_set));
        Test.make ~name:"ring-lookup-1000n"
          (Staged.stage (fun () ->
               Routing.lookup ring tables ~start ~key:id_b));
        Test.make ~name:"sim-run-100n-2000t"
          (Staged.stage (fun () ->
               Engine.run small_sim_params Engine.no_strategy));
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols ->
      let ns =
        match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan
      in
      Printf.printf "  %-28s %12.1f ns/run\n" name ns)
    results

let () =
  Printf.printf "dhtlb benchmark harness (%s)\n\n%!" (Scale.describe ());
  section "table1" paper_table1;
  section "figures1-3" figures_1_3;
  section "table2" paper_table2;
  section "figures4-14" paired_figures;
  section "summaries" summaries;
  section "ablations" ablations;
  section "extensions" extensions;
  section "maintenance" maintenance;
  section "failures" failures;
  section "routing" routing;
  section "timeline" timeline;
  section "hotpath" hotpath;
  section "scale" scale;
  section "stream" stream_bench;
  section "micro" micro;
  emit_hotpath_json ();
  emit_scale_json ();
  emit_stream_json ()
