(* dhtlb: command-line front end for the reproduction.

   Every table, figure, summary, ablation and sweep from DESIGN.md's
   experiment index is an entry of Artifacts.all, and one builder makes
   the subcommands that regenerate them; `simulate`, `stream` and
   `compare` run free-form configurations. *)

open Cmdliner

(* ---------------------------------------------------------------- *)
(* Shared options                                                     *)

let seed_t =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Base RNG seed.")

let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let domains_t =
  Arg.(
    value
    & opt positive_int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:"Run trials on N OCaml domains in parallel.")

let trials_t =
  Arg.(
    value
    & opt positive_int 3
    & info [ "trials" ] ~docv:"N" ~doc:"Independent trials per cell.")

let nodes_t =
  Arg.(
    value & opt int 1000 & info [ "nodes" ] ~docv:"N" ~doc:"Initial network size.")

let tasks_t =
  Arg.(
    value
    & opt int 100_000
    & info [ "tasks" ] ~docv:"N" ~doc:"Number of tasks in the job.")

let churn_t =
  Arg.(
    value
    & opt float 0.0
    & info [ "churn" ] ~docv:"RATE" ~doc:"Per-node per-tick churn rate.")

let failure_t =
  Arg.(
    value
    & opt float 0.0
    & info [ "failures" ] ~docv:"RATE"
        ~doc:"Per-node per-tick ungraceful failure rate.")

let strategy_t =
  let parse s =
    match Strategy.of_name s with Ok t -> Ok t | Error e -> Error (`Msg e)
  in
  let print ppf t = Format.pp_print_string ppf (Strategy.name t) in
  Arg.(
    value
    & opt (conv (parse, print)) Strategy.No_strategy
    & info [ "strategy" ] ~docv:"NAME"
        ~doc:
          "Balancing strategy: none, churn, random, neighbor, smart-neighbor, \
           invitation, strength-aware, static-vnodes, diffusive or \
           range-reassign.")

let threshold_t =
  Arg.(
    value
    & opt int 0
    & info [ "sybil-threshold" ] ~docv:"N"
        ~doc:"Workload at or below which a node makes Sybils.")

let max_sybils_t =
  Arg.(
    value
    & opt int 5
    & info [ "max-sybils" ] ~docv:"N" ~doc:"Maximum Sybils per node.")

let successors_t =
  Arg.(
    value
    & opt int 5
    & info [ "successors" ] ~docv:"N" ~doc:"Successor/predecessor list length.")

let hetero_t =
  Arg.(
    value & flag
    & info [ "heterogeneous" ]
        ~doc:"Node strengths uniform in [1, max-sybils] instead of all 1.")

let strength_work_t =
  Arg.(
    value & flag
    & info [ "strength-work" ]
        ~doc:"Nodes complete strength tasks per tick instead of one.")

let period_t =
  Arg.(
    value
    & opt int 5
    & info [ "period" ] ~docv:"TICKS" ~doc:"Ticks between per-node decisions.")

let no_stagger_t =
  Arg.(
    value & flag
    & info [ "no-stagger" ]
        ~doc:"Synchronize all decisions on global period boundaries.")

let invite_factor_t =
  Arg.(
    value
    & opt float 2.0
    & info [ "invite-factor" ] ~docv:"F"
        ~doc:"Overload threshold multiple of the mean (Invitation).")

let median_split_t =
  Arg.(
    value & flag
    & info [ "median-split" ]
        ~doc:"Invitation helpers split at the median task key.")

let avoid_repeats_t =
  Arg.(
    value & flag
    & info [ "avoid-repeats" ]
        ~doc:"Neighbor injection remembers arcs that yielded nothing.")

let clustered_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "hotspots" ] ~docv:"N"
        ~doc:"Cluster task keys around N Zipf-popular hotspots.")

let spread_t =
  Arg.(
    value
    & opt float 0.02
    & info [ "spread" ] ~docv:"F"
        ~doc:"Hotspot width as a ring fraction (with --hotspots).")

let zipf_t =
  Arg.(
    value
    & opt float 1.1
    & info [ "zipf-s" ] ~docv:"S"
        ~doc:"Zipf exponent for hotspot popularity (with --hotspots).")

let faults_t =
  let parse s =
    match Faults.of_string s with Ok t -> Ok t | Error e -> Error (`Msg e)
  in
  Arg.(
    value
    & opt (conv (parse, Faults.pp)) Faults.none
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Fault plan: comma-separated clauses among $(b,drop=P) \
           (control-plane reply loss probability), \
           $(b,crash=COUNT@TICK+...) (crash bursts), $(b,straggle=N) \
           (straggler machines, with $(b,straggle-delay=T)), \
           $(b,retry-budget=N), $(b,backoff=BASE:CAP), \
           $(b,partition=START-STOP) and $(b,repl-drop=P) (replica \
           enrolment loss, with --replicas); or $(b,off).  Example: \
           $(b,--faults drop=0.1,crash=5\\@200,straggle=3).")

let arrivals_t =
  let parse s =
    match Arrivals.of_string s with Ok t -> Ok t | Error e -> Error (`Msg e)
  in
  Arg.(
    value
    & opt (conv (parse, Arrivals.pp)) Arrivals.none
    & info [ "arrivals" ] ~docv:"SPEC"
        ~doc:
          "Arrival plan (open system): comma-separated clauses with \
           exactly one rate profile among $(b,poisson=RATE), \
           $(b,burst=LO:HI:ON:OFF) (interrupted Poisson) and \
           $(b,diurnal=MEAN:AMP:PERIOD); plus optional \
           $(b,hot=HOTSPOTS:SPREAD:ZIPF_S) (Zipf-skewed task keys), \
           $(b,horizon=TICKS) and $(b,window=TICKS); or $(b,off).  With \
           a profile the run lasts exactly horizon ticks and reports \
           steady-state windows instead of a makespan.  Example: \
           $(b,--arrivals poisson=8,hot=4:0.05:1.1,horizon=400).")

let attack_t =
  let parse s =
    match Attack.of_string s with Ok t -> Ok t | Error e -> Error (`Msg e)
  in
  Arg.(
    value
    & opt (conv (parse, Attack.pp)) Attack.none
    & info [ "attack" ] ~docv:"SPEC"
        ~doc:
          "Adversarial Sybil plan: comma-separated clauses among \
           $(b,strength=N) (injections per malicious machine per tick), \
           $(b,machines=M) (malicious machines, drawn from the initial \
           network), $(b,target=F) and $(b,width=F) (eclipsed arc as \
           ring fractions), and $(b,window=START:STOP) (active ticks; \
           at STOP every attacker crashes at once); or $(b,off).  \
           Example: $(b,--attack strength=2,machines=4,window=10:40).")

let puzzle_cost_t =
  Arg.(
    value
    & opt int 0
    & info [ "puzzle-cost" ] ~docv:"TICKS"
        ~doc:
          "Admission-puzzle defense: every Sybil join (benign or \
           adversarial) first solves a puzzle taking this many ticks, \
           one outstanding admission per machine.  0 (default) admits \
           immediately, bit-for-bit the undefended engine.")

let replicas_t =
  Arg.(
    value
    & opt int 0
    & info [ "replicas" ] ~docv:"R"
        ~doc:
          "Live replication degree: each vnode's tasks are backed up on \
           its next R ring successors and crashed machines recover from \
           surviving replicas; tasks whose whole replica group dies are \
           genuinely lost.  0 (default) keeps the paper's \
           assumed-reliable data plane, bit-for-bit.")

let repair_lag_t =
  Arg.(
    value
    & opt int 1
    & info [ "repair-lag" ] ~docv:"TICKS"
        ~doc:
          "Ticks between lazy replica-repair passes (with --replicas; \
           larger lag widens the window in which a burst can catch \
           under-replicated tasks).")

let params_t =
  let build nodes tasks churn failures threshold max_sybils successors hetero
      strength_work period no_stagger invite_factor median_split avoid_repeats
      hotspots spread zipf_s faults replicas repair_lag arrivals attack
      puzzle_cost seed =
    {
      (Params.default ~nodes ~tasks) with
      Params.churn_rate = churn;
      failure_rate = failures;
      sybil_threshold = threshold;
      max_sybils;
      num_successors = successors;
      heterogeneity =
        (if hetero then Params.Heterogeneous else Params.Homogeneous);
      work = (if strength_work then Params.Strength_per_tick else Params.Task_per_tick);
      decision_period = period;
      stagger_decisions = not no_stagger;
      invite_factor;
      split_at_median = median_split;
      avoid_repeats;
      keys =
        (match hotspots with
        | Some h -> Params.Clustered { hotspots = h; spread; zipf_s }
        | None -> Params.Uniform_sha1);
      faults;
      replicas;
      repair_lag;
      arrivals;
      attack;
      puzzle_cost;
      seed;
    }
  in
  Term.(
    const build $ nodes_t $ tasks_t $ churn_t $ failure_t $ threshold_t
    $ max_sybils_t $ successors_t $ hetero_t $ strength_work_t $ period_t
    $ no_stagger_t $ invite_factor_t $ median_split_t $ avoid_repeats_t
    $ clustered_t $ spread_t $ zipf_t $ faults_t $ replicas_t $ repair_lag_t
    $ arrivals_t $ attack_t $ puzzle_cost_t $ seed_t)

(* ---------------------------------------------------------------- *)
(* Commands                                                           *)

let csv_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the result as CSV to $(docv).")

let out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:
          "Write the result JSON to $(docv) (atomic write-then-rename), \
           independent of the human-readable report on stdout.")

let checkpoint_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Checkpoint file: written atomically on SIGINT/SIGTERM (and \
           every --checkpoint-every ticks), read back by --resume.  \
           Single-run commands only (--trials 1).")

let checkpoint_every_t =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "checkpoint-every" ] ~docv:"TICKS"
        ~doc:
          "With --checkpoint, also snapshot every $(docv) ticks, so a \
           SIGKILL loses at most that much progress.")

let resume_t =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Resume from the --checkpoint file instead of starting fresh; \
           bit-for-bit identical to the uninterrupted run.  A missing \
           checkpoint file falls back to a fresh run; a mismatched one \
           (different parameters or format) is refused.")

let trial_timeout_t =
  let parse s =
    match float_of_string_opt s with
    | Some x when Float.is_finite x && x > 0.0 -> Ok x
    | _ -> Error (`Msg (Printf.sprintf "expected finite seconds > 0, got %S" s))
  in
  Arg.(
    value
    & opt (some (conv (parse, Format.pp_print_float))) None
    & info [ "trial-timeout" ] ~docv:"SECS"
        ~doc:
          "Wall-clock watchdog per trial: a trial still running after \
           $(docv) seconds stops between ticks and is counted as \
           timed-out in the aggregate instead of poisoning the means.")

let journal_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Per-cell result journal (JSONL, one fsynced line per \
           completed cell).  Rerunning a killed sweep with the same \
           journal skips exactly the cells already recorded there.")

(* A refused input: one line on stderr, exit 2. *)
let refuse message =
  prerr_endline message;
  exit 2

let with_journal path f =
  match path with
  | None -> f None
  | Some p ->
    let j = try Journal.open_ p with Sys_error e -> refuse ("invalid --journal: " ^ e) in
    if Journal.loaded j > 0 then
      Printf.eprintf "journal %s: resuming, %d cell(s) already recorded\n%!" p
        (Journal.loaded j);
    Fun.protect ~finally:(fun () -> Journal.close j) (fun () -> f (Some j))

(* Cooperative interrupts: the handlers only set the engine's atomic
   flag; the tick loop notices at the next tick boundary, writes a final
   checkpoint when one is configured, closes trace sinks and raises
   [Engine.Interrupted].  Exit codes follow the shell convention
   (128 + signal): 130 for SIGINT, 143 for SIGTERM. *)
let last_signal = ref Sys.sigint

let install_interrupt_handlers () =
  List.iter
    (fun signum ->
      Sys.set_signal signum
        (Sys.Signal_handle
           (fun s ->
             last_signal := s;
             Engine.request_interrupt ())))
    [ Sys.sigint; Sys.sigterm ]

let interrupt_exit_code () = if !last_signal = Sys.sigterm then 143 else 130

let handle_interrupted ~checkpoint tick =
  Format.eprintf "interrupted at tick %d%s@." tick
    (match checkpoint with
    | Some path -> "; checkpoint written to " ^ path
    | None -> "");
  exit (interrupt_exit_code ())

let maybe_out out json =
  match out with
  | Some file ->
    Atomic_write.write file (Json_out.to_string ~pretty:true json ^ "\n");
    Printf.eprintf "wrote %s\n%!" file
  | None -> ()

let load_checkpoint_or_die ~path params =
  match Checkpoint.load ~path params with
  | Ok (p, hdr) ->
    let current = Checkpoint.current_git_rev () in
    if not (String.equal hdr.Checkpoint.git_rev current) then
      Format.eprintf
        "warning: checkpoint %s was written at rev %s, current is %s@." path
        hdr.Checkpoint.git_rev current;
    Format.eprintf "resuming %s from tick %d@." path hdr.Checkpoint.tick;
    p
  | Error e -> refuse e

(* The one single-run path, shared by [simulate --trials 1] and [stream].
   Applied to the checkpoint flags, it refuses --resume or
   --checkpoint-every without --checkpoint (exit 2, one line on stderr).
   Applied to a run, it installs the interrupt handlers, then resumes
   from the checkpoint file, starts fresh when that file is missing (so
   wrappers can always pass --resume without racing the first
   checkpoint), or runs fresh.  Anything else [Checkpoint.load] refuses
   is fatal, and an interrupt exits after its final checkpoint. *)
let single_run ~checkpoint ~checkpoint_every ~resume =
  if checkpoint = None then
    List.iter
      (fun (given, flag) -> if given then refuse (flag ^ " requires --checkpoint FILE"))
      [
        (resume, "--resume");
        (checkpoint_every <> None, "--checkpoint-every");
      ];
  fun ?sink ?metrics ?snapshot_at ?timeout params strategy ->
    install_interrupt_handlers ();
    let hook =
      Option.map (fun path p -> Checkpoint.save ~path params p) checkpoint
    in
    let strat = Strategy.make strategy () in
    let fresh () =
      Engine.run ?sink ?metrics ?snapshot_at ?checkpoint_every ?checkpoint:hook
        ?timeout params strat
    in
    match
      match checkpoint with
      | Some path when resume && Sys.file_exists path ->
        Engine.resume ?sink ?metrics ?checkpoint_every ?checkpoint:hook ?timeout
          (load_checkpoint_or_die ~path params)
          strat
      | Some path when resume ->
        Format.eprintf "checkpoint %s not found; starting fresh@." path;
        fresh ()
      | _ -> fresh ()
    with
    | r -> r
    | exception Engine.Interrupted tick -> handle_interrupted ~checkpoint tick

let maybe_csv path contents =
  match path with
  | Some file ->
    Csv_out.write_file file contents;
    Printf.eprintf "wrote %s\n%!" file
  | None -> ()

let validate_or_die params =
  match Params.validate params with
  | Ok () -> ()
  | Error e -> refuse ("invalid parameters: " ^ e)

let sink_of_opt trace_out =
  match trace_out with
  | None -> None
  | Some spec -> (
    match Trace.sink_of_string spec with
    | Ok s -> Some s
    | Error e -> refuse ("invalid --trace-out: " ^ e))

let simulate params strategy trials domains snapshots trace_csv trace_out
    metrics json out checkpoint checkpoint_every resume trial_timeout =
  let params = Strategy.default_params strategy params in
  validate_or_die params;
  let sink = sink_of_opt trace_out in
  (* These act on one run's result; a multi-trial run would drop them. *)
  if trials > 1 then
    List.iter
      (fun (given, message) -> if given then refuse message)
      [
        (checkpoint <> None || resume, "--checkpoint/--resume require --trials 1");
        (metrics, "--metrics requires --trials 1");
        (snapshots <> [], "--snapshot requires --trials 1");
        ( trace_csv <> None,
          "--trace-csv requires --trials 1 (--trace-out csv:FILE writes one CSV per trial)" );
      ];
  let run = single_run ~checkpoint ~checkpoint_every ~resume in
  Format.printf "parameters: %a@." Params.pp params;
  if trials = 1 then begin
    let metrics = if metrics then Some true else None in
    let r =
      run ?sink ?metrics ~snapshot_at:snapshots ?timeout:trial_timeout params
        strategy
    in
    (match r.Engine.outcome with
    | Engine.Finished t ->
      Format.printf "finished in %d ticks (ideal %d, factor %.3f)@." t
        r.Engine.ideal r.Engine.factor
    | Engine.Aborted t ->
      Format.printf "ABORTED at safety cap %d ticks (ideal %d)@." t r.Engine.ideal
    | Engine.Timed_out t ->
      Format.printf "TIMED OUT at tick %d (ideal %d)@." t r.Engine.ideal);
    Format.printf "work/tick mean: %.1f; final vnodes: %d; active: %d@."
      r.Engine.work_per_tick r.Engine.final_vnodes r.Engine.final_active;
    Format.printf "messages: %a@." Messages.pp r.Engine.messages;
    if r.Engine.metrics.Metrics.enabled then
      Format.printf "metrics: %a@." Metrics.pp_report r.Engine.metrics;
    List.iter
      (fun (tick, w) ->
        if Array.length w > 0 then
          Format.printf "@.workload distribution at tick %d:@.%s" tick
            (Figure.compare_histograms
               [ { Figure.label = Strategy.name strategy; workloads = w } ]))
      (Trace.snapshots r.Engine.trace);
    maybe_csv trace_csv (Export.trace_csv r.Engine.trace);
    let result = Export.result_json r in
    maybe_out out result;
    if json then print_endline (Json_out.to_string ~pretty:true result)
  end
  else begin
    let agg =
      Runner.run_trials ~trials ~domains ?sink ?trial_timeout params
        (Strategy.make strategy)
    in
    Format.printf "%a@." Runner.pp_aggregate agg;
    let result = Export.aggregate_json ~label:(Strategy.name strategy) agg in
    maybe_out out result;
    if json then print_endline (Json_out.to_string ~pretty:true result)
  end

let trace_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"SPEC"
        ~doc:
          "Trace sink: $(b,memory), $(b,null), $(b,ring:N), $(b,csv:PATH) \
           or $(b,jsonl:PATH).  Bounds trace memory for long runs; \
           defaults to \\$DHTLB_TRACE_OUT, else memory.  Multi-trial \
           runs suffix file-sink paths with the trial index \
           (trace.csv becomes trace.0.csv, trace.1.csv, ...).")

let json_t = Arg.(value & flag & info [ "json" ] ~doc:"Also print the result as JSON.")

let simulate_cmd =
  let snapshots_t =
    Arg.(
      value
      & opt (list int) []
      & info [ "snapshot" ] ~docv:"TICKS"
          ~doc:
            "Comma-separated ticks at which to print the distribution \
             (single-trial runs).")
  in
  let trace_csv_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-csv" ] ~docv:"FILE"
          ~doc:"Write the per-tick trace as CSV (single-trial runs).")
  in
  let metrics_t =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Report per-phase wall-clock timings and GC deltas (also \
             enabled by DHTLB_METRICS=1; single-trial runs).")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run one simulation configuration.")
    Term.(
      const simulate $ params_t $ strategy_t $ trials_t $ domains_t
      $ snapshots_t $ trace_csv_t $ trace_out_t $ metrics_t $ json_t $ out_t
      $ checkpoint_t $ checkpoint_every_t $ resume_t $ trial_timeout_t)

(* ---------------------------------------------------------------- *)
(* Open-system streaming                                              *)

let window_table windows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%4s %6s %5s %7s %7s %18s %21s %14s\n" "win" "start"
       "ticks" "arr/t" "done/t" "queue p50/p95/p99" "sojourn p50/p95/p99"
       "sybils min..max");
  let one v = if Float.is_nan v then "-" else Printf.sprintf "%.1f" v in
  let pcts a b c = Printf.sprintf "%s/%s/%s" (one a) (one b) (one c) in
  Array.iter
    (fun (w : Steady.window) ->
      Buffer.add_string buf
        (Printf.sprintf "%4d %6d %5d %7.2f %7.2f %18s %21s %6d..%-6d\n"
           w.Steady.index w.Steady.start_tick w.Steady.ticks
           w.Steady.arrival_rate w.Steady.completion_rate
           (pcts w.Steady.queue_p50 w.Steady.queue_p95 w.Steady.queue_p99)
           (pcts w.Steady.sojourn_p50 w.Steady.sojourn_p95 w.Steady.sojourn_p99)
           w.Steady.sybil_min w.Steady.sybil_max))
    windows;
  Buffer.contents buf

let stream params strategy trace_out csv json out checkpoint checkpoint_every
    resume =
  (* `stream` means open system: supply a default Poisson plan when the
     user gave none rather than silently running the batch engine. *)
  let params =
    if Arrivals.enabled params.Params.arrivals then params
    else
      {
        params with
        Params.arrivals =
          {
            params.Params.arrivals with
            Arrivals.profile = Some (Arrivals.Poisson { rate = 4.0 });
          };
      }
  in
  let params = Strategy.default_params strategy params in
  validate_or_die params;
  let run = single_run ~checkpoint ~checkpoint_every ~resume in
  let sink = sink_of_opt trace_out in
  Format.printf "parameters: %a@." Params.pp params;
  let r = run ?sink params strategy in
  (match r.Engine.outcome with
  | Engine.Finished t -> Format.printf "horizon reached: %d ticks@." t
  | Engine.Aborted t -> Format.printf "ABORTED at safety cap %d ticks@." t
  | Engine.Timed_out t -> Format.printf "TIMED OUT at tick %d@." t);
  let completed =
    List.fold_left (fun acc (_, c) -> acc + c) 0 r.Engine.sojourn_ledger
  in
  Format.printf "arrived: %d; completed: %d; lost: %d; final vnodes: %d; active: %d@."
    r.Engine.arrived_total completed
    r.Engine.messages.Messages.tasks_lost r.Engine.final_vnodes
    r.Engine.final_active;
  Format.printf "messages: %a@." Messages.pp r.Engine.messages;
  print_string (window_table r.Engine.steady);
  maybe_csv csv (Export.steady_csv r.Engine.steady);
  let result = Export.result_json r in
  maybe_out out result;
  if json then print_endline (Json_out.to_string ~pretty:true result)

let stream_cmd =
  Cmd.v
    (Cmd.info "stream"
       ~doc:
         "One open-system run: continuous task arrival over a fixed \
          horizon, reported as steady-state measurement windows \
          (arrival/completion rates, queue and sojourn percentiles, \
          Sybil-count swing).  Defaults to $(b,--arrivals poisson=4) \
          when no plan is given.")
    Term.(
      const stream $ params_t $ strategy_t $ trace_out_t $ csv_t $ json_t
      $ out_t $ checkpoint_t $ checkpoint_every_t $ resume_t)

let compare_cmd =
  (* One [run_all] per strategy: the factors, the aggregate and trial 0's
     message bill all come from the same trials, and the "none" row is
     the baseline of the p column. *)
  let run params trials domains =
    Format.printf "parameters: %a, %d trial(s) per strategy@.@." Params.pp
      params trials;
    let rows =
      List.map
        (fun strategy ->
          let params = Strategy.default_params strategy params in
          let results =
            Runner.run_all ~trials ~domains params (Strategy.make strategy)
          in
          ( strategy,
            ( params,
              Runner.aggregate_of params results,
              Array.map (fun r -> r.Engine.factor) results,
              results.(0).Engine.messages ) ))
        Strategy.all
    in
    let _, _, baseline_factors, _ = List.assoc Strategy.No_strategy rows in
    Printf.printf "%-16s %8s %8s %10s %12s %12s\n" "strategy" "factor" "+/-"
      "msgs/task" "sybil joins" "p(vs none)";
    List.iter
      (fun (strategy, (params, agg, factors, m)) ->
        let p_col =
          if strategy = Strategy.No_strategy || trials < 2 then "-"
          else
            let t = Significance.welch_t_test factors baseline_factors in
            Printf.sprintf "%.4f%s" t.Significance.p_value
              (if t.Significance.significant_05 then "*" else "")
        in
        Printf.printf "%-16s %8.3f %8.3f %10.2f %12d %12s\n"
          (Strategy.name strategy) agg.Runner.mean_factor
          agg.Runner.stddev_factor
          (float_of_int (Messages.total m)
          /. float_of_int (max 1 params.Params.tasks))
          (m.Messages.joins - params.Params.nodes)
          p_col)
      rows
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"All strategies head-to-head on one network configuration.")
    Term.(const run $ params_t $ trials_t $ domains_t)

(* ---------------------------------------------------------------- *)
(* Artifacts                                                          *)

(* Every artifact subcommand comes from Artifacts.all: an [Own] entry is
   a subcommand of its own, and fig, summary and ablate pick one of their
   entries by a positional argument.  A subcommand offers the flags its
   entries read, and refuses a bad DHTLB_DOMAINS, an unknown figure or a
   --csv its entry cannot write before any work. *)
let artifact_cmd entries =
  let first = List.hd entries in
  let name, doc = Artifacts.subcommand first.Artifacts.command in
  let flags = List.map Artifacts.flags entries in
  let any f = List.exists f flags in
  let offer present term none = if present then term else Term.const none in
  let json_t =
    match List.find_map (fun f -> f.Artifacts.json_doc) flags with
    | Some doc -> Arg.(value & flag & info [ "json" ] ~doc)
    | None -> Term.const false
  in
  let sweep = any (fun f -> f.Artifacts.journal) in
  let named = List.map (fun e -> (Artifacts.key e, e)) entries in
  let select_t =
    let positional c ~docv ?doc () =
      Arg.(required & pos 0 (some c) None & info [] ~docv ?doc)
    in
    let names = List.map fst named in
    match first.Artifacts.command with
    | Artifacts.Own _ -> Term.const (Ok first)
    | Artifacts.Fig _ ->
      let pick n =
        Option.to_result
          ~none:(Printf.sprintf "no Figure %d (figures are 1-14)" n)
          (List.assoc_opt (string_of_int n) named)
      in
      Term.(const pick $ positional Arg.int ~docv:"N" ())
    | Artifacts.Summary _ ->
      let docv = String.concat "|" names in
      Term.(const Result.ok $ positional (Arg.enum named) ~docv ())
    | Artifacts.Ablate _ ->
      let doc = String.capitalize_ascii (Arg.doc_alts ~quoted:false names) ^ "." in
      Term.(const Result.ok $ positional (Arg.enum named) ~docv:"WHICH" ~doc ())
  in
  let run select trials seed csv json journal trial_timeout =
    (match Scale.domains () with _ -> () | exception Invalid_argument e -> refuse e);
    let entry = match select with Ok e -> e | Error e -> refuse e in
    if csv <> None && not (Artifacts.flags entry).Artifacts.writes_csv then
      refuse (Printf.sprintf "--csv: %s %s writes no CSV" name (Artifacts.key entry));
    let out =
      with_journal journal (fun journal ->
          Artifacts.run ?journal ?trial_timeout entry ~trials ~seed)
    in
    print_string out.Artifacts.text;
    Option.iter (maybe_csv csv) out.Artifacts.csv;
    if json then
      Option.iter
        (fun j -> print_endline (Json_out.to_string ~pretty:true j))
        out.Artifacts.json
  in
  (* An entry that reads no trial count ignores the constant. *)
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run $ select_t
      $ offer (any (fun f -> f.Artifacts.reads_trials)) trials_t 1
      $ seed_t
      $ offer (any (fun f -> f.Artifacts.writes_csv)) csv_t None
      $ json_t $ offer sweep journal_t None
      $ offer sweep trial_timeout_t None)

let main_cmd =
  Cmd.group
    (Cmd.info "dhtlb" ~version:"1.0.0"
       ~doc:
         "Autonomous DHT load balancing via churn and the Sybil attack \
          (reproduction of Rosen, Levin & Bourgeois, IPPS 2021).")
    (simulate_cmd :: compare_cmd :: stream_cmd
    :: List.map artifact_cmd (Artifacts.commands))

let () = exit (Cmd.eval main_cmd)
