(* The tick loop: termination, traces, snapshots and determinism. *)

let base = Params.default ~nodes:50 ~tasks:500

let ticks r = match r.Engine.outcome with Engine.Finished t | Engine.Aborted t | Engine.Timed_out t -> t

let test_baseline_terminates () =
  let r = Engine.run base Engine.no_strategy in
  (match r.Engine.outcome with
  | Engine.Finished _ -> ()
  | Engine.Aborted _ | Engine.Timed_out _ -> Alcotest.fail "baseline must finish");
  Alcotest.(check int) "ideal" 10 r.Engine.ideal;
  Alcotest.(check bool) "factor >= 1" true (r.Engine.factor >= 1.0)

let test_baseline_runtime_is_max_workload () =
  (* With no churn and no strategy, the job ends exactly when the most
     loaded machine finishes: runtime = max initial workload. *)
  let state = State.create base in
  let peak =
    Array.fold_left max 0 (State.workloads_snapshot state)
  in
  let r = Engine.run_state state Engine.no_strategy in
  Alcotest.(check int) "runtime = peak workload" peak (ticks r)

let test_work_conservation () =
  let r = Engine.run base Engine.no_strategy in
  let total =
    Array.fold_left (fun acc p -> acc + p.Trace.work_done) 0
      (Trace.points r.Engine.trace)
  in
  Alcotest.(check int) "all tasks consumed once" 500 total

let test_remaining_monotone () =
  let r = Engine.run { base with Params.churn_rate = 0.05 } Engine.no_strategy in
  let last = ref 500 in
  Array.iter
    (fun p ->
      if p.Trace.remaining > !last then Alcotest.fail "remaining increased";
      last := p.Trace.remaining)
    (Trace.points r.Engine.trace);
  Alcotest.(check int) "ends at zero" 0 !last

let test_determinism () =
  let r1 = Engine.run base Engine.no_strategy in
  let r2 = Engine.run base Engine.no_strategy in
  Alcotest.(check int) "same runtime" (ticks r1) (ticks r2);
  let r3 =
    Engine.run { base with Params.churn_rate = 0.1 } Engine.no_strategy
  in
  let r4 =
    Engine.run { base with Params.churn_rate = 0.1 } Engine.no_strategy
  in
  Alcotest.(check int) "same runtime under churn" (ticks r3) (ticks r4)

let test_snapshots () =
  let r = Engine.run ~snapshot_at:[ 0; 3 ] base Engine.no_strategy in
  (match Trace.snapshot_at_tick r.Engine.trace 0 with
  | Some w ->
    Alcotest.(check int) "tick0 sums to tasks" 500 (Array.fold_left ( + ) 0 w)
  | None -> Alcotest.fail "tick 0 snapshot missing");
  (match Trace.snapshot_at_tick r.Engine.trace 3 with
  | Some w ->
    (* 3 ticks x <=50 busy machines consumed *)
    Alcotest.(check bool) "tick3 less work" true (Array.fold_left ( + ) 0 w > 300)
  | None -> Alcotest.fail "tick 3 snapshot missing");
  Alcotest.(check bool) "unrequested tick absent" true
    (Trace.snapshot_at_tick r.Engine.trace 1 = None)

let test_snapshot_after_finish_missing () =
  let r = Engine.run ~snapshot_at:[ 100_000 ] base Engine.no_strategy in
  Alcotest.(check bool) "absent" true
    (Trace.snapshot_at_tick r.Engine.trace 100_000 = None)

let test_abort_cap () =
  (* A decision hook that relocates nothing but a churn rate of zero and
     a strategy that never lets the job finish is hard to build honestly,
     so instead verify the cap arithmetic with a tiny cap: runtime would
     be ~50 ticks > cap = ideal x 1 = 10. *)
  let r =
    Engine.run { base with Params.max_ticks_factor = 1 } Engine.no_strategy
  in
  match r.Engine.outcome with
  | Engine.Aborted t -> Alcotest.(check int) "aborted at cap" 10 t
  | Engine.Timed_out t -> Alcotest.failf "timed out at %d" t
  | Engine.Finished _ -> Alcotest.fail "should abort at the cap"

let test_zero_tasks () =
  let r = Engine.run (Params.default ~nodes:10 ~tasks:0) Engine.no_strategy in
  Alcotest.(check int) "finishes immediately" 0 (ticks r)

let test_decision_hook_every_tick () =
  (* The engine calls the hook once per tick; per-node cadence is the
     strategy's job (via Decision.due). *)
  let fired = ref [] in
  let strategy =
    {
      Engine.name = "probe";
      decide = (fun state -> fired := state.State.tick :: !fired);
    }
  in
  let r = Engine.run base strategy in
  Alcotest.(check (list int)) "once per tick, in order"
    (List.init (ticks r) Fun.id)
    (List.rev !fired)

let test_decision_due_staggered () =
  let state = State.create base in
  (* period 5, staggered: node p is due iff (tick + p) mod 5 = 0 *)
  let due_now =
    Array.to_list state.State.phys
    |> List.filter (Decision.due state)
    |> List.map (fun (p : State.phys) -> p.State.pid)
  in
  List.iter
    (fun pid -> if pid mod 5 <> 0 then Alcotest.failf "pid %d due at tick 0" pid)
    due_now;
  (* every node is due exactly once per period *)
  let counts = Array.make (Array.length state.State.phys) 0 in
  for _ = 1 to 5 do
    Array.iter
      (fun (p : State.phys) ->
        if Decision.due state p then counts.(p.State.pid) <- counts.(p.State.pid) + 1)
      state.State.phys;
    State.advance_tick state
  done;
  Array.iteri
    (fun pid c -> if c <> 1 then Alcotest.failf "pid %d due %d times in a period" pid c)
    counts

let test_decision_due_synchronized () =
  let params = { base with Params.stagger_decisions = false } in
  let state = State.create params in
  Array.iter
    (fun (p : State.phys) ->
      Alcotest.(check bool) "all due at tick 0" true (Decision.due state p))
    state.State.phys;
  State.advance_tick state;
  Array.iter
    (fun (p : State.phys) ->
      Alcotest.(check bool) "none due at tick 1" false (Decision.due state p))
    state.State.phys

let test_work_per_tick () =
  let r = Engine.run base Engine.no_strategy in
  Alcotest.(check (float 1e-6)) "mean work per tick"
    (500.0 /. float_of_int (ticks r))
    r.Engine.work_per_tick

let test_run_state_equals_run () =
  (* run_state over a freshly built state must equal run on the params *)
  let r1 = Engine.run base Engine.no_strategy in
  let r2 = Engine.run_state (State.create base) Engine.no_strategy in
  Alcotest.(check int) "same ticks" (ticks r1) (ticks r2);
  Alcotest.(check (float 1e-12)) "same factor" r1.Engine.factor r2.Engine.factor

(* ---- bounded-memory tracing and metrics -------------------------- *)

let test_ring_sink_bounds_aborted_run () =
  (* Acceptance case for the trace-memory fix: a 1000-machine run that
     hits the safety cap keeps only O(ring capacity) points in memory,
     while aggregates and the retained window stay exact — verified
     against the identical run with the full in-memory sink. *)
  let params =
    {
      (Params.default ~nodes:1000 ~tasks:20_000) with
      Params.max_ticks_factor = 1;
    }
  in
  let full = Engine.run ~sink:Trace.Memory params Engine.no_strategy in
  let ring = Engine.run ~sink:(Trace.Ring 6) params Engine.no_strategy in
  (match ring.Engine.outcome with
  | Engine.Aborted _ -> ()
  | Engine.Finished _ | Engine.Timed_out _ -> Alcotest.fail "run must hit the cap");
  Alcotest.(check int) "same ticks" (ticks full) (ticks ring);
  let fp = Trace.points full.Engine.trace in
  let rp = Trace.points ring.Engine.trace in
  Alcotest.(check int) "full sink kept every tick" (ticks full)
    (Array.length fp);
  Alcotest.(check int) "ring holds exactly its capacity" 6 (Array.length rp);
  Alcotest.(check int) "every tick still counted" (ticks full)
    (Trace.recorded ring.Engine.trace);
  (* the retained window is the newest suffix of the full series *)
  let off = Array.length fp - 6 in
  Array.iteri
    (fun i p ->
      if p <> fp.(off + i) then Alcotest.failf "window point %d differs" i)
    rp;
  Alcotest.(check (float 1e-12)) "mean exact despite eviction"
    full.Engine.work_per_tick ring.Engine.work_per_tick

let test_metrics_do_not_perturb () =
  (* Instrumentation must not touch the simulation PRNG: a metrics-on
     run is bit-identical to the plain one. *)
  let params = { base with Params.churn_rate = 0.05 } in
  let plain = Engine.run ~metrics:false params Engine.no_strategy in
  let timed = Engine.run ~metrics:true params Engine.no_strategy in
  Alcotest.(check int) "same ticks" (ticks plain) (ticks timed);
  Alcotest.(check (float 1e-12)) "same factor" plain.Engine.factor
    timed.Engine.factor;
  Alcotest.(check int) "same messages"
    (Messages.total plain.Engine.messages)
    (Messages.total timed.Engine.messages);
  Alcotest.(check bool) "plain report disabled" false
    plain.Engine.metrics.Metrics.enabled;
  let m = timed.Engine.metrics in
  Alcotest.(check bool) "timed report enabled" true m.Metrics.enabled;
  Alcotest.(check int) "one metric tick per engine tick" (ticks timed)
    m.Metrics.ticks;
  let phases =
    m.Metrics.decide_s +. m.Metrics.consume_s +. m.Metrics.churn_s
    +. m.Metrics.check_s +. m.Metrics.trace_s
  in
  Alcotest.(check bool) "phases non-negative" true (phases >= 0.0);
  Alcotest.(check bool) "phases within wall clock" true
    (phases <= m.Metrics.wall_s +. 1e-3)

(* Conservation across random parameter draws: whatever the strategy,
   churn, heterogeneity or key shape, every inserted task is either
   consumed exactly once or still stored when the run stops.  Parameters
   go through [Strategy.default_params] as the CLI does, so Induced Churn
   never runs at churn 0.  Every draw with a balancing strategy must
   then finish below the safety cap.  [No_strategy] is exempt: it never
   balances, so a draw with clustered keys may legitimately abort at the
   cap, and only conservation is asked of it. *)
let prop_conservation =
  let gen =
    QCheck.Gen.(
      let* nodes = int_range 10 120 in
      let* tasks_per_node = int_range 1 40 in
      let* churn = oneofl [ 0.0; 0.0; 0.01; 0.05 ] in
      let* hetero = bool in
      let* strength_work = bool in
      let* clustered = bool in
      let* strategy_index = int_bound (List.length Strategy.all - 1) in
      let* seed = int_bound 10_000 in
      return (nodes, tasks_per_node, churn, hetero, strength_work, clustered, strategy_index, seed))
  in
  let print (nodes, tpn, churn, hetero, sw, cl, si, seed) =
    Printf.sprintf "nodes=%d tpn=%d churn=%g hetero=%b sw=%b cl=%b strat=%s seed=%d"
      nodes tpn churn hetero sw cl
      (Strategy.name (List.nth Strategy.all si))
      seed
  in
  Testutil.prop ~count:60 "random configs conserve work and terminate"
    (QCheck.make ~print gen)
    (fun (nodes, tasks_per_node, churn, hetero, strength_work, clustered, strategy_index, seed) ->
      let strategy = List.nth Strategy.all strategy_index in
      let params =
        Strategy.default_params strategy
          {
            (Params.default ~nodes ~tasks:(nodes * tasks_per_node)) with
            Params.churn_rate = churn;
            heterogeneity =
              (if hetero then Params.Heterogeneous else Params.Homogeneous);
            work =
              (if strength_work then Params.Strength_per_tick
               else Params.Task_per_tick);
            keys =
              (if clustered then
                 Params.Clustered { hotspots = 5; spread = 0.05; zipf_s = 1.0 }
               else Params.Uniform_sha1);
            seed;
          }
      in
      let r = Engine.run params (Strategy.make strategy ()) in
      let points = Trace.points r.Engine.trace in
      let consumed = Array.fold_left (fun acc p -> acc + p.Trace.work_done) 0 points in
      let remaining = points.(Array.length points - 1).Trace.remaining in
      consumed + remaining = params.Params.tasks
      &&
      match (r.Engine.outcome, strategy) with
      | Engine.Finished _, _ -> remaining = 0
      | Engine.Aborted _, Strategy.No_strategy -> true
      | (Engine.Aborted _ | Engine.Timed_out _), _ -> false)

let () =
  Alcotest.run "engine"
    [
      ( "unit",
        [
          Alcotest.test_case "baseline terminates" `Quick test_baseline_terminates;
          Alcotest.test_case "runtime = peak workload" `Quick
            test_baseline_runtime_is_max_workload;
          Alcotest.test_case "work conservation" `Quick test_work_conservation;
          Alcotest.test_case "remaining monotone" `Quick test_remaining_monotone;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "snapshots" `Quick test_snapshots;
          Alcotest.test_case "snapshot after finish" `Quick
            test_snapshot_after_finish_missing;
          Alcotest.test_case "abort cap" `Quick test_abort_cap;
          Alcotest.test_case "zero tasks" `Quick test_zero_tasks;
          Alcotest.test_case "hook fires every tick" `Quick
            test_decision_hook_every_tick;
          Alcotest.test_case "staggered cadence" `Quick test_decision_due_staggered;
          Alcotest.test_case "synchronized cadence" `Quick
            test_decision_due_synchronized;
          Alcotest.test_case "work per tick" `Quick test_work_per_tick;
          Alcotest.test_case "run_state = run" `Quick test_run_state_equals_run;
        ] );
      ( "observability",
        [
          Alcotest.test_case "ring sink bounds aborted run" `Quick
            test_ring_sink_bounds_aborted_run;
          Alcotest.test_case "metrics do not perturb" `Quick
            test_metrics_do_not_perturb;
        ] );
      ("properties", [ prop_conservation ]);
    ]
