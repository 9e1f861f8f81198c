(* One repetition, run inside a fresh child process so every repetition
   starts from an empty heap and its peak heap is its own.  The child
   prints one JSON object: the verdict of each simulation it ran
   ([runs]) and its metrics.  The parent only checks and aggregates. *)

let seconds_since t0 = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9

let timed f =
  let t0 = Monotonic_clock.now () in
  let r = f () in
  (r, seconds_since t0)

(* A tail percentile is only reported with ten samples beyond it. *)
let tail_percentile xs p =
  if float_of_int (Array.length xs) *. (1.0 -. (p /. 100.0)) >= 10.0 then
    Some (Descriptive.percentile xs p)
  else None

(* What the parent checks of one simulation: it finished, its final
   state keeps every library invariant, and its digest is the expected
   one.  A traced run's mismatch marks the per-layer block stale. *)
let verdict ~traced (fp : Fingerprint.t) state =
  Json_out.Obj
    [
      ("traced", Json_out.Bool traced);
      ("digest", Json_out.String (Fingerprint.hex fp));
      ("outcome", Json_out.String (Fingerprint.outcome_name fp.Fingerprint.outcome));
      ("ticks", Json_out.Int (Fingerprint.ticks fp));
      ( "violation",
        match Fingerprint.invariant_violation state with
        | Some e -> Json_out.String e
        | None -> Json_out.Null );
    ]

let output runs metrics =
  Json_out.Obj [ ("runs", Json_out.List runs); ("metrics", Metric.list_to_json metrics) ]

let setup ~scale ~seed (w : Workload.t) =
  let params = Workload.params ~scale ~seed w in
  let strategy = Strategy.make w.Workload.strategy () in
  let state, setup_s = timed (fun () -> State.create params) in
  (state, strategy, setup_s)

type engine_run = {
  run : Json_out.t;  (** its verdict *)
  end_to_end : Metric.t list;
  counts : Metric.t list;  (** exact counts and GC deltas *)
}

(* One untraced [Engine.run_state].  Only the summary is returned, so
   the state is garbage once this returns. *)
let engine_run ~scale ~seed w =
  let state, strategy, setup_s = setup ~scale ~seed w in
  let gc0 = Gc.quick_stat () in
  let r, run_s =
    timed (fun () -> Engine.run_state ~sink:Trace.Memory ~metrics:false state strategy)
  in
  let gc1 = Gc.quick_stat () in
  let fp = Fingerprint.of_result r in
  let m = r.Engine.messages in
  let ticks = Fingerprint.ticks fp in
  let per_tick x = x /. float_of_int (max 1 ticks) in
  {
    run = verdict ~traced:false fp state;
    end_to_end =
      [
        Metric.v "keys_per_s" "tasks/s" (float_of_int state.State.work_done_total /. run_s);
        Metric.v "setup_s" "s" setup_s;
        Metric.v "peak_heap_mb" "MB" (float_of_int gc1.Gc.top_heap_words *. 8.0 /. 1e6);
      ];
    counts =
      [
        Metric.count "chord.joins" m.Messages.joins;
        Metric.count "chord.leaves" m.Messages.leaves;
        Metric.count "chord.key_transfers" m.Messages.key_transfers;
        Metric.count "chord.lookup_hops" m.Messages.lookup_hops;
        Metric.count "chord.workload_queries" m.Messages.workload_queries;
        Metric.count "chord.replications" m.Messages.replications;
        Metric.count "faults.dropped" m.Messages.dropped;
        Metric.count "faults.retries" m.Messages.retries;
        Metric.count "adversary.attack_joins" m.Messages.attack_joins;
        Metric.count "adversary.puzzles" m.Messages.puzzles;
        Metric.count "sim.ticks" ticks;
        Metric.count "sim.tasks_completed" state.State.work_done_total;
        Metric.count "sim.tasks_lost" m.Messages.tasks_lost;
        Metric.count "arrivals.arrived" r.Engine.arrived_total;
        Metric.v "gc.minor_words_per_tick" "words/tick"
          (per_tick (gc1.Gc.minor_words -. gc0.Gc.minor_words));
        Metric.v "gc.promoted_words_per_tick" "words/tick"
          (per_tick (gc1.Gc.promoted_words -. gc0.Gc.promoted_words));
        Metric.count "gc.major_collections" (gc1.Gc.major_collections - gc0.Gc.major_collections);
      ];
  }

let untraced ~scale ~seed w =
  let u = engine_run ~scale ~seed w in
  output [ u.run ] u.end_to_end

(* The per-layer repetition.  First an untraced run from the fresh
   heap, for the exact counts and GC deltas.  Then, from a compacted
   heap, the engine and the traced copy in lockstep: the engine's
   per-tick hook runs the copy's same tick on a twin state, so each
   engine tick and its traced twin run milliseconds apart and share the
   host's slow phases.  The tracing overhead is the ratio of their summed
   tick times; the step times are the copy's. *)
let traced ?trace_out ~scale ~seed w =
  let u1 = engine_run ~scale ~seed w in
  Gc.compact ();
  let engine_state, engine_strategy, _ = setup ~scale ~seed w in
  let copy_state, copy_strategy, _ = setup ~scale ~seed w in
  let copy = Traced.start copy_state copy_strategy in
  let now = Traced.now in
  let engine_ns = ref 0 and mark = ref (now ()) in
  let lap () = engine_ns := !engine_ns + (now () - !mark) in
  (* The hook runs between two engine ticks, from the second on, so the
     copy's tick k follows the engine's tick k; [finish] runs its last. *)
  let hook _ =
    lap ();
    if Traced.outcome copy = None then Traced.tick copy;
    mark := now ()
  in
  mark := now ();
  let r =
    Engine.run_state ~sink:Trace.Memory ~metrics:false ~checkpoint_every:1 ~checkpoint:hook
      engine_state engine_strategy
  in
  lap ();
  let t = Traced.finish ?trace_out copy in
  let engine_s = float_of_int !engine_ns /. 1e9 in
  let step i = t.Traced.step_s.(i) in
  let steps_total = Array.fold_left ( +. ) 0.0 t.Traced.step_s in
  let metrics =
    List.init Traced.n_steps (fun i -> Metric.v (Traced.metric_of_step i) "s" (step i))
    @ [
        Metric.v "engine.loop_wall_s" "s" t.Traced.loop_wall_s;
        Metric.v "engine.tick_ms_p50" "ms" (Descriptive.percentile t.Traced.tick_ms 50.0);
        {
          Metric.name = "engine.tick_ms_p90";
          value = tail_percentile t.Traced.tick_ms 90.0;
          unit = "ms";
          base = None;
        };
        Metric.v "engine.unattributed_frac" "fraction"
          (1.0 -. (steps_total /. t.Traced.loop_wall_s));
        Metric.v "engine.trace_overhead_frac" "fraction" ((t.Traced.loop_wall_s /. engine_s) -. 1.0);
        Metric.count "engine.decide_member_ops" t.Traced.decide_member_ops;
        Metric.count "engine.churn_member_ops" t.Traced.churn_member_ops;
        Metric.count "engine.consume_tasks" t.Traced.consumed;
        Metric.count "engine.arrive_tasks" t.Traced.arrived;
        Metric.count "engine.repair_replications" t.Traced.replications;
        Metric.count "engine.admit_joins" t.Traced.admissions;
        Metric.ratio ~base:"engine.decide_member_ops" "engine.decide_ns_per_member_op"
          "ns/member_op" (step Traced.decide) t.Traced.decide_member_ops;
        Metric.ratio ~base:"engine.churn_member_ops" "engine.churn_ns_per_member_op"
          "ns/member_op" (step Traced.churn) t.Traced.churn_member_ops;
        Metric.ratio ~base:"engine.consume_tasks" "engine.consume_ns_per_task" "ns/task"
          (step Traced.consume) t.Traced.consumed;
        Metric.ratio ~base:"engine.arrive_tasks" "engine.arrive_ns_per_task" "ns/task"
          (step Traced.arrive) t.Traced.arrived;
        Metric.ratio ~base:"engine.repair_replications" "engine.repair_ns_per_replication"
          "ns/replication" (step Traced.repair) t.Traced.replications;
        Metric.ratio ~base:"engine.admit_joins" "engine.admit_ns_per_puzzle" "ns/puzzle"
          (step Traced.admit) t.Traced.admissions;
      ]
    @ u1.counts
  in
  output
    [
      u1.run;
      verdict ~traced:false (Fingerprint.of_result r) engine_state;
      verdict ~traced:true t.Traced.fingerprint copy_state;
    ]
    metrics

let substrates () =
  Json_out.Obj
    (List.map
       (fun (name, ns, r2) ->
         (name, Json_out.Obj [ ("value", Json_out.Float ns); ("unit", Json_out.String "ns"); ("r2", Json_out.Float r2) ]))
       (Substrates.table ()))
