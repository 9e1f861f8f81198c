let f = Printf.sprintf "%.6f"

let table1_csv rows =
  Csv_out.table
    ~header:[ "nodes"; "tasks"; "median_workload"; "sigma" ]
    (List.map
       (fun (r : Initial_distribution.table1_row) ->
         [
           string_of_int r.Initial_distribution.nodes;
           string_of_int r.Initial_distribution.tasks;
           f r.Initial_distribution.median_workload;
           f r.Initial_distribution.sigma;
         ])
       rows)

let lookup_hops_csv rows =
  Csv_out.table
    ~header:[ "nodes"; "lookups"; "mean_hops"; "p99_hops"; "expected" ]
    (List.map
       (fun (r : Lookup_hops.row) ->
         [
           string_of_int r.Lookup_hops.nodes;
           string_of_int r.Lookup_hops.lookups;
           f r.Lookup_hops.mean_hops;
           f r.Lookup_hops.p99_hops;
           f r.Lookup_hops.expected;
         ])
       rows)

(* NaN percentiles (no completions in the window) become empty cells,
   not "nan". *)
let fnan v = if Float.is_nan v then "" else f v

let steady_csv windows =
  Csv_out.table
    ~header:
      [
        "window";
        "start_tick";
        "ticks";
        "arrivals";
        "completions";
        "arrival_rate";
        "completion_rate";
        "queue_p50";
        "queue_p95";
        "queue_p99";
        "sojourn_p50";
        "sojourn_p95";
        "sojourn_p99";
        "sojourn_mean";
        "sybil_min";
        "sybil_max";
        "sybil_mean";
      ]
    (Array.to_list
       (Array.map
          (fun (w : Steady.window) ->
            [
              string_of_int w.Steady.index;
              string_of_int w.Steady.start_tick;
              string_of_int w.Steady.ticks;
              string_of_int w.Steady.arrivals;
              string_of_int w.Steady.completions;
              f w.Steady.arrival_rate;
              f w.Steady.completion_rate;
              f w.Steady.queue_p50;
              f w.Steady.queue_p95;
              f w.Steady.queue_p99;
              fnan w.Steady.sojourn_p50;
              fnan w.Steady.sojourn_p95;
              fnan w.Steady.sojourn_p99;
              fnan w.Steady.sojourn_mean;
              string_of_int w.Steady.sybil_min;
              string_of_int w.Steady.sybil_max;
              f w.Steady.sybil_mean;
            ])
          windows))

let work_timeline_csv series =
  let header =
    "tick"
    :: List.map
         (fun (s : Work_timeline.series) -> Strategy.name s.Work_timeline.strategy)
         series
  in
  let window =
    List.fold_left
      (fun acc (s : Work_timeline.series) ->
        max acc (Array.length s.Work_timeline.work_per_tick))
      0 series
  in
  let rows =
    List.init window (fun tick ->
        string_of_int tick
        :: List.map
             (fun (s : Work_timeline.series) ->
               if tick < Array.length s.Work_timeline.work_per_tick then
                 string_of_int s.Work_timeline.work_per_tick.(tick)
               else "")
             series)
  in
  Csv_out.table ~header rows

let trace_csv trace =
  Csv_out.table
    ~header:[ "tick"; "work_done"; "remaining"; "active_nodes"; "vnodes" ]
    (Array.to_list
       (Array.map
          (fun (p : Trace.point) ->
            [
              string_of_int p.Trace.tick;
              string_of_int p.Trace.work_done;
              string_of_int p.Trace.remaining;
              string_of_int p.Trace.active_nodes;
              string_of_int p.Trace.vnodes;
            ])
          (Trace.points trace)))

let messages_json (m : Messages.t) =
  Json_out.Obj
    [
      ("joins", Json_out.Int m.Messages.joins);
      ("leaves", Json_out.Int m.Messages.leaves);
      ("key_transfers", Json_out.Int m.Messages.key_transfers);
      ("workload_queries", Json_out.Int m.Messages.workload_queries);
      ("invitations", Json_out.Int m.Messages.invitations);
      ("lookup_hops", Json_out.Int m.Messages.lookup_hops);
      ("maintenance", Json_out.Int m.Messages.maintenance);
      ("replications", Json_out.Int m.Messages.replications);
      ("dropped", Json_out.Int m.Messages.dropped);
      ("retries", Json_out.Int m.Messages.retries);
      ("tasks_lost", Json_out.Int m.Messages.tasks_lost);
      ("attack_joins", Json_out.Int m.Messages.attack_joins);
      ("puzzles", Json_out.Int m.Messages.puzzles);
      ("work_transfers", Json_out.Int m.Messages.work_transfers);
      ("total", Json_out.Int (Messages.total m));
    ]

let metrics_json (m : Metrics.report) =
  Json_out.Obj
    [
      ("enabled", Json_out.Bool m.Metrics.enabled);
      ("ticks", Json_out.Int m.Metrics.ticks);
      ("wall_s", Json_out.Float m.Metrics.wall_s);
      ("arrive_s", Json_out.Float m.Metrics.arrive_s);
      ("decide_s", Json_out.Float m.Metrics.decide_s);
      ("consume_s", Json_out.Float m.Metrics.consume_s);
      ("churn_s", Json_out.Float m.Metrics.churn_s);
      ("check_s", Json_out.Float m.Metrics.check_s);
      ("trace_s", Json_out.Float m.Metrics.trace_s);
      ("minor_words", Json_out.Float m.Metrics.minor_words);
      ("major_words", Json_out.Float m.Metrics.major_words);
      ("promoted_words", Json_out.Float m.Metrics.promoted_words);
      ("minor_collections", Json_out.Int m.Metrics.minor_collections);
      ("major_collections", Json_out.Int m.Metrics.major_collections);
    ]

let result_json (r : Engine.result) =
  let outcome, ticks =
    match r.Engine.outcome with
    | Engine.Finished t -> ("finished", t)
    | Engine.Aborted t -> ("aborted", t)
    | Engine.Timed_out t -> ("timed_out", t)
  in
  Json_out.Obj
    ([
       ("outcome", Json_out.String outcome);
       ("ticks", Json_out.Int ticks);
       ("ideal", Json_out.Int r.Engine.ideal);
       ("factor", Json_out.Float r.Engine.factor);
       ("work_per_tick", Json_out.Float r.Engine.work_per_tick);
       ("final_vnodes", Json_out.Int r.Engine.final_vnodes);
       ("final_active", Json_out.Int r.Engine.final_active);
       ("messages", messages_json r.Engine.messages);
     ]
    (* keep the historical shape for batch runs *)
    @ (if Array.length r.Engine.steady > 0 then
         [
           ("arrived_total", Json_out.Int r.Engine.arrived_total);
           ( "sojourn_ledger",
             Json_out.List
               (List.map
                  (fun (s, c) ->
                    Json_out.List [ Json_out.Int s; Json_out.Int c ])
                  r.Engine.sojourn_ledger) );
         ]
       else [])
    (* keep the historical shape when metrics were off *)
    @
    if r.Engine.metrics.Metrics.enabled then
      [ ("metrics", metrics_json r.Engine.metrics) ]
    else [])

let aggregate_json ~label (a : Runner.aggregate) =
  Json_out.Obj
    [
      ("label", Json_out.String label);
      ("trials", Json_out.Int a.Runner.trials);
      ("mean_factor", Json_out.Float a.Runner.mean_factor);
      ("stddev_factor", Json_out.Float a.Runner.stddev_factor);
      ("min_factor", Json_out.Float a.Runner.min_factor);
      ("max_factor", Json_out.Float a.Runner.max_factor);
      ("mean_ticks", Json_out.Float a.Runner.mean_ticks);
      ("mean_ideal", Json_out.Float a.Runner.mean_ideal);
      ("aborted", Json_out.Int a.Runner.aborted);
      ("finished", Json_out.Int a.Runner.finished);
      ("timed_out", Json_out.Int a.Runner.timed_out);
      ("mean_factor_finished", Json_out.Float a.Runner.mean_factor_finished);
      ("mean_ticks_finished", Json_out.Float a.Runner.mean_ticks_finished);
      ("mean_messages", Json_out.Float a.Runner.mean_messages);
      ("mean_tasks_lost", Json_out.Float a.Runner.mean_tasks_lost);
      ("open_system", Json_out.Bool a.Runner.open_system);
      (* NaN renders as null: the factor family above for open systems,
         the steady family below for batch runs. *)
      ("mean_arrived", Json_out.Float a.Runner.mean_arrived);
      ("steady_queue_p50", Json_out.Float a.Runner.steady_queue_p50);
      ("steady_queue_p95", Json_out.Float a.Runner.steady_queue_p95);
      ("steady_queue_p99", Json_out.Float a.Runner.steady_queue_p99);
      ("steady_sojourn_p50", Json_out.Float a.Runner.steady_sojourn_p50);
      ("steady_sojourn_p95", Json_out.Float a.Runner.steady_sojourn_p95);
      ("steady_sojourn_p99", Json_out.Float a.Runner.steady_sojourn_p99);
    ]
