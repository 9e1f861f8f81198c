type aggregate = {
  trials : int;
  open_system : bool;
  mean_factor : float;
  stddev_factor : float;
  min_factor : float;
  max_factor : float;
  mean_ticks : float;
  mean_ideal : float;
  aborted : int;
  finished : int;
  timed_out : int;
  mean_factor_finished : float;
  mean_ticks_finished : float;
  mean_messages : float;
  mean_tasks_lost : float;
  mean_arrived : float;
  steady_queue_p50 : float;
  steady_queue_p95 : float;
  steady_queue_p99 : float;
  steady_sojourn_p50 : float;
  steady_sojourn_p95 : float;
  steady_sojourn_p99 : float;
}

let run_one ~sink ?timeout (params : Params.t) mk_strategy i =
  let params = { params with Params.seed = params.Params.seed + i } in
  (* Each trial of a multi-trial run streams to its own suffixed file
     (trace.csv -> trace.0.csv, trace.1.csv, ...), so file sinks no
     longer collide across trials — or domains. *)
  Engine.run ~sink:(Trace.sink_for_trial sink ~trial:i) ?timeout params (mk_strategy ())

(* Trial [i] of a cell runs on [seed + i], so two cells whose base seeds
   are closer than [trials] share trials — cell A's trial 3 is cell B's
   trial 0, silently correlating rows of a sweep.  Stepping cell bases by
   at least [trials] keeps every cell's seed range disjoint. *)
let stride_seed ~base ~trials ~index = base + (index * max 1 trials)

(* Trials are embarrassingly parallel: each builds its own state and
   PRNG, so partitioning the index range across domains is race-free and
   bit-reproducible.  Each domain owns a contiguous chunk and fills a
   private array returned through [Domain.join] — no strided writes into
   a shared boxed-option array, so nothing depends on publication order.
   Static block partitioning is fine: trials of one experiment have
   near-identical cost.  The watchdog changes none of this: a timeout
   only flips a trial's own outcome to [Timed_out], the trial-to-seed
   mapping and the result ordering stay fixed. *)
let run_parallel ~sink ?timeout ~trials ~domains params mk_strategy =
  let base = trials / domains and rem = trials mod domains in
  let chunk d =
    (* Domains [0, rem) take one extra trial each. *)
    let lo = (d * base) + min d rem in
    let len = base + if d < rem then 1 else 0 in
    (lo, len)
  in
  let workers =
    List.init domains (fun d ->
        let lo, len = chunk d in
        Domain.spawn (fun () ->
            ( lo,
              Array.init len (fun j ->
                  (* A raising trial must not leave the whole experiment
                     half-filled: capture per trial and rethrow after all
                     domains have joined. *)
                  match run_one ~sink ?timeout params mk_strategy (lo + j) with
                  | r -> Ok r
                  | exception e -> Error (e, Printexc.get_raw_backtrace ())) )))
  in
  let slots = Array.make trials (Error (Exit, Printexc.get_raw_backtrace ())) in
  List.iter
    (fun w ->
      let lo, results = Domain.join w in
      Array.blit results 0 slots lo (Array.length results))
    workers;
  (* Rethrow the lowest-index failure so the surfaced error does not
     depend on domain scheduling. *)
  Array.map
    (function
      | Ok r -> r
      | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
    slots

let run_all ?(trials = 10) ?(domains = 1) ?sink ?trial_timeout (params : Params.t)
    mk_strategy =
  if trials < 1 then invalid_arg "Runner.run_all: trials < 1";
  if domains < 1 then invalid_arg "Runner.run_all: domains < 1";
  let domains = min domains trials in
  (* DHTLB_TRACE_OUT's sink is suffixed per trial like an explicit one.
     It is read here, before any domain starts: forcing the lazy value
     from two domains at once would raise [Lazy.Undefined]. *)
  let sink = match sink with Some s -> s | None -> Trace.sink_of_env () in
  if domains = 1 then
    Array.init trials (run_one ~sink ?timeout:trial_timeout params mk_strategy)
  else run_parallel ~sink ?timeout:trial_timeout ~trials ~domains params mk_strategy

let factors ?trials ?domains params mk_strategy =
  Array.map (fun r -> r.Engine.factor) (run_all ?trials ?domains params mk_strategy)

(* Steady-state aggregation discards the first half of each trial's
   measurement windows as warm-up (the queue starts from the initial
   batch, not from equilibrium) and averages the remainder — first
   within a trial, then across trials.  NaN windows (nothing completed)
   are skipped; all-NaN stays NaN, which Json_out renders as null. *)
let mean_finite xs =
  let sum = ref 0.0 and count = ref 0 in
  Array.iter
    (fun x ->
      if not (Float.is_nan x) then begin
        sum := !sum +. x;
        incr count
      end)
    xs;
  if !count = 0 then Float.nan else !sum /. float_of_int !count

let steady_mean results field =
  mean_finite
    (Array.map
       (fun (r : Engine.result) ->
         let w = r.Engine.steady in
         let n = Array.length w in
         mean_finite (Array.map field (Array.sub w (n / 2) (n - (n / 2)))))
       results)

let aggregate_of (params : Params.t) results =
  let open_system = Arrivals.enabled params.Params.arrivals in
  (* Timed-out trials carry no meaningful makespan, factor or counters —
     they stopped wherever the wall clock caught them — so they are
     counted separately and excluded from every mean below rather than
     poisoning it.  [trials] still reports the full attempt count. *)
  let all_trials = Array.length results in
  let timed_out_n =
    Array.fold_left
      (fun acc (r : Engine.result) ->
        match r.Engine.outcome with
        | Engine.Timed_out _ -> acc + 1
        | Engine.Finished _ | Engine.Aborted _ -> acc)
      0 results
  in
  let results =
    Array.of_list
      (List.filter
         (fun (r : Engine.result) ->
           match r.Engine.outcome with
           | Engine.Timed_out _ -> false
           | Engine.Finished _ | Engine.Aborted _ -> true)
         (Array.to_list results))
  in
  let counted = Array.length results in
  let mean_or_nan a = if Array.length a = 0 then Float.nan else Descriptive.mean a in
  let factors = Array.map (fun r -> r.Engine.factor) results in
  let ticks =
    Array.map
      (fun r ->
        match r.Engine.outcome with
        | Engine.Finished t | Engine.Aborted t | Engine.Timed_out t ->
          float_of_int t)
      results
  in
  let summary =
    if counted = 0 then
      {
        Descriptive.n = 0;
        mean = Float.nan;
        median = Float.nan;
        stddev = Float.nan;
        min = Float.nan;
        max = Float.nan;
      }
    else Descriptive.summarize factors
  in
  (* Aborted trials report the safety cap as their tick count, so the
     mixed means above under-state how slow a capped configuration really
     is.  The [*_finished] means drop those trials; [nan] when every
     trial aborted (Json_out renders nan as null). *)
  let is_finished r =
    match r.Engine.outcome with
    | Engine.Finished _ -> true
    | Engine.Aborted _ | Engine.Timed_out _ -> false
  in
  let finished_results = Array.of_list (List.filter is_finished (Array.to_list results)) in
  let finished = Array.length finished_results in
  let mean_over f =
    if finished = 0 then Float.nan
    else Descriptive.mean (Array.map f finished_results)
  in
  (* An open-system run always lasts exactly [horizon] ticks, so the
     whole makespan-factor family — mixed, spread, and the finished-only
     repair for capped trials — measures nothing: conflating "finished
     the batch" with "reached the horizon" once produced factor tables
     for streaming runs that merely restated horizon / ideal.  Those
     fields are NaN for open systems (null in JSON); the steady-state
     fields are NaN for batch runs symmetrically. *)
  let batch_only v = if open_system then Float.nan else v in
  let steady field = if open_system then steady_mean results field else Float.nan in
  {
    trials = all_trials;
    open_system;
    mean_factor = batch_only summary.Descriptive.mean;
    stddev_factor = batch_only summary.Descriptive.stddev;
    min_factor = batch_only summary.Descriptive.min;
    max_factor = batch_only summary.Descriptive.max;
    mean_ticks = mean_or_nan ticks;
    mean_ideal =
      mean_or_nan (Array.map (fun r -> float_of_int r.Engine.ideal) results);
    aborted = counted - finished;
    finished;
    timed_out = timed_out_n;
    mean_factor_finished = batch_only (mean_over (fun r -> r.Engine.factor));
    mean_ticks_finished =
      batch_only
        (mean_over (fun r ->
             match r.Engine.outcome with
             | Engine.Finished t | Engine.Aborted t | Engine.Timed_out t ->
               float_of_int t));
    mean_messages =
      mean_or_nan
        (Array.map (fun r -> float_of_int (Messages.total r.Engine.messages)) results);
    mean_tasks_lost =
      mean_or_nan
        (Array.map
           (fun r -> float_of_int r.Engine.messages.Messages.tasks_lost)
           results);
    mean_arrived =
      (if open_system then
         mean_or_nan
           (Array.map (fun r -> float_of_int r.Engine.arrived_total) results)
       else Float.nan);
    steady_queue_p50 = steady (fun w -> w.Steady.queue_p50);
    steady_queue_p95 = steady (fun w -> w.Steady.queue_p95);
    steady_queue_p99 = steady (fun w -> w.Steady.queue_p99);
    steady_sojourn_p50 = steady (fun w -> w.Steady.sojourn_p50);
    steady_sojourn_p95 = steady (fun w -> w.Steady.sojourn_p95);
    steady_sojourn_p99 = steady (fun w -> w.Steady.sojourn_p99);
  }

let run_trials ?trials ?domains ?sink ?trial_timeout params mk_strategy =
  aggregate_of params (run_all ?trials ?domains ?sink ?trial_timeout params mk_strategy)

let pp_aggregate ppf a =
  if a.open_system then begin
    Format.fprintf ppf
      "trials=%d ticks=%.1f arrived=%.1f queue p50/p95/p99=%.1f/%.1f/%.1f \
       sojourn p50/p95/p99=%.1f/%.1f/%.1f msgs=%.0f"
      a.trials a.mean_ticks a.mean_arrived a.steady_queue_p50 a.steady_queue_p95
      a.steady_queue_p99 a.steady_sojourn_p50 a.steady_sojourn_p95
      a.steady_sojourn_p99 a.mean_messages;
    if a.mean_tasks_lost > 0.0 then
      Format.fprintf ppf " lost=%.1f" a.mean_tasks_lost;
    if a.timed_out > 0 then Format.fprintf ppf " timed-out=%d" a.timed_out
  end
  else begin
    Format.fprintf ppf
      "trials=%d factor=%.3f±%.3f [%.3f, %.3f] ticks=%.1f ideal=%.1f \
       aborted=%d msgs=%.0f"
      a.trials a.mean_factor a.stddev_factor a.min_factor a.max_factor
      a.mean_ticks a.mean_ideal a.aborted a.mean_messages;
    if a.mean_tasks_lost > 0.0 then
      Format.fprintf ppf " lost=%.1f" a.mean_tasks_lost;
    if a.timed_out > 0 then Format.fprintf ppf " timed-out=%d" a.timed_out;
    if a.aborted > 0 && a.finished > 0 then
      Format.fprintf ppf " finished-only: factor=%.3f ticks=%.1f (%d trials)"
        a.mean_factor_finished a.mean_ticks_finished a.finished
  end
