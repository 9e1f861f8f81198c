(** Multi-trial experiment runner.

    The paper reports averages over (typically 100) trials; each trial
    here reruns the same parameters with a derived seed so trials are
    independent but the whole experiment is reproducible. *)

type aggregate = {
  trials : int;
  open_system : bool;
      (** [true] iff the trials ran under an enabled arrival plan — the
          makespan-factor family below is NaN then, and the steady-state
          family is NaN otherwise.  The two regimes measure different
          things; conflating them once produced "factor" tables for
          streaming runs that merely restated [horizon / ideal]. *)
  mean_factor : float;  (** NaN for open-system trials *)
  stddev_factor : float;
  min_factor : float;
  max_factor : float;
  mean_ticks : float;
      (** mixed mean run length; for open systems this is exactly the
          plan's horizon *)
  mean_ideal : float;
  aborted : int;  (** trials that hit the safety cap (always 0 open) *)
  finished : int;
      (** trials that actually completed
          ([trials - aborted - timed_out]) *)
  timed_out : int;
      (** trials stopped by the wall-clock watchdog ([?trial_timeout]);
          excluded from {e every} mean in this record — a timed-out
          trial stopped wherever the clock caught it, so folding its
          partial counters into a mean would poison it.  Always 0
          without a timeout, keeping aggregates bit-identical to the
          watchdog-free harness. *)
  mean_factor_finished : float;
      (** mean factor over finished trials only — the mixed [mean_factor]
          folds each aborted trial in at the cap, understating slowness;
          [nan] when every trial aborted, and for open-system trials
          (every trial "finishes" at the horizon by construction, so a
          finished-only mean is vacuous there) *)
  mean_ticks_finished : float;  (** ditto for ticks; [nan] if none finished *)
  mean_messages : float;  (** mean total messages per trial *)
  mean_tasks_lost : float;
      (** mean tasks genuinely lost per trial — 0 unless live replication
          is on ([Params.replicas > 0]) and whole replica groups died *)
  mean_arrived : float;
      (** mean tasks accepted by the arrival process; NaN for batch *)
  steady_queue_p50 : float;
      (** steady-state aggregates: each trial's {e second half} of
          measurement windows (first half discarded as warm-up) is
          averaged, then trials are averaged.  NaN for batch runs, and
          for sojourn fields when no window saw a completion. *)
  steady_queue_p95 : float;
  steady_queue_p99 : float;
  steady_sojourn_p50 : float;
  steady_sojourn_p95 : float;
  steady_sojourn_p99 : float;
}

val run_trials :
  ?trials:int ->
  ?domains:int ->
  ?sink:Trace.sink ->
  ?trial_timeout:float ->
  Params.t ->
  (unit -> Engine.strategy) ->
  aggregate
(** [run_trials ~trials params mk_strategy] runs [trials] (default 10)
    independent simulations, building a fresh strategy per trial (some
    strategies carry per-run state).  Trial [i] uses seed
    [params.seed + i].

    [domains] (default 1) runs trials on that many OCaml 5 domains in
    parallel (capped at [trials]); trials are fully independent (fresh
    state and PRNG each), so results are bit-identical to the sequential
    run regardless of the domain count.  If a trial raises, every domain
    is still joined and the exception of the lowest-numbered failing
    trial is rethrown with its backtrace, independent of scheduling.

    [sink] (default {!Trace.sink_of_env}) gives every trial its own
    trace sink; file sinks are suffixed with the trial index
    ({!Trace.sink_for_trial}: [trace.csv] becomes [trace.0.csv],
    [trace.1.csv], ...), so multi-trial — and
    multi-domain — runs can stream traces without colliding on one
    path.  [trial_timeout] arms the per-trial wall-clock watchdog
    ({!Engine.run}'s [timeout]): a hung trial stops between ticks with
    [Timed_out] and is recorded in the aggregate's [timed_out] count
    instead of poisoning the means; trial seeding, ordering and the
    domain partition are unaffected, so the harness stays deterministic
    (the {e set} of timed-out trials is of course machine-dependent —
    that is what a wall-clock watchdog measures).
    @raise Invalid_argument if [trials < 1] or [domains < 1]. *)

val run_all :
  ?trials:int ->
  ?domains:int ->
  ?sink:Trace.sink ->
  ?trial_timeout:float ->
  Params.t ->
  (unit -> Engine.strategy) ->
  Engine.result array
(** The raw per-trial results behind {!run_trials} (same seeding,
    parallelism, sinks and watchdog), for experiments that read counters
    the aggregate does not carry.  [aggregate_of params (run_all ...
    params mk)] is exactly [run_trials ... params mk]. *)

val aggregate_of : Params.t -> Engine.result array -> aggregate
(** Fold raw trial results into an {!aggregate}.  [params] must be the
    parameter record the trials ran under (it decides the open-system
    split). *)

val stride_seed : base:int -> trials:int -> index:int -> int
(** [stride_seed ~base ~trials ~index] is the base seed for the
    [index]-th cell of a sweep whose cells each run [trials] trials:
    [base + index * max 1 trials].  Because trial [i] of a cell runs on
    [cell_seed + i], stepping cell bases by anything less than [trials]
    makes adjacent cells share trial seeds — their rows are then
    correlated, not independent.  Sweep experiments must derive per-cell
    seeds through this helper; see [docs/TESTING.md]. *)

val factors :
  ?trials:int -> ?domains:int -> Params.t -> (unit -> Engine.strategy) ->
  float array
(** Raw per-trial runtime factors, for distribution-level assertions. *)

val pp_aggregate : Format.formatter -> aggregate -> unit
