(** Machine-readable exports of experiment results (CSV / JSON). *)

val table1_csv : Initial_distribution.table1_row list -> string
val lookup_hops_csv : Lookup_hops.row list -> string
val maintenance_csv : Maintenance.row list -> string
val failure_recovery_csv : Failure_recovery.row list -> string

val steady_csv : Steady.window array -> string
(** One open-system run's measurement windows: arrival/completion rates,
    queue and sojourn percentiles, Sybil-count extremes per window.  NaN
    sojourn cells (no completions in the window) export as empty. *)

val work_timeline_csv : Work_timeline.series list -> string

val trace_csv : Trace.t -> string
(** Per-tick series of one run: tick, work done, remaining, active
    machines, vnodes. *)

val metrics_json : Metrics.report -> Json_out.t
(** Per-phase timings and GC deltas of one run. *)

val result_json : Engine.result -> Json_out.t
(** One simulation result as a JSON object (outcome, factor, messages,
    work-per-tick mean; traces are exported separately as CSV).  Gains a
    ["metrics"] object when the run had metrics enabled; the shape is
    unchanged otherwise. *)

val aggregate_json : label:string -> Runner.aggregate -> Json_out.t
