(** Per-tick series and workload snapshots recorded during a run.

    The paper reports "average work per tick and statistical information
    about how the tasks are distributed" plus detailed early-tick
    histograms; this module captures exactly that.

    Points flow into a pluggable {!sink}.  The default [Memory] sink
    keeps the whole series (the historical behaviour); [Ring n] bounds
    trace memory to the last [n] points no matter how long (or how
    aborted) the run; [Csv_file]/[Jsonl_file] stream every point to disk
    without retaining any; [Null] discards them.  Aggregates
    ({!work_per_tick_mean}, {!recorded}) are maintained incrementally
    and are exact under every sink. *)

type point = {
  tick : int;
  work_done : int;  (** tasks completed this tick *)
  remaining : int;  (** tasks left after this tick *)
  active_nodes : int;
  vnodes : int;
}

type sink =
  | Memory  (** keep every point in memory (default; O(ticks)) *)
  | Ring of int  (** keep only the last [n] points (O(n)) *)
  | Csv_file of string
      (** stream rows to a CSV file (same bytes as [Export.trace_csv]);
          nothing retained in memory *)
  | Jsonl_file of string  (** stream one JSON object per line *)
  | Null  (** aggregates only *)

val sink_of_string : string -> (sink, string) result
(** Parse [memory], [null], [ring:N], [csv:PATH] or [jsonl:PATH].  A
    file sink's [PATH] must take a new file ([Atomic_write.writable]),
    so a bad path is refused before any run opens it. *)

val sink_of_env : unit -> sink
(** The [DHTLB_TRACE_OUT] process-wide default (read once); [Memory]
    when unset or blank.
    @raise Invalid_argument ([invalid DHTLB_TRACE_OUT: ...]) on a value
    {!sink_of_string} refuses. *)

type t

val create : ?sink:sink -> snapshot_at:int list -> unit -> t
(** [sink] defaults to {!sink_of_env}.  File sinks open (and truncate)
    their path immediately; call {!close} when recording ends.  One
    trace owns one file — concurrent runs must use distinct paths. *)

val sink : t -> sink

val sink_for_trial : sink -> trial:int -> sink
(** Suffix a file sink's path with the trial index before the final
    extension ([trace.csv] becomes [trace.3.csv]; an extensionless
    [trace] becomes [trace.3]) so each trial of a multi-trial run
    streams to its own file.  Memory/ring/null sinks pass through
    unchanged. *)

type persist
(** The marshalable slice of a trace: sink selection, incremental
    aggregates ({!recorded}, {!work_per_tick_mean}), and the snapshot
    cursor plus captured snapshots.  Open file channels and the
    memory/ring point stores stay behind — see {!resume}. *)

val persist : t -> persist
(** Capture the checkpointable view of the trace (cheap; no copy of
    recorded points). *)

val resume : ?sink:sink -> persist -> t
(** Rebuild a live trace from a checkpointed view; [sink] (default: the
    persisted one) lets a resume redirect output.  Aggregates and
    snapshots continue exactly where the checkpoint left them.  File
    sinks reopen in {e append} mode, so rows streamed before the
    checkpoint survive (a missing CSV file gets its header rewritten);
    memory and ring stores restart empty — points recorded before the
    checkpoint are not revived, only their aggregates, so {!points} on
    a resumed memory trace holds the post-resume suffix. *)

val record : t -> point -> unit

val close : t -> unit
(** Flush and close a file sink (idempotent; no-op for the others).
    Points recorded after [close] still update the aggregates but are
    not written. *)

val maybe_snapshot : t -> State.t -> unit
(** Capture the per-node workload distribution if the state's current
    tick is one of [snapshot_at] (each tick captured at most once).
    Ticks must be presented in non-decreasing order — the engine's loop
    guarantees this — because the lookup is a cursor over the sorted
    request list, not a scan. *)

val points : t -> point array
(** The retained points, oldest first: everything for [Memory], the
    last [n] for [Ring n], and [[||]] for the streaming and null sinks
    (their points live on disk / nowhere).  Compare with {!recorded} to
    detect truncation. *)

val recorded : t -> int
(** Total points ever recorded, independent of the sink. *)

val snapshots : t -> (int * int array) list
(** [(tick, workloads)] pairs in capture order. *)

val snapshot_at_tick : t -> int -> int array option

val work_per_tick_mean : t -> float
(** Average tasks completed per tick over the whole run (every recorded
    point, even those a bounded sink has dropped); 0 for empty traces. *)
