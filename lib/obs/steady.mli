(** Windowed steady-state collector for open-system runs.

    A batch run is judged by makespan; an open-system run (continuous
    arrivals over a fixed horizon) is judged by its {e steady-state}
    behaviour: how long tasks wait, how deep the queue sits, how hard
    the strategy's Sybil population oscillates as the load swings.  The
    engine feeds this collector once per tick; the collector folds the
    samples into fixed-length windows, each summarized by O(1) numbers —
    memory stays bounded by one window of per-tick samples, a {!Tally}
    of the window's sojourns, and one small record per closed window,
    in the spirit of the ring-buffer trace sinks.  Every percentile and
    mean is bit-identical to {!Descriptive}'s over the same samples. *)

type window = {
  index : int;  (** 0-based window number *)
  start_tick : int;  (** first tick covered *)
  ticks : int;  (** window length; the trailing window may be partial *)
  arrivals : int;  (** tasks accepted into the system this window *)
  completions : int;  (** tasks completed this window *)
  arrival_rate : float;  (** arrivals / ticks *)
  completion_rate : float;  (** completions / ticks *)
  queue_p50 : float;  (** percentiles of the per-tick queue length… *)
  queue_p95 : float;
  queue_p99 : float;  (** …(tasks stored after the tick) *)
  sojourn_p50 : float;
      (** percentiles of the sojourns (arrival to completion, inclusive,
          in ticks) of the tasks completed this window; NaN when nothing
          completed (rendered as null in JSON) *)
  sojourn_p95 : float;
  sojourn_p99 : float;
  sojourn_mean : float;  (** NaN when nothing completed *)
  sybil_min : int;  (** extremes and mean of the per-tick Sybil count… *)
  sybil_max : int;
  sybil_mean : float;
      (** …(ring vnodes minus active machines) — [max - min] inside one
          window is the strategy-stability signal: does the Sybil
          population oscillate under load swings? *)
}

type t

val create : window:int -> t
(** A collector closing one window every [window] ticks ([>= 1]).
    @raise Invalid_argument on a non-positive window. *)

val note :
  t ->
  arrivals:int ->
  completions:int ->
  queue:int ->
  sybils:int ->
  sojourns:int list ->
  unit
(** Record one tick: tasks accepted, tasks completed, queue length after
    the tick, current Sybil count, and the sojourns of the tasks that
    completed this tick. *)

val windows : t -> window array
(** All windows so far, in order, including a trailing partial window if
    ticks have accumulated since the last close ([ticks] tells).
    Read-only — callable mid-run. *)
