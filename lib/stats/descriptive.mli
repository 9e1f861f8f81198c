(** Descriptive statistics over workload samples.

    Inputs are non-negative integer workloads (tasks per node) or floats
    (runtime factors).  All functions are total over non-empty inputs and
    raise [Invalid_argument] on empty input, because a silent NaN in an
    experiment table is worse than a crash. *)

type summary = {
  n : int;
  mean : float;
  median : float;
  stddev : float;  (** population standard deviation, as in the paper *)
  min : float;
  max : float;
}

val mean : float array -> float
val mean_int : int array -> float

val median : float array -> float
(** Median with even-length averaging; does not mutate its input. *)

val median_int : int array -> float

val stddev : float array -> float
(** Population standard deviation (√(Σ(x-μ)²/n)). *)

val stddev_int : int array -> float

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [0, 100], linear interpolation between
    order statistics; does not mutate its input. *)

val order_percentile : what:string -> int -> (int -> float) -> float -> float
(** [order_percentile ~what n nth p]: {!percentile} of [n] samples whose
    [k]-th smallest (0-based) is [nth k].  Every percentile in the repo
    goes through this one interpolation, so two sample stores that read
    the same order statistics agree bit for bit.
    @raise Invalid_argument (naming [what]) if [n < 1] or [p] is outside
    [0, 100]. *)

val summarize : float array -> summary
val summarize_int : int array -> summary

val pp_summary : Format.formatter -> summary -> unit
