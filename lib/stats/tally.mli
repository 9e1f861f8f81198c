(** A multiset of small non-negative integers, held as counts per value.

    The open system's sojourn samples are whole ticks bounded by the
    horizon, so a count per value is both smaller and faster than the
    samples themselves: adding one is an array increment, and a
    percentile reads its order statistics from cumulative counts instead
    of sorting.  {!percentile} and {!mean} return exactly what
    {!Descriptive.percentile} and {!Descriptive.mean} return over the
    same samples as floats. *)

type t

val create : unit -> t
(** An empty tally.  The count array grows to the largest value added,
    so an unused tally costs a few words. *)

val add : t -> int -> unit
(** Count one sample.
    @raise Invalid_argument on a negative sample. *)

val clear : t -> unit
(** Forget every sample, keeping the count array for reuse. *)

val length : t -> int
(** The number of samples counted. *)

val percentile : t -> float -> float
(** [percentile t p], through {!Descriptive.order_percentile}: the same
    interpolation between the same order statistics as
    {!Descriptive.percentile}, so bit-identical to it.
    @raise Invalid_argument on an empty tally or [p] outside [0, 100]. *)

val mean : t -> float
(** The exact integer sum divided once by the count.  This equals
    {!Descriptive.mean}'s left-to-right float fold bit for bit as long
    as every partial sum stays below 2{^53}, where the fold is exact
    too.  A sum of sojourns, each at most the horizon, always does.
    @raise Invalid_argument on an empty tally. *)

val to_list : t -> (int * int) list
(** Ascending [(value, count)] pairs, each count positive. *)
