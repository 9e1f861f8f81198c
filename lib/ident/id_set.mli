(** Sets of ring identifiers with ring-aware range operations.

    Extends {!Ordset} over {!Id} with arc extraction: a wrap-aware split
    of a set at the clockwise arc [(after, upto]], the same cut a Chord
    join makes in its successor's keys. *)

include module type of Ordset.Make (Id)

val split_arc : Interval.t -> t -> t * t
(** [split_arc arc t] is [(inside, outside)] where [inside] holds exactly
    the elements of [t] lying in the clockwise arc.  O(log n) up to
    rebalancing.  The full-ring arc returns everything inside. *)
