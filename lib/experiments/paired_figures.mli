(** Figures 4–14: workload-distribution histograms of two networks with
    identical initial configurations, snapshotted at the beginning of a
    given tick.

    "Identical starting configuration" is literal: both arms are built
    from the same seed, so node ids and task keys coincide and only the
    strategy differs — exactly the paper's paired comparisons. *)

type arm = { label : string; params : Params.t; strategy : Strategy.t }

type spec = {
  fig : int;
  title : string;
  arms : arm list;
  at_tick : int;
}

val specs : spec list
(** Specifications for Figures 4 through 14, built at the default seed. *)

val render : seed:int -> spec -> string * string
(** Simulate every arm once at [seed]; return the overlaid histogram table and
    the same histograms as CSV.  An arm that finished before the
    snapshot tick is noted in the table and left out of both; the CSV
    is empty when no arm reached the tick. *)
