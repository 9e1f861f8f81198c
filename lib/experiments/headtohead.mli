(** The ChordReduce leg of the head-to-head comparison, whose grid is
    {!Sweep.head_to_head}: warm each strategy's ring, then run a
    word-count MapReduce ({!Mapreduce.word_count}) over the resulting
    vnode set and report the per-phase makespans the balancing families
    are supposed to shrink. *)

type makespan = {
  ms_strategy : Strategy.t;
  warm_vnodes : int;  (** ring size after the warm-up ticks *)
  map_makespan : int;
  reduce_makespan : int;
  total_makespan : int;
}

val families : Strategy.t list
(** Default [none; random; invitation; diffusive; range-reassign] — one
    representative per family plus the no-balancing floor. *)

val makespans :
  ?seed:int ->
  ?nodes:int ->
  ?tasks:int ->
  ?warm_ticks:int ->
  ?families:Strategy.t list ->
  unit ->
  makespan list
(** The ChordReduce leg: one warmed ring and one word-count job per
    family, on a deterministic corpus. *)

val print_makespans : makespan list -> string

val makespans_json : makespan list -> Json_out.t
(** One object per family, for the head-to-head JSON export. *)
