(** Size-augmented balanced search trees.

    A persistent [Stdlib.Set] with O(1) [cardinal], O(log n) rank access
    ([nth]) and rank extraction, and [split]/[union] O(log n)-ish.  The
    DHT's per-vnode task store no longer uses it ({!Dht} packs each
    vnode's keys into one byte buffer); it backs {!Id_set}, which
    MapReduce's reduce sets and [Keygen.fresh_distinct] use.
    [take_random_n] is the reference for the store's draw contract:
    ranks drawn with shrinking bounds over the keys in order. *)

module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

module Make (Ord : ORDERED) : sig
  type elt = Ord.t
  type t

  val empty : t
  val is_empty : t -> bool
  val cardinal : t -> int
  (** O(1). *)

  val mem : elt -> t -> bool
  val add : elt -> t -> t
  val remove : elt -> t -> t
  val singleton : elt -> t
  val min_elt_opt : t -> elt option
  val max_elt_opt : t -> elt option

  val take_min : t -> (elt * t) option
  (** [take_min t] removes and returns the smallest element. *)

  val split : elt -> t -> t * bool * t
  (** [split x t] is [(lt, present, gt)] partitioning [t] around [x]. *)

  val union : t -> t -> t
  val fold : (elt -> 'a -> 'a) -> t -> 'a -> 'a
  val iter : (elt -> unit) -> t -> unit
  val elements : t -> elt list
  val of_list : elt list -> t

  val nth : t -> int -> elt
  (** [nth t i] is the [i]-th smallest element (0-based); O(log n).
      @raise Invalid_argument if [i] is out of bounds. *)

  val extract_rank : t -> int -> elt * t
  (** [extract_rank t i] removes and returns the [i]-th smallest element
      in a single root-to-leaf pass (one descent where [nth] + [remove]
      costs two). @raise Invalid_argument if [i] is out of bounds. *)

  val extract_ranks : t -> int list -> elt list * t
  (** [extract_ranks t ranks] removes the elements at the given ranks
      (which must be strictly increasing and in bounds) in one tree pass;
      returns them in rank order.  O(|ranks| · log(n/|ranks| + 1) + log n).
      @raise Invalid_argument on unsorted or out-of-bounds ranks. *)

  val take_random_n : rand:(int -> int) -> t -> int -> elt list * t
  (** [take_random_n ~rand t n] removes [min n (cardinal t)] elements
      sampled without replacement, calling [rand c], [rand (c-1)], ... on
      the shrinking count — exactly the draws a [nth]/[remove]
      one-at-a-time loop makes, so results are stream-compatible with the
      loop it replaces — but performs all removals in a single tree pass.
      @raise Invalid_argument if [rand] returns out of [0, bound). *)

  val check_invariants : t -> unit
  (** Validates balance, size counters and ordering; raises
      [Invalid_argument] on violation.  For tests. *)
end
