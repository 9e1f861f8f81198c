(** Identifier and key generation.

    The paper generates node ids and task keys "by feeding random numbers
    into the SHA1 hash function"; {!fresh} reproduces that pipeline
    deterministically from a {!Prng.t}.  {!even_ids} produces the
    perfectly spaced placement of Figure 3, and {!zipf} provides the
    skewed popularity model the paper invokes when describing workload
    shape. *)

val fresh : Prng.t -> Id.t
(** SHA-1 of the next 16 random bytes: one fresh 160-bit id. *)

val fresh_distinct : Prng.t -> Id_set.t -> Id.t
(** A fresh id guaranteed not to collide with the given set (retries;
    collisions are astronomically unlikely but joins require unique
    ring positions). *)

val node_ids : Prng.t -> int -> Id.t array
(** [node_ids rng n] draws [n] distinct node ids. *)

val task_keys : Prng.t -> int -> Id.t array
(** [task_keys rng m] draws [m] distinct task keys. *)

val even_ids : int -> Id.t array
(** [even_ids n]: ids at fractions [k/n] of the ring, [k = 0..n-1] —
    the idealized placement of Figure 3. *)

type zipf
(** A Zipf distribution's table: the prefix sums of its truncated
    harmonic weights, built once and shared by every draw. *)

val zipf_table : n:int -> s:float -> zipf
(** [zipf_table ~n ~s] tabulates Zipf([s]) over the ranks [1..n] in
    O([n]).
    @raise Invalid_argument if [n < 1] or [s < 0]. *)

val zipf : Prng.t -> zipf -> int
(** [zipf rng table] samples a 1-based rank by inverse CDF: one
    {!Prng.float_unit} draw scaled by the normaliser, then a binary
    search of the prefix sums, O(log n). *)
