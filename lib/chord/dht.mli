(** A Chord DHT with key ownership and ChordReduce-style key transfer.

    Every virtual node (vnode) owns the keys in the arc between its
    predecessor and itself.  Following the paper's "active, aggressive
    backup" assumption, joins and leaves move keys synchronously and
    losslessly:

    - a vnode joining at [x] takes the keys in [(pred(x), x]] from its
      successor;
    - a vnode leaving hands its remaining keys to its successor.

    The payload type ['a] carries simulator state (e.g. which physical
    node owns the vnode).  The structure is mutable.  Vnodes sit in one
    ordered index of fixed-capacity chunks (id order, wrap-aware as on
    the Chord circle): every lookup is one O(log n) search, a join or
    leave adds a shift of at most one chunk (plus the size of any key
    range moved), and the [k_*] walks add [k] steps.  Message costs are
    charged to the embedded {!Messages.t}.

    The index is updated in place, so {!iter}, {!fold} and {!insert_keys}
    see no snapshot: their callbacks must not {!join}, {!leave} or
    {!crash} (reading the ring and changing a vnode's keys is fine). *)

type 'a vnode = private {
  id : Id.t;
  mutable nkeys : int;  (** keys (tasks) currently held; read it as {!load} *)
  mutable packed : Bytes.t;
      (** the keys, [nkeys] 20-byte ids packed back to back in ascending
          id order, spare capacity zero-filled; read them through
          {!key_at} and {!iter_keys} *)
  payload : 'a;
}
(** A vnode's task keys live inline in its record, so a consume is one
    rank draw and one [Bytes.blit], and a join or leave cuts or splices
    a byte range.  An empty vnode holds no buffer. *)

type 'a t

val create : unit -> 'a t

val messages : 'a t -> Messages.t

val size : 'a t -> int
(** Number of vnodes. *)

val total_keys : 'a t -> int
(** Keys currently stored across all vnodes; O(1). *)

val find : 'a t -> Id.t -> 'a vnode option
(** The member with this id, if any; one search. *)

val join : 'a t -> id:Id.t -> payload:'a -> ('a vnode, [ `Occupied ]) result
(** Insert a vnode.  If the ring is non-empty the newcomer immediately
    acquires its share of its successor's keys. *)

val leave : 'a t -> Id.t -> (unit, [ `Not_member | `Last_node ]) result
(** Remove a vnode, handing its keys to its successor.  Refuses to remove
    the last vnode, even a keyless one ([`Last_node]): the paper's
    networks never drain completely because joins and leaves balance,
    and a ring emptied by a leave would have no owner for the next
    inserted key. *)

type keys
(** The keys a crashed vnode held, detached from the ring. *)

val keys_count : keys -> int
val keys_iter : (Id.t -> unit) -> keys -> unit
(** Visits the keys in ascending id order. *)

val crash : 'a t -> Id.t -> (keys, [ `Not_member ]) result
(** Ungraceful removal: the vnode vanishes with {e no} key handover and
    its keys leave the store ([total_keys] drops by their count).  The
    keys are returned so the caller can either {!restore} them from
    surviving replicas or account them lost.  A crash never asks
    permission, so — unlike {!leave} — the last vnode can crash and
    empty the ring.  Charges one leave (the departure is still observed
    by the ring). *)

val restore : 'a t -> near:Id.t -> keys -> int
(** [restore t ~near keys] re-inserts a crashed vnode's keys at their
    current owner: the first surviving vnode clockwise of [near] (the
    crashed vnode's id), which owns the whole vacated arc.  Returns the
    number of keys moved and charges each as a [key_transfers] fetch
    from the replica holder.  No-op on an empty key set; [keys] itself
    stays readable.
    @raise Invalid_argument if keys are given and the ring is empty. *)

val insert_key : 'a t -> Id.t -> (unit, [ `Empty_ring | `Duplicate ]) result
(** Store a key on its owner (the first vnode clockwise of the key): a
    search plus a shift.  [`Duplicate] means the owner already holds it;
    a copy that {!transfer_keys} moved to another vnode is not seen, so
    a caller that admits keys after transfers must check liveness
    itself. *)

val insert_keys : 'a t -> Id.t array -> (int, [ `Empty_ring ]) result
(** Bulk [insert_key]: stores every key of the batch on its owner and
    returns the number actually inserted.  Duplicate keys — within the
    batch or already stored — are dropped, as repeated [insert_key]
    calls would drop them.  One sort, then each vnode arc's slice of the
    sorted batch is packed straight into its store: O(b log b + n log b)
    for a batch of [b] keys over [n] vnodes, rather than [b] owner
    lookups and inserts. *)

val owner_of : 'a t -> Id.t -> 'a vnode option
(** The vnode responsible for a key. *)

val consume_vnode : pick:(int -> int) -> 'a t -> 'a vnode -> int -> int
(** [consume_vnode ~pick t vn n] completes up to [n] of vnode [vn]'s
    tasks and returns the number actually completed.  [pick c] chooses
    the index (in key order) of the next task to complete among the [c]
    remaining.  The argument is required because the choice is
    load-bearing: Sybil arc placement reasons about how keys are spread
    within arcs, so simulations must pass a uniform pick (a silent
    always-leftmost default would skew the remaining-key distribution).
    It draws [pick c], [pick (c-1)], ... and removes the key at each
    drawn rank from the shrinking store as it goes, one [Bytes.blit]
    each — exactly a per-key nth/remove loop — and allocates nothing.

    [vn] is a record the caller already holds ({!find} gives one by id)
    and must be a current ring member (the engine keeps each machine's
    records in sync with its ring presence); a departed record has been
    emptied, so consuming it is a harmless no-op rather than
    corruption.
    @raise Invalid_argument if [pick] returns an index out of range. *)

val consume_vnode_keys : pick:(int -> int) -> 'a t -> 'a vnode -> int -> Id.t list
(** {!consume_vnode}, but returns the completed keys themselves (in
    ascending id order) instead of just their count — the open-system
    engine needs the identities to settle each task's sojourn ledger
    entry.  Same draws, same removals; [consume_vnode] is this with
    [List.length]. *)

val transfer_keys :
  pick:(int -> int) -> 'a t -> src:'a vnode -> dst:'a vnode -> int -> int
(** [transfer_keys ~pick t ~src ~dst n] moves up to [n] randomly-picked
    tasks from [src] to [dst] {e without} changing key ownership — the
    diffusive balancing primitive.  Draws like {!consume_vnode}: one
    [pick c] per taken key, bounds c, c-1, ...  Returns the number of
    tasks actually moved and charges each to [work_transfers];
    [total_keys] is unchanged (conservation).  No draws and no charge
    when [n <= 0], [src] is empty, or [src == dst].  A picked key that
    [dst] already holds stays with [src] (never silently collapsed).
    After the first transfer, keys may legitimately live outside their
    holder's arc; {!check_invariants} relaxes accordingly.
    @raise Invalid_argument if [pick] returns an index out of range. *)

val workload : 'a t -> Id.t -> int
(** Tasks currently owned by a vnode; [0] if not a member.  One
    {!find}. *)

val load : 'a vnode -> int
(** Tasks the vnode record holds; O(1). *)

val key_at : 'a vnode -> int -> Id.t
(** [key_at vn i] is the vnode's [i]-th smallest key (0-based).
    @raise Invalid_argument if [i] is not below {!load}. *)

val iter_keys : (Id.t -> unit) -> 'a vnode -> unit
(** Visits the vnode's keys in ascending id order.  [f] must not change
    this vnode's keys. *)

(** The navigation below means exactly what the same names mean on
    {!Ring}: clockwise is increasing id, wrapping past [2^160 - 1]. *)

val arc_of : 'a t -> Id.t -> Interval.t option
(** A member's responsibility arc [(predecessor, id]]; [None] for a
    non-member.  A lone member's arc starts and ends at itself (the full
    ring). *)

val successor : 'a t -> Id.t -> 'a vnode option
(** First member strictly clockwise of the id (a lone member is its own
    successor); [None] only on an empty ring. *)

val predecessor : 'a t -> Id.t -> 'a vnode option
(** First member strictly counterclockwise of the id. *)

val k_successors : 'a t -> Id.t -> int -> 'a vnode list
(** Up to [min k (size - 1)] members clockwise of the id, nearest first,
    never the id itself. *)

val k_predecessors : 'a t -> Id.t -> int -> 'a vnode list
(** {!k_successors} counterclockwise. *)

val iter : ('a vnode -> unit) -> 'a t -> unit
(** Visits every vnode in ascending id order.  [f] must not join, leave
    or crash vnodes: the walk runs over the live index. *)

val fold : ('a vnode -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** {!iter} with an accumulator; the same no-mutation contract. *)

val vnode_ids : 'a t -> Id.t list

val check_invariants : 'a t -> unit
(** Asserts the index's structural laws — no empty chunk, every chunk's
    cached last prefix equal to its last slot's, every slot's prefix the
    prefix of its vnode's id, ids strictly ascending across chunk
    boundaries, [size] equal to the number of slots, every member found
    by a search — then the key stores' laws (keys strictly ascending,
    the buffer large enough, its spare zero-filled, no buffer on an
    empty vnode), that key counts are consistent and — while no
    work transfer has happened ([work_transfers = 0]) — every key owned
    by the correct vnode.  O(n·keys); for tests and [DHTLB_CHECK]. *)
