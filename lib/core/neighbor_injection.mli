(** Neighbor Injection (paper §IV-C).

    An under-utilized machine scans the arcs of its [num_successors]
    successors and injects a Sybil at the midpoint of the {e widest} arc —
    a zero-message estimate of "most work".  The {!Smart} variant instead
    queries each successor's true workload (charged as messages) and
    splits the heaviest successor's arc, trading bandwidth for accuracy
    exactly as §VI-C discusses.

    With [params.avoid_repeats] set, a machine remembers arcs where a
    Sybil acquired nothing and skips them on later decisions — the
    refinement §IV-C suggests to break the "constantly checking the
    largest gap" loop.

    Under a fault plan ({!Faults.t}) the Smart variant degrades
    gracefully: a query round times out when any reply is dropped or
    straggles past the tick, the machine retries after
    {!Faults.backoff} ticks (suppressing its regular decisions while it
    waits), and when [retry_budget] is exhausted it falls back to the
    zero-message {!Estimate} rule — same arc the dumb rule would pick —
    that same tick.  The Estimate variant never sends queries, so only
    the partition gate ({!State.can_decide}) affects it. *)

type variant = Estimate | Smart

val strategy : variant -> unit -> Engine.strategy

(** {1 Pure decision rules}

    Exposed so the reference oracle (lib/oracle) replays literally the
    same selection over its own naive structures.  Both folds keep the
    {e first} maximum, so candidate order (successor-list order, nearest
    first) is part of the rule. *)

val pick_widest : (Interval.t * 'a) list -> (Interval.t * 'a) option
(** The widest arc (zero-message estimate); ties go to the nearest. *)

val pick_heaviest :
  load:(Interval.t * 'a -> int) ->
  (Interval.t * 'a) list ->
  (Interval.t * 'a) option
(** The arc whose owner reports the most tasks (Smart variant); ties go
    to the nearest. *)

val successor_arcs :
  State.t -> int -> Id.t -> (Interval.t * State.payload Dht.vnode) list
(** [successor_arcs state pid self_id] is what machine [pid] sees from
    its vnode [self_id]: walking the [num_successors] successor list
    [s0; s1; ...], successor [s_i] owns the arc from the previous entry
    (or [self_id] for [s0]) up to [s_i].  Arcs of the machine's own
    vnodes are dropped.  Nearest first.  Shared with strength-aware
    injection. *)
