(** Mutable simulation state: the DHT, the physical machines behind its
    virtual nodes, and the churn waiting pool.

    A {e physical node} is a machine; it is [active] when it participates
    in the ring and waiting otherwise.  An active node always has a
    primary vnode and may run additional Sybil vnodes.  Work lives in the
    DHT: a physical node's workload is the sum of the tasks owned by all
    its ring presences.

    Per the paper's churn model there are [2 × nodes] physical machines:
    the initial network plus an equal-sized waiting pool; machines move
    between the two sets at [churn_rate] per tick. *)

type payload = { owner : int }
(** DHT vnode payload: index of the owning physical node. *)

type admission = private { adm_id : Id.t; ready : int; from_attack : bool }
(** A pending Sybil admission under the puzzle defense
    ([Params.puzzle_cost > 0]): the vnode id requested, the tick its
    puzzle is solved, and whether the request came through the
    adversarial injection path (for the [attack_joins] ledger). *)

type phys = private {
  pid : int;
  strength : int;  (** 1 in homogeneous networks *)
  original_id : Id.t;  (** id at first join; reused if [rejoin_fresh_id=false] *)
  straggler : bool;  (** replies arrive [straggle_delay] ticks late *)
  malicious : bool;
      (** drawn at setup from the attack stream iff the plan is enabled;
          malicious machines inject eclipse Sybils and starve honest
          work while the attack window is active *)
  mutable active : bool;
  mutable vnodes : payload Dht.vnode list;
      (** head = primary vnode; rest = Sybils.  Live ring records, not
          ids: the per-tick consume/workload paths touch every machine,
          and an id-to-record lookup per touch dominated the tick at
          100k+ nodes.  Kept in strict sync with ring membership — a
          departed record is dropped here and emptied by the DHT. *)
  mutable failed_arcs : Interval.t list;
      (** arcs that yielded no work (neighbor injection, avoid_repeats) *)
  mutable retry_attempts : int;
      (** failed smart-query attempts so far (0 = none in flight) *)
  mutable retry_at : int;  (** tick of the next retry; -1 = none pending *)
  mutable puzzle : admission option;
      (** the machine's single in-flight admission; always [None] with
          the defense off, cleared on leave/crash *)
}

type repl
(** Live replica map ([Params.replicas > 0] only): which ring vnodes
    hold a backup of each vnode's tasks, plus the dirty set of vnodes
    the next repair pass must visit.  Opaque; query through
    {!replica_holders}. *)

type t = private {
  params : Params.t;
  dht : payload Dht.t;
  phys : phys array;  (** indices [0, nodes)] start active; rest waiting *)
  rng : Prng.t;
  frng : Prng.t;
      (** dedicated fault stream ({!Faults.rng}); never mixes with [rng],
          so [Faults.none] runs are bit-identical to a fault-free build *)
  arng : Prng.t;
      (** dedicated arrival stream ({!Arrivals.rng}, the third stream);
          never mixes with [rng] or [frng], so {!Arrivals.none} runs are
          bit-identical to an arrivals-free build *)
  krng : Prng.t;
      (** dedicated attack stream ({!Attack.rng}, the fourth stream);
          never mixes with the others, so {!Attack.none} runs are
          bit-identical to an adversary-free build *)
  partitioned : int;  (** pid cut off during the partition window; -1 = none *)
  attackers : int list;
      (** pids of the malicious machines, ascending; [[]] without an
          enabled attack plan *)
  repl : repl option;  (** [Some] iff [Params.recovery_on params] *)
  initial_mean : float;  (** tasks / nodes at start *)
  initial_tasks : int;  (** keys actually stored at setup (conservation) *)
  hot_centers : Id.t array;
      (** hotspot centers for [Arrivals.Hot] key placement, drawn from
          the arrival stream at setup; [[||]] otherwise *)
  birth : (Id.t, int) Hashtbl.t;
      (** open system only: arrival tick of every stored task (initial
          batch = 0); entries close on completion or accounted loss, so
          the table tracks exactly the live key population *)
  sojourn_hist : (int, int) Hashtbl.t;
      (** open system only: sojourn (ticks, inclusive) -> completions
          with that sojourn — the run-level ledger the oracle matches *)
  mutable tick : int;
  mutable work_done_total : int;
  mutable n_active : int;
      (** cached count of active machines, maintained at every
          join/leave/crash; {!active_count} reads it in O(1) instead of
          folding the phys array once per tick for the trace *)
  mutable arrived_total : int;
      (** tasks accepted by {!apply_arrivals} over the whole run
          (stored or counted lost; door-dropped duplicates excluded) *)
  mutable tick_sojourns : int list;
      (** sojourns settled during the current tick's consume phase, for
          the steady-state window collector; reset at each consume *)
}

val create : Params.t -> t
(** Build the initial network: [nodes] active machines with SHA-1 ids
    owning [tasks] SHA-1 keys, plus [nodes] waiting machines.
    @raise Invalid_argument if {!Params.validate} rejects the params. *)

(** {1 Queries} *)

val remaining_tasks : t -> int
val active_count : t -> int
val vnode_count : t -> int

val workload_of_phys : t -> int -> int
(** Total tasks across all ring presences of a physical node. *)

val capacity_of_phys : t -> int -> int
(** Tasks the node can complete per tick (1 or [strength]). *)

val sybil_count : t -> int -> int
val sybil_capacity : t -> int -> int
(** [max_sybils] when homogeneous, [strength] when heterogeneous. *)

val workloads_snapshot : t -> int array
(** Per-active-physical-node workloads, for the histogram figures. *)

val strengths_of_initial : t -> int array
(** Strengths of the initially active machines (for ideal runtime). *)

(** {1 Mutation} *)

val consume_tick : t -> int
(** Every active machine completes up to its capacity in tasks; returns
    total work done this tick. *)

val transfer_work :
  t -> src:payload Dht.vnode -> dst:payload Dht.vnode -> int -> int
(** [transfer_work t ~src ~dst n] moves up to [n] randomly-picked tasks
    from [src] to [dst] without changing key ownership — the diffusive
    balancing primitive ({!Dht.transfer_keys}).  Draws one
    [Prng.int_below] per moved task on the {e main strategy stream}
    (bounds c, c-1, ..., like consumption) at the point in the decide
    scan where the call happens; the oracle replays the same draws.
    Returns the number of tasks moved, each charged to
    [work_transfers]; total keys are conserved.  No draws when [n <= 0],
    [src] is empty, or [src == dst]. *)

val relocate_phys : t -> int -> id:Id.t -> bool
(** [relocate_phys t pid ~id] makes machine [pid] give up its current
    ring position and rejoin at [id] — range reassignment through the
    existing leave/join machinery, so keys move by ownership change.
    Acts only when the machine is active with exactly its primary
    presence (no Sybils) and [id] is free; consumes no strategy-stream
    draws.  Charges the leave, the join, both key handovers, and the
    join's lookup hops at the post-leave ring size.  [false] — no
    charges, no state change — when refused (Sybils held, target
    occupied, or the leaver is the ring's last vnode). *)

val create_sybil : t -> int -> Id.t -> bool
(** [create_sybil t pid id] joins a Sybil vnode for machine [pid] at
    [id]; charges the join's expected lookup hops.  [false] if the id is
    occupied, the machine is inactive, or it is at its Sybil cap.

    With the admission defense on ([Params.puzzle_cost > 0]) a [true]
    return means the request was {e accepted}, not that the vnode is in
    the ring: the machine starts its puzzle (one [puzzles] charge, plus
    the lookup it would pay anyway) and the join lands in
    {!process_admissions} [puzzle_cost] ticks later — or never, if the
    machine departs or the id fills meanwhile.  A machine with an
    admission already in flight is refused ([false]): the tax serializes
    Sybil creation per machine. *)

val retire_sybils : t -> int -> unit
(** All of the machine's Sybils leave the ring (keys hand over). *)

val leave_phys : t -> int -> unit
(** Graceful departure of a whole machine: Sybils retire, then the
    primary leaves with key handover.  The primary stays (and the
    machine remains active) only if it is the ring's last vnode. *)

val join_phys : t -> int -> unit
(** A waiting machine rejoins at a fresh id ([rejoin_fresh_id]) or its
    original one.  Lookup hops are charged {e only when the join lands};
    a refused rejoin ([`Occupied], possible only with pinned identities)
    is a free retry — see docs/TESTING.md's message-accounting
    contract. *)

val fail_phys : t -> int -> unit
(** Ungraceful death.  With [replicas = 0] (the paper's assumed-reliable
    data plane): all vnodes depart without handover and the keys the
    machine held are re-fetched from successor-list replicas, charging
    [key_transfers] for each; if the departure is refused (the ring's
    last vnode) the machine stays and {e nothing} is charged.
    With [replicas > 0] the machine dies as a one-machine crash event:
    each vnode's tasks are recovered from the live replica map iff a
    holder outlives the event (a [key_transfers] fetch per task) and
    charged to [tasks_lost] otherwise — and there is no last-node
    protection, because a crash does not ask permission. *)

val apply_churn : t -> unit
(** One tick of churn: active machines leave gracefully with probability
    [churn_rate] or die ungracefully with probability [failure_rate]
    ({!fail_phys} semantics — assumed-reliable recovery at
    [replicas = 0], live replica recovery otherwise), and waiting
    machines join at a fresh or original id at the combined rate.
    No-op when both rates are 0. *)

val replica_holders : t -> Id.t -> Id.t list
(** Current replica holders of a vnode's tasks (never including the
    vnode itself; at most [replicas]); [[]] when recovery is off or the
    id is unknown. *)

val repair_replicas : t -> unit
(** The lazy repair pass (engine hook; no-op when [replicas = 0]).
    Every [repair_lag] ticks, restore each dirty vnode's holder list to
    its current [replicas] ring successors in ascending-vnode order:
    already-enrolled holders carry over free, each missing one costs a
    copy of the vnode's current tasks (one [replications] charge per
    task) and, under a [repl_drop] plan, one fault-stream bernoulli
    that can postpone the enrolment to the next pass (the vnode stays
    dirty).  Every join, graceful leave, crash event and relocation
    marks dirty the [replicas] predecessors of the changed position,
    the joiner, and a graceful leaver's successor; every other vnode
    already holds exactly its successors, so the full walk the oracle
    runs would draw, charge and change nothing there.  The pass costs
    O(dirty), not O(ring). *)

val apply_arrivals : t -> int
(** One tick of the arrival process (no-op returning 0 under
    {!Arrivals.none}): draw the tick's Poisson count at the profile's
    current rate, then per arriving task draw its key and route it to
    its owner (one expected-hops lookup charge, like any other routed
    operation).  Returns the number of tasks {e accepted} — stored, or
    arrived-to-an-empty-ring and charged to [tasks_lost] (reachable only
    after a total wipeout with live replication on).  A key already
    stored is dropped at the door: not accepted, not charged beyond the
    lookup that discovered the collision.  All randomness is on the
    dedicated arrival stream; the draw-order contract is mirrored
    verbatim by the oracle (docs/TESTING.md). *)

val process_admissions : t -> unit
(** Settle due admission puzzles, ascending pid order (engine hook; a
    draw-free no-op when [Params.puzzle_cost = 0]).  Each due slot is
    cleared and its vnode joined — adversarial admissions additionally
    charge [attack_joins].  A slot whose id filled while solving
    ([`Occupied]) is simply wasted; departures already cleared theirs. *)

val apply_attack : t -> unit
(** One tick of the adversary (no-op under {!Attack.none}).  While the
    plan's window covers the current tick, each still-active malicious
    machine — ascending pid order — injects Sybils into the targeted
    arc: with the defense off, [strength] immediate cap-bypassing joins
    per tick (one attack-stream draw each); with it on, one placement
    draw iff the machine's admission slot is free (the puzzle tax
    throttles even the adversary).  The tick the window closes, every
    still-active malicious machine crashes in one event ({!fail_phys}
    semantics).  All randomness is on the dedicated attack stream; the
    draw-order contract is mirrored verbatim by the oracle
    (docs/TESTING.md). *)

val load_reference : t -> float
(** The overload bar Invitation measures workloads against: the frozen
    setup mean ([initial_mean], the paper's rule) for batch runs, the
    live mean load per active machine for open-system runs (a fixed
    total is meaningless under continuous arrivals). *)

val sojourn_ledger : t -> (int * int) list
(** The sojourn histogram as a sorted [(sojourn, completions)] list —
    the run-level ledger compared bit-for-bit against the oracle.
    Empty for batch runs. *)

val advance_tick : t -> unit
(** Increment the tick counter (engine use). *)

val iter_decision_candidates : t -> (phys -> unit) -> unit
(** Visit, in ascending pid order, every machine whose decision logic
    could possibly act this tick; the strategy keeps its own [active] /
    {!can_decide} / [Decision.due] guards on the visited machines.
    Under an enabled fault plan this visits {e all} machines (smart-query
    retries fire off the regular cadence, and only a fault plan can
    create them); otherwise only the machines passing [Decision.due] are
    visited — with a staggered cadence that is every [period]-th pid, so
    a decision sweep costs O(n / period) instead of scanning the whole
    machine array to discard the not-due majority.  Strategies must not
    act on a machine outside its due tick except for fault-driven
    retries, or the skipped visits would change behavior. *)

(** {1 Faults}

    All fault randomness draws from the dedicated [frng] stream; the
    draw-order contract is mirrored verbatim by the oracle (see
    docs/TESTING.md).  Every helper is a cheap no-op under
    {!Faults.none}. *)

val is_partitioned : t -> int -> bool
(** The machine is the partition victim and the window covers the
    current tick: its control messages are lost in both directions. *)

val can_decide : t -> int -> bool
(** Strategies gate their per-machine decision on this: a partitioned
    machine cannot coordinate, so its decisions are suppressed for the
    window — and a malicious machine runs no honest balancing logic
    while its attack plan is active. *)

val heard :
  t -> late_ok:bool -> ('a -> payload Dht.vnode) -> 'a list -> 'a list
(** [heard t ~late_ok vnode candidates] is one query round's replies:
    the candidates, in order, whose reply from [vnode c]'s owner
    arrives.  Every candidate's reply takes its fate in order, even
    after a miss (the queries went out in parallel): a partitioned
    sender is lost with no draw; otherwise the reply is lost with
    probability [drop] (one fault-stream draw iff [0 < drop < 1]); a
    straggler's late reply then counts iff [late_ok].  Each lost reply
    charges [dropped].  Data-plane traffic (joins, key transfers,
    recovery) never passes through here — faults cannot lose keys. *)

val charge_retry : t -> unit
(** Bump the [retries] diagnostic counter (one re-sent query round). *)

val apply_crash_bursts : t -> unit
(** If the plan schedules a burst at the current tick, fail [count]
    machines drawn without replacement from the currently active ones,
    in fault-stream draw order ({!fail_phys} each — recovery traffic is
    charged and the last-key-holder protection applies).  Selection goes
    through [Sample.indices] (Fenwick rank selection), which consumes
    the same fault-stream draws and picks the same victims as the naive
    shrinking-list loop the oracle still runs — see docs/TESTING.md. *)

val retry_pending : t -> int -> bool
(** A smart-query retry is scheduled (suppresses the machine's regular
    decision dues until it fires). *)

val retry_due : t -> int -> bool
(** The scheduled retry fires at or before the current tick. *)

val smart_retry_attempts : t -> int -> int

val note_query_timeout : t -> int -> bool
(** Record one failed query round.  Returns [true] when the attempt just
    exceeded [retry_budget] — state is cleared and the caller must fall
    back to the dumb estimate rule; [false] schedules the next retry at
    [tick + backoff(attempts - 1)]. *)

val clear_smart_retry : t -> int -> unit
(** Forget any in-flight retry (called on success or fallback). *)

val note_failed_arc : t -> int -> Interval.t -> unit
val arc_recently_failed : t -> int -> Interval.t -> bool

val check_invariants : t -> unit
(** DHT invariants plus phys/vnode cross-consistency.  For tests. *)

val check_tick_invariants : t -> unit
(** {!check_invariants} plus the conservation and accounting laws:

    - {b key conservation}: [work_done_total + remaining + tasks_lost =
      initial_tasks + arrived_total] — handovers, failure recovery and
      open-system injection never lose or duplicate a task silently;
    - {b arrival laws}: open system — the birth table tracks exactly the
      stored keys and the sojourn histogram settles exactly one entry
      per completion; closed system — the arrival state never moves;
    - {b ownership rule}: every key lies in its owner vnode's arc, and
      every ring vnode belongs to exactly one active machine (via
      {!check_invariants});
    - {b Sybil caps}: no machine exceeds [max_sybils] (homogeneous) or
      its strength (heterogeneous) — except malicious machines under an
      enabled attack plan, whose injection path bypasses the cap by
      design;
    - {b attack laws}: without a plan, no machine is malicious and
      [attack_joins] is pinned to zero; with one, [attack_joins <=
      joins] and the attacker list matches the per-machine flags;
    - {b admission laws}: with the defense off, no admission slot exists
      and [puzzles] is pinned to zero; with it on, slots live only on
      active machines with deadlines within [puzzle_cost] of now;
    - {b holder-map laws} ([replicas > 0]): one holder list per ring
      vnode, each at most [replicas] distinct live ring vnodes other
      than its owner, the reverse index their exact inverse, and every
      vnode outside the repair pass's dirty set backed by exactly its
      [replicas] ring successors, in order;
    - {b ring-presence accounting}: ring size equals the sum of the
      machines' vnode lists;
    - {b message accounting}: [joins - leaves] equals the ring size.

    O(nodes + keys).  The engine runs this after every tick when
    {!Params.check_requested} (set [check_every_tick] or [DHTLB_CHECK=1]).
    @raise Invalid_argument on the first violated invariant. *)

(** Deterministic hand-built states for edge-case tests. *)
module For_testing : sig
  val build :
    params:Params.t ->
    machines:(int * Id.t list) array ->
    keys:Id.t list ->
    t
  (** [build ~params ~machines ~keys] constructs a state with exactly the
      given machines — [(strength, vnodes)] with the head vnode primary,
      [[]] meaning a waiting machine — and the given task keys.  The
      machine array need not match [params.nodes]; [initial_mean] is
      still [params.tasks / params.nodes], which lets tests steer the
      Invitation overload bar independently of the keys placed.  Tests
      only: simulations must use {!create}.
      @raise Invalid_argument on duplicate vnode ids, an all-waiting
      machine array with keys, or invalid [params]. *)

  val rewrite_holders : ?reindex:bool -> t -> Id.t -> Id.t list -> unit
  (** [rewrite_holders t id hs] sets [id]'s replica holder list to [hs]
      verbatim, adding an entry when [id] has none — a way to break a
      holder-map law on purpose.  The reverse index follows the new list
      unless [~reindex:false].  Tests only.
      @raise Invalid_argument when replication is off. *)
end
