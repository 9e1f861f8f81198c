(** Invitation (paper §IV-D) — the reactive strategy.

    Instead of idle nodes hunting for work, an {e overburdened} machine
    (workload above [invite_factor × tasks/nodes]) announces for help to
    its [num_successors] predecessors.  The least-loaded predecessor whose
    workload is at or below [sybil_threshold] — and which still has Sybil
    capacity — injects a Sybil into the inviter's arc, taking over roughly
    half of it.  An invitation is refused when no predecessor qualifies,
    matching §IV-D.

    With [params.split_at_median] the helper splits at the inviter's
    median task key (an exact halving of the load) instead of the arc
    midpoint — an extension measured as an ablation. *)

val strategy : unit -> Engine.strategy

(** {1 Pure decision rules}

    Exposed so the reference oracle (lib/oracle) replays literally the
    same handshake.  Both folds keep the {e first} extremum, so list
    order — vnode order for the inviter, nearest-predecessor-first for
    helpers — is part of the rule. *)

val is_overloaded :
  workload:int -> invite_factor:float -> initial_mean:float -> bool
(** Strictly above [invite_factor × (tasks / nodes)]. *)

val pick_heaviest_vnode : ('a * int) list -> ('a * int) option
(** The inviter's ring presence holding the most tasks (first wins ties). *)

val choose_helper : ('a * int) list -> ('a * int) option
(** The least-loaded qualifying predecessor (nearest wins ties). *)

val heaviest_vnode : State.phys -> (Id.t * int) option
(** {!pick_heaviest_vnode} over a machine's live vnode list:
    [(id, task count)] of its heaviest ring presence.  Shared with the
    range-reassignment strategy, which splits the same vnode an
    invitation would have split. *)

val announce :
  State.t ->
  int ->
  neighbors:
    (State.payload Dht.t -> Id.t -> int -> State.payload Dht.vnode list) ->
  qualifies:(int -> bool) ->
  Id.t ->
  (int * int) option
(** [announce state pid ~neighbors ~qualifies id] runs one invitation
    handshake for machine [pid]'s vnode [id]: announce to the
    [num_successors] machines [neighbors] walks from [id] ([pid]'s own
    vnodes skipped; [num_successors] [invitations] charged), hear their
    replies ({!State.heard}, a late reply counts; one [workload_queries]
    charge per reply heard), and return the least-loaded heard machine
    at or below [sybil_threshold] that [qualifies], as
    [(pid, workload)] — {!choose_helper}'s pick.  Shared with the
    range-reassignment strategy, which announces to successors. *)
