(* Range reassignment (Chawachat & Fakcharoenphol; strategy 10) — the
   second non-Sybil competitor.  An overloaded machine announces to the
   successors of its heaviest vnode, exactly like Invitation — but the
   chosen helper, instead of spending a Sybil identity, gives up its own
   ring position and rejoins at a split point inside the overloaded
   vnode's arc ([State.relocate_phys]).  Keys move by ownership change
   through the ordinary leave/join machinery: no Sybils, no work
   transfers, no new counters.

   Pure split arithmetic, shared with the reference oracle and the
   property suite. *)

(* The helper rejoins at the key of this rank: the join carves the arc
   up to and including the median key, so the helper takes exactly
   [count / 2] tasks and the inviter keeps [count - count / 2] >= 1.
   Meaningful only for [count >= 2] (the decide rule never splits a
   lighter vnode). *)
let split_rank ~count = (count / 2) - 1

(* (helper's share, inviter's share) after a split of [count] tasks —
   both sides provably nonempty for [count >= 2]. *)
let split_sizes ~count = (count / 2, count - (count / 2))

let decide (state : State.t) =
  let params = state.State.params in
  State.iter_decision_candidates state
    (fun (p : State.phys) ->
      if
        p.State.active && State.can_decide state p.State.pid
        && Decision.due state p
        (* Same overload bar as Invitation: the frozen setup mean for
           batch runs, the live mean under continuous arrivals. *)
        && Invitation.is_overloaded
          ~workload:(State.workload_of_phys state p.State.pid)
          ~invite_factor:params.Params.invite_factor
          ~initial_mean:(State.load_reference state)
      then
        match Invitation.heaviest_vnode p with
        | None | Some (_, 0) | Some (_, 1) ->
          () (* nothing worth splitting: both halves must be nonempty *)
        | Some (heavy_id, heavy_count) -> (
          (* Invitation's handshake, announced to the successors.  A
             qualifying helper holds exactly its primary presence:
             relocation moves the whole machine, so a Sybil portfolio
             (or an attacker's eclipse block) stays where it is. *)
          match
            Invitation.announce state p.State.pid ~neighbors:Dht.k_successors
              ~qualifies:(fun h -> State.sybil_count state h = 0)
              heavy_id
          with
          | None -> () (* reassignment refused *)
          | Some (hpid, _) -> (
            match Dht.find state.State.dht heavy_id with
            | None -> assert false (* the machine's own record *)
            | Some heavy ->
              (* A split landing on an occupied id (the helper itself
                 sits there, or another vnode does) refuses the move:
                 [relocate_phys] re-checks and declines without drawing
                 or charging. *)
              let split = Dht.key_at heavy (split_rank ~count:heavy_count) in
              ignore (State.relocate_phys state hpid ~id:split))))

let strategy () = { Engine.name = "range-reassign"; decide }
