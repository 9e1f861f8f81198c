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
  let threshold = params.Params.sybil_threshold in
  let messages = Dht.messages state.State.dht in
  State.iter_decision_candidates state
    (fun (p : State.phys) ->
      if
        p.State.active && State.can_decide state p.State.pid
        && Decision.due state p
      then begin
        let pid = p.State.pid in
        let w = State.workload_of_phys state pid in
        if
          (* Same overload bar as Invitation: the frozen setup mean for
             batch runs, the live mean under continuous arrivals. *)
          Invitation.is_overloaded ~workload:w
            ~invite_factor:params.Params.invite_factor
            ~initial_mean:(State.load_reference state)
        then begin
          match Invitation.heaviest_vnode p with
          | None | Some (_, 0) | Some (_, 1) ->
            () (* nothing worth splitting: both halves must be nonempty *)
          | Some (heavy_id, heavy_count) -> begin
            let k = params.Params.num_successors in
            let succs =
              List.filter
                (fun (vn : State.payload Dht.vnode) ->
                  vn.Dht.payload.State.owner <> pid)
                (Dht.k_successors state.State.dht heavy_id k)
            in
            (* One announcement reaches k successors; one reply-outcome
               draw per successor in walk order (nearest first), the
               heard ones each charged a workload query.  [`Delayed]
               still lands before the next decision period. *)
            messages.Messages.invitations <- messages.Messages.invitations + k;
            let heard =
              List.filter
                (fun (vn : State.payload Dht.vnode) ->
                  match
                    State.reply_outcome state
                      ~from_pid:vn.Dht.payload.State.owner
                  with
                  | `Ok | `Delayed -> true
                  | `Dropped -> false)
                succs
            in
            messages.Messages.workload_queries <-
              messages.Messages.workload_queries + List.length heard;
            (* A qualifying helper is idle enough AND holds exactly its
               primary presence: relocation moves the whole machine, so
               a Sybil portfolio (or an attacker's eclipse block) stays
               where it is. *)
            let candidates =
              List.filter
                (fun (vn : State.payload Dht.vnode) ->
                  let hpid = vn.Dht.payload.State.owner in
                  State.workload_of_phys state hpid <= threshold
                  && State.sybil_count state hpid = 0)
                heard
            in
            let helper =
              Invitation.choose_helper
                (List.map
                   (fun (vn : State.payload Dht.vnode) ->
                     let hpid = vn.Dht.payload.State.owner in
                     (hpid, State.workload_of_phys state hpid))
                   candidates)
            in
            match helper with
            | None -> () (* reassignment refused *)
            | Some (hpid, _) -> begin
              match Dht.find state.State.dht heavy_id with
              | None -> assert false (* the machine's own record *)
              | Some heavy ->
                let split =
                  Dht.key_at heavy (split_rank ~count:heavy_count)
                in
                (* A split landing on an occupied id (the helper itself
                   sits there, or another vnode does) refuses the move:
                   [relocate_phys] re-checks and declines without
                   drawing or charging. *)
                ignore (State.relocate_phys state hpid ~id:split)
            end
          end
        end
      end)

let strategy () = { Engine.name = "range-reassign"; decide }
