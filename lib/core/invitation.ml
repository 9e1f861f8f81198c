(* Pure decision rules, shared with the reference oracle.  Both folds
   keep the FIRST extremum, so list order — vnode order for the inviter,
   nearest-predecessor-first for helpers — is part of the rule. *)

let is_overloaded ~workload ~invite_factor ~initial_mean =
  float_of_int workload > invite_factor *. initial_mean

(* The ring presence holding the most tasks: the natural place for an
   overloaded machine to ask for relief.  Input in vnode-list order. *)
let pick_heaviest_vnode (vnodes : ('a * int) list) =
  List.fold_left
    (fun best (id, w) ->
      match best with
      | Some (_, bw) when bw >= w -> best
      | _ -> Some (id, w))
    None vnodes

(* The least-loaded qualifying predecessor; ties go to the nearest. *)
let choose_helper (candidates : ('a * int) list) =
  List.fold_left
    (fun best (h, hw) ->
      match best with
      | Some (_, bw) when bw <= hw -> best
      | _ -> Some (h, hw))
    None candidates

let heaviest_vnode (p : State.phys) =
  pick_heaviest_vnode
    (List.map
       (fun (vn : State.payload Dht.vnode) ->
         (vn.Dht.id, Dht.load vn))
       p.State.vnodes)

let split_point (state : State.t) inviter_id arc =
  if state.State.params.Params.split_at_median then
    match Dht.find state.State.dht inviter_id with
    | Some vn when Dht.load vn > 1 ->
      (* The Sybil takes the arc up to the median key, i.e. half the
         inviter's actual tasks rather than half its address space. *)
      Dht.key_at vn ((Dht.load vn / 2) - 1)
    | _ -> Interval.midpoint arc
  else Interval.midpoint arc

(* One announcement round from machine [pid] about its vnode [id]: the
   invitation reaches the [num_successors] ring neighbors [neighbors]
   walks from [id], all charged as [invitations].  Under a fault plan a
   round-trip can be lost (one outcome draw per neighbor, nearest first
   — mirrored by the oracle): a dropped neighbor never replies, so it is
   neither charged a workload query nor considered as a helper.  A
   straggler's late reply still lands before the next decision period,
   so it counts.  If every round-trip drops, the still-overloaded
   machine simply re-announces at its next decision. *)
let announce (state : State.t) pid ~neighbors ~qualifies id =
  let params = state.State.params in
  let messages = Dht.messages state.State.dht in
  let k = params.Params.num_successors in
  let others =
    List.filter
      (fun (vn : State.payload Dht.vnode) -> vn.Dht.payload.State.owner <> pid)
      (neighbors state.State.dht id k)
  in
  messages.Messages.invitations <- messages.Messages.invitations + k;
  let heard = State.heard state ~late_ok:true Fun.id others in
  messages.Messages.workload_queries <-
    messages.Messages.workload_queries + List.length heard;
  choose_helper
    (List.filter_map
       (fun (vn : State.payload Dht.vnode) ->
         let hpid = vn.Dht.payload.State.owner in
         let w = State.workload_of_phys state hpid in
         if w <= params.Params.sybil_threshold && qualifies hpid then
           Some (hpid, w)
         else None)
       heard)

let decide (state : State.t) =
  let params = state.State.params in
  State.iter_decision_candidates state
    (fun (p : State.phys) ->
      if
        p.State.active && State.can_decide state p.State.pid
        && Decision.due state p
      then begin
        let pid = p.State.pid in
        let w = State.workload_of_phys state pid in
        if Random_injection.should_retire ~workload:w ~sybils:(State.sybil_count state pid)
        then State.retire_sybils state pid;
        if
          (* The bar is the frozen setup mean for batch runs and the
             live mean under continuous arrivals ([State.load_reference]
             — identical to [initial_mean] when arrivals are off). *)
          is_overloaded ~workload:w ~invite_factor:params.Params.invite_factor
            ~initial_mean:(State.load_reference state)
        then
          match heaviest_vnode p with
          | None | Some (_, 0) -> ()
          | Some (inviter_id, _) -> (
            let qualifies h =
              State.sybil_count state h < State.sybil_capacity state h
            in
            match
              announce state pid ~neighbors:Dht.k_predecessors ~qualifies
                inviter_id
            with
            | None -> () (* invitation refused *)
            | Some (hpid, _) -> (
              match Dht.arc_of state.State.dht inviter_id with
              | None -> ()
              | Some arc ->
                let id = split_point state inviter_id arc in
                ignore (State.create_sybil state hpid id)))
      end)

let strategy () = { Engine.name = "invitation"; decide }
