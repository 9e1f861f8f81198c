(* Diffusive load balancing (Douglas & Harwood; strategy 9) — the
   first non-Sybil competitor.  Each decision period a machine compares
   its queue length with its two ring neighbors and pushes work down the
   steepest gradient: up to half the difference moves to the lighter
   side, charged per task to [work_transfers].  No identities are spent
   and no ownership changes — the tasks simply sit on the neighbor until
   consumed.

   Pure decision rules, shared with the reference oracle.  The fold
   keeps the FIRST minimum, so candidate order — successor first, then
   predecessor — is part of the rule. *)

(* Half the gradient, rounded toward zero; never negative (integer
   division of a negative difference would otherwise send -1). *)
let transfer_amount ~own ~neighbor = max 0 ((own - neighbor) / 2)

(* The lighter neighbor; ties go to the successor (first in list). *)
let pick_lighter (candidates : ('a * int) list) =
  List.fold_left
    (fun best (c, w) ->
      match best with
      | Some (_, bw) when bw <= w -> best
      | _ -> Some (c, w))
    None candidates

(* The machine's view is deliberately local and naive: only the primary
   vnode's immediate ring neighbors (successor, then predecessor) are
   candidates, and neighbors the machine itself owns are of no use.
   When successor and predecessor coincide (a 2-vnode ring) the single
   neighbor is considered once. *)
let neighbor_candidates (state : State.t) pid self_id =
  let dht = state.State.dht in
  let keep (vn : State.payload Dht.vnode) =
    if vn.Dht.payload.State.owner = pid then None else Some vn
  in
  let succ = Option.bind (Dht.successor dht self_id) keep in
  let pred = Option.bind (Dht.predecessor dht self_id) keep in
  match (succ, pred) with
  | Some s, Some p when Id.equal s.Dht.id p.Dht.id -> [ s ]
  | Some s, Some p -> [ s; p ]
  | Some s, None -> [ s ]
  | None, Some p -> [ p ]
  | None, None -> []

let decide (state : State.t) =
  let messages = Dht.messages state.State.dht in
  State.iter_decision_candidates state
    (fun (p : State.phys) ->
      if
        p.State.active && State.can_decide state p.State.pid
        && Decision.due state p
      then
        match p.State.vnodes with
        | [] -> ()
        | self :: _ -> (
          let candidates = neighbor_candidates state p.State.pid self.Dht.id in
          (* One workload query per neighbor, sent in parallel.  A
             straggler's late reply still lands before the next decision
             period; a dropped one leaves that neighbor invisible this
             round. *)
          messages.Messages.workload_queries <-
            messages.Messages.workload_queries + List.length candidates;
          match
            pick_lighter
              (List.map
                 (fun (vn : State.payload Dht.vnode) -> (vn, Dht.load vn))
                 (State.heard state ~late_ok:true Fun.id candidates))
          with
          | None -> ()
          | Some (dst, neighbor) ->
            let n = transfer_amount ~own:(Dht.load self) ~neighbor in
            if n > 0 then ignore (State.transfer_work state ~src:self ~dst n)))

let strategy () = { Engine.name = "diffusive"; decide }
