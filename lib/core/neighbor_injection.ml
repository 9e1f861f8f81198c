type variant = Estimate | Smart

(* Pure selection rules, shared with the reference oracle.  Both folds
   keep the FIRST maximum, so the candidate order — successor-list order,
   nearest first — is part of the decision rule and must be preserved by
   any reimplementation. *)

let pick_widest (candidates : (Interval.t * 'a) list) =
  match candidates with
  | [] -> None
  | hd :: tl ->
    Some
      (List.fold_left
         (fun (best_arc, best_vn) (arc, vn) ->
           if Interval.compare_width arc best_arc > 0 then (arc, vn)
           else (best_arc, best_vn))
         hd tl)

let pick_heaviest ~load (candidates : (Interval.t * 'a) list) =
  match candidates with
  | [] -> None
  | hd :: tl ->
    Some (List.fold_left (fun best c -> if load c > load best then c else best) hd tl)

(* The arcs a machine can see locally: walking its successor list
   [s0; s1; ...], successor [s_i] owns the arc from the previous list
   entry (or from the machine itself for [s0]) up to [s_i].  Arcs owned by
   the machine's own Sybils are of no use and are filtered out. *)
let successor_arcs (state : State.t) pid self_id =
  let k = state.State.params.Params.num_successors in
  let succs = Dht.k_successors state.State.dht self_id k in
  let rec arcs after = function
    | [] -> []
    | (vn : State.payload Dht.vnode) :: rest ->
      let arc = Interval.make ~after ~upto:vn.Dht.id in
      let tail = arcs vn.Dht.id rest in
      if vn.Dht.payload.State.owner = pid then tail else (arc, vn) :: tail
  in
  arcs self_id succs

let pick_estimate state pid candidates =
  let avoid = state.State.params.Params.avoid_repeats in
  let usable =
    if avoid then
      List.filter
        (fun (arc, _) -> not (State.arc_recently_failed state pid arc))
        candidates
    else candidates
  in
  pick_widest usable

(* One smart query round: a workload query is {e sent} to every candidate
   (charged whether or not its reply makes it back), and every candidate's
   reply takes its outcome draw in candidate order — the oracle replays
   exactly this draw sequence.  The round succeeds only when every reply
   arrives within the decision tick: a dropped reply (or a straggler's
   late one, unless [straggle_delay = 0]) leaves the picture incomplete,
   and picking "the heaviest of those who answered" would silently bias
   toward responsive nodes.  Under {!Faults.none} every reply arrives
   with no draws, so this is the pre-fault rule. *)
let query_round state candidates =
  let messages = Dht.messages state.State.dht in
  messages.Messages.workload_queries <-
    messages.Messages.workload_queries + List.length candidates;
  let late_ok = state.State.params.Params.faults.Faults.straggle_delay = 0 in
  let heard = State.heard state ~late_ok snd candidates in
  if List.compare_lengths heard candidates = 0 then
    `Answered
      (pick_heaviest
         ~load:(fun (_, (vn : State.payload Dht.vnode)) -> Dht.load vn)
         candidates)
  else `Timed_out

(* Inject at the chosen arc's midpoint, with the avoid_repeats memory.
   Under the admission defense an accepted request has no ring presence
   yet — its workload cannot be read — so the zero-work probe only runs
   when the join landed immediately. *)
let place state pid chosen =
  match chosen with
  | None -> ()
  | Some (arc, _) ->
    let sybil_id = Interval.midpoint arc in
    if State.create_sybil state pid sybil_id then begin
      if
        state.State.params.Params.avoid_repeats
        && state.State.params.Params.puzzle_cost = 0
        && Dht.workload state.State.dht sybil_id = 0
      then State.note_failed_arc state pid arc
    end
    else if state.State.params.Params.avoid_repeats then
      State.note_failed_arc state pid arc

(* A due smart retry.  The machine re-checks that it still wants a Sybil
   (work may have arrived while it waited out the backoff), re-sends the
   query round — charged as [retries] plus the queries themselves — and
   on budget exhaustion falls back to the dumb estimate rule {e the same
   tick}: a zero-message decision needs no replies, so it is the natural
   degraded mode.  No retirement here: retirement belongs to the regular
   decision cadence. *)
let retry_step (state : State.t) (p : State.phys) =
  let pid = p.State.pid in
  let threshold = state.State.params.Params.sybil_threshold in
  let still_wants =
    Random_injection.should_inject
      ~workload:(State.workload_of_phys state pid)
      ~threshold
      ~sybils:(State.sybil_count state pid)
      ~capacity:(State.sybil_capacity state pid)
  in
  if not still_wants then State.clear_smart_retry state pid
  else
    match p.State.vnodes with
    | [] -> State.clear_smart_retry state pid
    | self :: _ -> (
      let candidates = successor_arcs state pid self.Dht.id in
      State.charge_retry state;
      match query_round state candidates with
      | `Answered chosen ->
        State.clear_smart_retry state pid;
        place state pid chosen
      | `Timed_out ->
        if State.note_query_timeout state pid then
          place state pid (pick_estimate state pid candidates))

let decide variant (state : State.t) =
  let threshold = state.State.params.Params.sybil_threshold in
  State.iter_decision_candidates state
    (fun (p : State.phys) ->
      let pid = p.State.pid in
      if p.State.active && State.can_decide state pid then begin
        if variant = Smart && State.retry_pending state pid then begin
          (* An in-flight retry suppresses the regular decision cadence
             until it fires or is abandoned. *)
          if State.retry_due state pid then retry_step state p
        end
        else if Decision.due state p then begin
          let w = State.workload_of_phys state pid in
          (* Same Sybil lifecycle as random injection: fruitless Sybils
             quit, then the node may target a new successor arc at once. *)
          if
            Random_injection.should_retire ~workload:w
              ~sybils:(State.sybil_count state pid)
          then State.retire_sybils state pid;
          if
            Random_injection.should_inject ~workload:w ~threshold
              ~sybils:(State.sybil_count state pid)
              ~capacity:(State.sybil_capacity state pid)
          then begin
            match p.State.vnodes with
            | [] -> ()
            | self :: _ -> (
              let candidates = successor_arcs state pid self.Dht.id in
              match variant with
              | Estimate -> place state pid (pick_estimate state pid candidates)
              | Smart -> (
                match query_round state candidates with
                | `Answered chosen -> place state pid chosen
                | `Timed_out ->
                  if State.note_query_timeout state pid then
                    place state pid (pick_estimate state pid candidates)))
          end
        end
      end)

let strategy variant () =
  let name =
    match variant with
    | Estimate -> "neighbor-injection"
    | Smart -> "smart-neighbor-injection"
  in
  { Engine.name; decide = decide variant }
