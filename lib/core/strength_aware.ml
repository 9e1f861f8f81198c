(* Strength-aware injection (paper §VII future work).

   Two strength terms on top of Random Injection:

   - share-proportional capacity: a strength-s machine runs at most s-1
     Sybils, so its ring presence — and hence its expected workload — is
     proportional to what it can actually drain per tick.  Weak
     (strength-1) machines never inject, which is §VII's diagnosis
     ("weaker nodes acquiring more work from stronger nodes").

   - drain-time targeting: an idle strong machine queries its successor
     list for workloads and strengths and splits the arc whose *drain
     time* (workload / strength) is worst, falling back to a random
     address when nothing nearby is slow.  This moves work from slow
     custodians to fast thieves instead of uniformly. *)

(* Pure decision rules, shared with the reference oracle. *)

let drain_time ~workload ~strength =
  float_of_int workload /. float_of_int strength

let injection_cap ~heterogeneity ~capacity ~strength =
  match heterogeneity with
  | Params.Homogeneous -> capacity
  | Params.Heterogeneous -> strength - 1

(* The candidate with the worst drain time; first wins ties. *)
let pick_slowest ~drain (candidates : 'a list) =
  List.fold_left
    (fun best c ->
      match best with
      | Some b when drain b >= drain c -> best
      | _ -> Some c)
    None candidates

(* Only steal from arcs meaningfully slower than us: the thief must
   finish the stolen half sooner than the custodian would have. *)
let worth_stealing ~own ~candidate = candidate > 2.0 *. (own +. 1.0)

let drain_time_of (state : State.t) (vn : State.payload Dht.vnode) =
  let owner = vn.Dht.payload.State.owner in
  drain_time
    ~workload:(Dht.load vn)
    ~strength:state.State.phys.(owner).State.strength

let decide (state : State.t) =
  let params = state.State.params in
  let threshold = float_of_int params.Params.sybil_threshold in
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
        let own_drain = drain_time ~workload:w ~strength:p.State.strength in
        let cap =
          injection_cap ~heterogeneity:params.Params.heterogeneity
            ~capacity:(State.sybil_capacity state pid)
            ~strength:p.State.strength
        in
        if own_drain <= threshold && State.sybil_count state pid < cap then begin
          match p.State.vnodes with
          | [] -> ()
          | self :: _ ->
            (* The arcs visible from the successor list, as in neighbor
               injection.  Queries are sent to every candidate (charged),
               but under a fault plan only the replies that arrive within
               the tick are usable: dropped or straggling replies (unless
               [straggle_delay = 0]) are invisible.  With nothing heard
               the machine falls back to a random address — same shape
               as "nothing worth stealing". *)
            let candidates =
              Neighbor_injection.successor_arcs state pid self.Dht.id
            in
            let messages = Dht.messages state.State.dht in
            messages.Messages.workload_queries <-
              messages.Messages.workload_queries + List.length candidates;
            let late_ok = params.Params.faults.Faults.straggle_delay = 0 in
            let worst =
              pick_slowest
                ~drain:(fun (_, vn) -> drain_time_of state vn)
                (State.heard state ~late_ok snd candidates)
            in
            let target =
              match worst with
              | Some (arc, vn)
                when worth_stealing ~own:own_drain
                       ~candidate:(drain_time_of state vn) ->
                Interval.midpoint arc
              | _ -> Keygen.fresh state.State.rng
            in
            ignore (State.create_sybil state pid target)
        end
      end)

let strategy () = { Engine.name = "strength-aware"; decide }
