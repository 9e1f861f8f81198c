(* Writing your own balancing strategy against the public API.

   A strategy is just a record: a name and a per-tick [decide] function
   over [State.t].  This example implements "greedy split": every due
   under-utilized machine queries the single heaviest machine it can see
   (its successor list) and splits that arc at the midpoint — a
   minimalist cross between neighbor injection and invitation.  The point
   is the shape of the code, not the strategy's quality; it still beats
   the baseline comfortably.

   Run with: dune exec examples/custom_strategy.exe *)

let greedy_split_decide (state : State.t) =
  (* [iter_decision_candidates] visits only machines that can possibly be
     due this tick (all of them under a fault plan); keep the usual
     active/due guards on what it hands you. *)
  State.iter_decision_candidates state
    (fun (p : State.phys) ->
      if p.State.active && Decision.due state p then begin
        let pid = p.State.pid in
        let w = State.workload_of_phys state pid in
        (* standard Sybil lifecycle: fruitless Sybils quit first *)
        if w = 0 && State.sybil_count state pid > 0 then
          State.retire_sybils state pid;
        if w = 0 && State.sybil_count state pid < State.sybil_capacity state pid
        then begin
          match p.State.vnodes with
          | [] -> ()
          | self :: _ ->
            (* look at the successor list; pick the heaviest arc *)
            let succs = Dht.k_successors state.State.dht self.Dht.id 5 in
            let heaviest =
              List.fold_left
                (fun best (vn : State.payload Dht.vnode) ->
                  if vn.Dht.payload.State.owner = pid then best
                  else
                    match best with
                    | Some (b : State.payload Dht.vnode)
                      when Dht.load b >= Dht.load vn ->
                      best
                    | _ -> Some vn)
                None succs
            in
            match heaviest with
            | Some vn when Dht.load vn > 0 -> (
              match Dht.arc_of state.State.dht vn.Dht.id with
              | Some arc ->
                ignore (State.create_sybil state pid (Interval.midpoint arc))
              | None -> ())
            | _ -> ()
        end
      end)

let greedy_split = { Engine.name = "greedy-split"; decide = greedy_split_decide }

let () =
  let params = Params.default ~nodes:500 ~tasks:50_000 in
  let show label strategy =
    let r = Engine.run params strategy in
    Printf.printf "%-14s factor=%.3f\n" label r.Engine.factor
  in
  show "none" Engine.no_strategy;
  show "greedy-split" greedy_split;
  show "random" (Strategy.make Strategy.Random_injection ());
  print_newline ();
  print_endline
    "A strategy is ~40 lines: filter machines with Decision.due, inspect";
  print_endline
    "the ring through Dht.k_successors / State.workload_of_phys, and act";
  print_endline "with State.create_sybil / State.retire_sybils."
