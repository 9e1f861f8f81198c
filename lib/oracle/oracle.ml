(* Reference model for the simulation engine (differential oracle).

   A deliberately naive re-implementation of the whole simulation: the
   ring is a sorted association list, key sets are sorted lists, every
   query is a linear scan, and nothing is shared with lib/chord or
   lib/sim's data structures.  What IS shared — by design — is the
   randomness (lib/prng via lib/workload's Keygen) and the pure decision
   rules exported by the strategy modules, so an engine run and an oracle
   run from the same [Params.t] consume the identical PRNG stream and
   must agree bit-for-bit on every per-tick observable.

   The draw-order contract both sides follow (any change to either side
   must keep them in lockstep):

     create:   2n node ids -> 2n strength draws (heterogeneous only)
               -> task keys (uniform or clustered)
     per tick: strategy decide draws (Keygen.fresh = 2 x bits64, in
               machine pid order) -> consume draws (bounds c, c-1, ...
               per vnode, machine order then vnode-list order) -> churn
               bernoulli draws (machine order, with the p=0/p=1
               short-circuits of Prng.bernoulli and the [churn > 0.0]
               guards in State.apply_churn)

   Diffusive work transfers (strategy 9) also live on the MAIN stream:
   at the point in the decide scan where the acting machine moves work —
   after its fault-stream reply draws for that tick — one [int_below]
   per task taken, bounds c, c-1, ..., each indexing the donor's
   shrinking key set in key order (the same discipline as the consume
   loop).  Range reassignment (strategy 10) consumes NO main-stream
   draws: its split point is a computed key rank and the helper's
   leave/join pair is draw-free.

   Fault randomness lives on a SECOND stream (Faults.rng, split from the
   same seed) with its own draw order, also mirrored here:

     create:   straggler picks (without replacement, [stragglers] draws)
               -> partition victim (one draw, iff a window is set)
     per tick: one reply-outcome bernoulli per control-plane reply, in
               the strategy's candidate order (skipped entirely when the
               sender is partitioned or [drop] is 0/1 — Prng.bernoulli's
               endpoint short-circuits) -> crash-burst victim picks
               (without replacement from the active machines, after
               churn) -> replica-repair enrolment bernoullis (vnodes in
               ascending ring order, missing holders in successor-walk
               order, one draw each iff 0 < repl_drop < 1; only when
               [replicas > 0] and [tick mod repair_lag = 0])

   A disabled plan never consumes a fault draw, which is why faults-off
   runs are bit-identical to the pre-fault engine.  Crash recovery
   itself is draw-free: victims are already chosen, and the
   lost-or-recovered predicate is deterministic.

   Arrival randomness (open-system runs) lives on a THIRD stream
   (Arrivals.rng, the second split off the same seed), also mirrored
   draw for draw:

     create:   [hotspots] hot-key centers (2 x bits64 each), iff the
               plan is enabled AND its key mix is [Hot]
     per tick (before the decide step): the Knuth product-of-uniforms
     Poisson loop — k+1 float_unit draws for a count of k, and NO draw
     at all when the tick's rate is <= 0 — then per arrival exactly one
     key draw, unconditionally (the stream layout must not depend on
     ring state): a fresh uniform key (2 x bits64) or a hot key (one
     zipf float_unit + one offset float_unit)

   A disabled plan never consumes an arrival draw, which is why
   arrivals-off runs are bit-identical to the batch engine.

   Attack randomness (adversarial Sybil injection) lives on a FOURTH
   stream (Attack.rng, the third split off the same seed), also
   mirrored draw for draw:

     create:   [machines] malicious-machine picks (without replacement
               from the initially active pids), iff the plan is enabled
     per tick (after the arrivals and admission settlement, before the
     decide step), iff the window covers the tick: per still-active
     malicious machine in ascending pid order — defense off, [strength]
     placement draws (one float_unit each); defense on, ONE placement
     draw iff the machine's admission slot is free, none otherwise.
     The window-close crash and the admission settlement are draw-free.

   A disabled plan never consumes an attack draw, which is why
   attack-off runs are bit-identical to the pre-adversary engine.

   The oracle additionally re-checks its own invariants after every tick
   unconditionally — it is the belt to the engine's DHTLB_CHECK braces. *)

type ovnode = {
  id : Id.t;
  owner : int;
  mutable keys : Id.t list; (* strictly ascending *)
}

type omach = {
  pid : int;
  strength : int;
  original_id : Id.t;
  straggler : bool;
  malicious : bool;
  mutable active : bool;
  mutable vnodes : Id.t list; (* head is the primary *)
  mutable failed_arcs : Interval.t list;
  mutable retry_attempts : int;
  mutable retry_at : int; (* -1 = none pending *)
  (* Pending admission under the puzzle defense, mirroring State's
     [phys.puzzle]: (requested id, ready tick, from the attack path). *)
  mutable puzzle : (Id.t * int * bool) option;
}

type msgs = {
  mutable joins : int;
  mutable leaves : int;
  mutable key_transfers : int;
  mutable workload_queries : int;
  mutable invitations : int;
  mutable lookup_hops : int;
  mutable maintenance : int;
  mutable replications : int;
  mutable dropped : int;
  mutable retries : int;
  mutable tasks_lost : int;
  mutable attack_joins : int;
  mutable puzzles : int;
  mutable work_transfers : int;
}

type t = {
  params : Params.t;
  rng : Prng.t;
  frng : Prng.t; (* dedicated fault stream, mirrors State.frng *)
  arng : Prng.t; (* dedicated arrival stream, mirrors State.arng *)
  krng : Prng.t; (* dedicated attack stream, mirrors State.krng *)
  hot_centers : Id.t array; (* [||] unless arrivals are on with hot keys *)
  partitioned : int; (* -1 = none *)
  attackers : int list; (* malicious pids ascending; [] without a plan *)
  mutable ring : ovnode list; (* ascending by id *)
  machs : omach array;
  msgs : msgs;
  (* Live replica map, mirroring State.repl as an association list:
     vnode id -> ids of its current backup holders.  Always [] when
     [Params.replicas = 0].  Unlike the engine the oracle keeps no
     dirty set: the engine's pass skips only vnodes that already hold
     their successor lists, where the full walk draws and changes
     nothing, so walking every vnode is bit-identical. *)
  mutable holders : (Id.t * Id.t list) list;
  initial_mean : float;
  mutable initial_tasks : int;
  (* Open-system ledgers, mirroring State.birth / State.sojourn_hist as
     association lists: birth tick per live task, and the completed-task
     sojourn histogram.  Both stay [] when the arrival plan is off. *)
  mutable birth : (Id.t * int) list;
  mutable sojourn_hist : (int * int) list;
  mutable arrived_total : int;
  mutable tick : int;
  mutable work_done_total : int;
  mutable last_msg_total : int;
}

type point = {
  tick : int;
  work_done : int;
  remaining : int;
  active_nodes : int;
  vnodes : int;
}

type outcome = Finished of int | Aborted of int

type result = {
  outcome : outcome;
  ideal : int;
  factor : float;
  points : point array;
  msgs : msgs;
  final_vnodes : int;
  final_active : int;
  work_done_total : int;
  arrived_total : int;
  sojourn_ledger : (int * int) list;
}

(* ---- sorted-list primitives -------------------------------------- *)

let rec insert_sorted k = function
  | [] -> [ k ]
  | hd :: tl as l ->
    let c = Id.compare k hd in
    if c < 0 then k :: l
    else if c = 0 then invalid_arg "Oracle: duplicate key insert"
    else hd :: insert_sorted k tl

let rec mem_key k = function
  | [] -> false
  | hd :: tl ->
    let c = Id.compare k hd in
    if c < 0 then false else if c = 0 then true else mem_key k tl

let rec merge_sorted a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: xs, y :: ys ->
    let c = Id.compare x y in
    if c < 0 then x :: merge_sorted xs b
    else if c > 0 then y :: merge_sorted a ys
    else invalid_arg "Oracle: merging overlapping key sets"

let rec remove_index i = function
  | [] -> invalid_arg "Oracle: remove_index out of range"
  | hd :: tl -> if i = 0 then tl else hd :: remove_index (i - 1) tl

(* ---- ring as a sorted association list --------------------------- *)

let ring_size o = List.length o.ring
let find_vnode o id = List.find_opt (fun vn -> Id.equal vn.id id) o.ring

let rec insert_vnode vn = function
  | [] -> [ vn ]
  | hd :: tl as l ->
    if Id.compare vn.id hd.id < 0 then vn :: l else hd :: insert_vnode vn tl

(* First vnode strictly clockwise of [id], wrapping; the head of the
   sorted list is the wrap target.  None only on the empty ring. *)
let successor o id =
  match List.find_opt (fun vn -> Id.compare vn.id id > 0) o.ring with
  | Some _ as s -> s
  | None -> ( match o.ring with [] -> None | hd :: _ -> Some hd)

(* First vnode at or clockwise of [id]: the owner of key [id]. *)
let owner_of o key =
  match List.find_opt (fun vn -> Id.compare vn.id key >= 0) o.ring with
  | Some _ as s -> s
  | None -> ( match o.ring with [] -> None | hd :: _ -> Some hd)

(* Last vnode strictly counter-clockwise of [id], wrapping to the tail. *)
let predecessor o id =
  let before = List.filter (fun vn -> Id.compare vn.id id < 0) o.ring in
  match List.rev before with
  | last :: _ -> Some last
  | [] -> ( match List.rev o.ring with last :: _ -> Some last | [] -> None)

(* Walk [next] repeatedly, exactly like Ring.k_neighbors: at most
   [min k (size - 1)] hops, stopping if the walk returns to [id]. *)
let k_walk next o id k =
  let n = ring_size o in
  let limit = min k (max 0 (n - 1)) in
  let rec go cur acc remaining =
    if remaining = 0 then List.rev acc
    else
      match next o cur with
      | None -> List.rev acc
      | Some vn ->
        if Id.equal vn.id id then List.rev acc
        else go vn.id (vn :: acc) (remaining - 1)
  in
  go id [] limit

let k_successors o id k = k_walk successor o id k
let k_predecessors o id k = k_walk (fun o vn -> predecessor o vn) o id k

let arc_of o id =
  match find_vnode o id with
  | None -> None
  | Some _ -> (
    match predecessor o id with
    | None -> Some (Interval.full id)
    | Some p -> Some (Interval.make ~after:p.id ~upto:id))

(* ---- DHT operations (mirroring Dht) ------------------------------ *)

let vnode_workload o id =
  match find_vnode o id with None -> 0 | Some vn -> List.length vn.keys

let remaining_tasks o =
  List.fold_left (fun acc vn -> acc + List.length vn.keys) 0 o.ring

let join o ~id ~owner =
  if find_vnode o id <> None then Error `Occupied
  else begin
    o.msgs.joins <- o.msgs.joins + 1;
    let keys =
      match successor o id with
      | None -> [] (* first vnode: nothing to take over *)
      | Some succ ->
        let after =
          match predecessor o id with
          | Some p -> p.id
          | None -> assert false
        in
        let arc = Interval.make ~after ~upto:id in
        let inside, outside =
          List.partition (fun k -> Interval.mem k arc) succ.keys
        in
        succ.keys <- outside;
        o.msgs.key_transfers <- o.msgs.key_transfers + List.length inside;
        inside
    in
    o.ring <- insert_vnode { id; owner; keys } o.ring;
    Ok ()
  end

let leave o id =
  match find_vnode o id with
  | None -> Error `Not_member
  | Some _ when ring_size o = 1 -> Error `Last_node
  | Some vn ->
    o.msgs.leaves <- o.msgs.leaves + 1;
    o.ring <- List.filter (fun v -> not (Id.equal v.id id)) o.ring;
    (match successor o id with
    | Some succ ->
      let moved = List.length vn.keys in
      if moved > 0 then begin
        succ.keys <- merge_sorted succ.keys vn.keys;
        o.msgs.key_transfers <- o.msgs.key_transfers + moved
      end
    | None -> assert false);
    Ok ()

let arrivals_on o = Arrivals.enabled o.params.Params.arrivals

(* Mirrors State.note_sojourn: completing a task settles its birth entry
   into the sojourn histogram (sojourn = completion - birth + 1,
   inclusive of both ticks). *)
let note_sojourn o key =
  let rec pull acc = function
    | [] -> invalid_arg "Oracle: completed a task with no birth record"
    | (k, b) :: tl ->
      if Id.equal k key then (b, List.rev_append acc tl)
      else pull ((k, b) :: acc) tl
  in
  let b, rest = pull [] o.birth in
  o.birth <- rest;
  let s = o.tick - b + 1 in
  let rec bump = function
    | [] -> [ (s, 1) ]
    | (s', c) :: tl -> if s' = s then (s', c + 1) :: tl else (s', c) :: bump tl
  in
  o.sojourn_hist <- bump o.sojourn_hist

(* Same draw discipline as Dht.consume_vnode: one [int_below] per taken
   key, bounds c, c-1, ..., each indexing the shrinking key list.  In
   open-system runs each removed key's identity settles its sojourn —
   identical draws either way. *)
let consume o id budget =
  match find_vnode o id with
  | None -> 0
  | Some vn ->
    let c = List.length vn.keys in
    if budget <= 0 || c = 0 then 0
    else begin
      let taken = min budget c in
      for j = 0 to taken - 1 do
        let i = Prng.int_below o.rng (c - j) in
        if arrivals_on o then note_sojourn o (List.nth vn.keys i);
        vn.keys <- remove_index i vn.keys
      done;
      taken
    end

(* Mirrors Dht.transfer_keys (via State.transfer_work): the same draw
   discipline as consumption — one main-stream [int_below] per taken
   key, bounds c, c-1, ..., each indexing the donor's shrinking key
   list in key order.  A picked key the recipient already holds stays
   with the donor and is not charged, exactly as the engine refuses to
   collapse it in a set union. *)
let transfer_work o ~src ~dst n =
  let c = List.length src.keys in
  if n <= 0 || c = 0 || Id.equal src.id dst.id then 0
  else begin
    let taken = min n c in
    let picked = ref [] in
    for j = 0 to taken - 1 do
      let i = Prng.int_below o.rng (c - j) in
      picked := List.nth src.keys i :: !picked;
      src.keys <- remove_index i src.keys
    done;
    let moved = ref 0 in
    List.iter
      (fun key ->
        if mem_key key dst.keys then src.keys <- insert_sorted key src.keys
        else begin
          dst.keys <- insert_sorted key dst.keys;
          incr moved
        end)
      (List.rev !picked);
    o.msgs.work_transfers <- o.msgs.work_transfers + !moved;
    !moved
  end

(* ---- live replica map (mirroring State.repl) --------------------- *)

let recovery_on o = Params.recovery_on o.params

let holders_of o id =
  match List.find_opt (fun (i, _) -> Id.equal i id) o.holders with
  | Some (_, hs) -> hs
  | None -> []

let set_holders o id hs =
  if List.exists (fun (i, _) -> Id.equal i id) o.holders then
    o.holders <-
      List.map (fun (i, h) -> if Id.equal i id then (i, hs) else (i, h)) o.holders
  else o.holders <- (id, hs) :: o.holders

let remove_holder_entry o id =
  o.holders <- List.filter (fun (i, _) -> not (Id.equal i id)) o.holders

let rec take n = function
  | [] -> []
  | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl

(* Mirrors State.prune_holder: departures leave every holder list. *)
let prune_holder o id =
  o.holders <-
    List.map
      (fun (i, hs) -> (i, List.filter (fun h -> not (Id.equal h id)) hs))
      o.holders

(* Mirrors State.repl_note_join: a newcomer splitting its donor's arc is
   backed by the donor plus the donor's holders, capped at [replicas]. *)
let repl_note_join o ~id ~donor =
  if recovery_on o then
    let hs =
      match donor with
      | None -> []
      | Some d -> take o.params.Params.replicas (d :: holders_of o d)
    in
    set_holders o id hs

(* Mirrors State.repl_note_leave: the recipient of a graceful merge keeps
   only holders that already backed both ranges. *)
let repl_note_leave o ~id ~recipient =
  if recovery_on o then begin
    let own = holders_of o id in
    remove_holder_entry o id;
    (match recipient with
    | None -> ()
    | Some s ->
      set_holders o s
        (List.filter (fun h -> List.exists (Id.equal h) own) (holders_of o s)));
    prune_holder o id
  end

(* Donor/recipient snapshots taken before the join/leave mutates the
   ring.  State.repl_note_join / State.repl_note_leave read the same
   vnode after the move instead, as the successor of [id] (the ring's
   first vnode, its own successor, has no donor). *)
let repl_donor o id =
  if not (recovery_on o) then None
  else match successor o id with None -> None | Some vn -> Some vn.id

let repl_recipient o id =
  if (not (recovery_on o)) || ring_size o <= 1 then None
  else match successor o id with None -> None | Some vn -> Some vn.id

(* Mirrors Dht.crash: no handover, no last-node protection; the keys are
   handed back for recovery-or-loss accounting. *)
let crash o id =
  match find_vnode o id with
  | None -> assert false
  | Some vn ->
    o.msgs.leaves <- o.msgs.leaves + 1;
    o.ring <- List.filter (fun v -> not (Id.equal v.id id)) o.ring;
    vn.keys

(* Mirrors Dht.restore: a crashed vnode's keys land on the first
   surviving vnode clockwise of its id, one transfer each. *)
let restore o ~near keys =
  let moved = List.length keys in
  if moved > 0 then
    match owner_of o near with
    | None -> invalid_arg "Oracle: restore on an empty ring"
    | Some vn ->
      vn.keys <- merge_sorted vn.keys keys;
      o.msgs.key_transfers <- o.msgs.key_transfers + moved

(* Mirrors State.crash_machines: all vnodes of all [pids] die in one
   simultaneous event; per vnode in death order its tasks are restored
   from a surviving holder or charged to [tasks_lost]. *)
let crash_machines o pids =
  let dying = List.concat_map (fun pid -> o.machs.(pid).vnodes) pids in
  let died id = List.exists (Id.equal id) dying in
  let removed = List.map (fun id -> (id, crash o id)) dying in
  List.iter
    (fun pid ->
      let m = o.machs.(pid) in
      m.vnodes <- [];
      m.active <- false;
      m.failed_arcs <- [];
      m.retry_attempts <- 0;
      m.retry_at <- -1;
      m.puzzle <- None)
    pids;
  List.iter
    (fun (id, keys) ->
      let survives = List.exists (fun h -> not (died h)) (holders_of o id) in
      if survives then restore o ~near:id keys
      else begin
        o.msgs.tasks_lost <- o.msgs.tasks_lost + List.length keys;
        (* Lost tasks leave the birth ledger — mirrors State.crash_machines. *)
        if arrivals_on o then
          o.birth <-
            List.filter
              (fun (k, _) -> not (List.exists (Id.equal k) keys))
              o.birth
      end)
    removed;
  List.iter (fun (id, _) -> remove_holder_entry o id) removed;
  o.holders <-
    List.map (fun (i, hs) -> (i, List.filter (fun h -> not (died h)) hs)) o.holders

(* ---- machine lifecycle (mirroring State) ------------------------- *)

let workload_of_phys o pid =
  List.fold_left (fun acc id -> acc + vnode_workload o id) 0 o.machs.(pid).vnodes

let capacity_of_phys o pid =
  match o.params.Params.work with
  | Params.Task_per_tick -> 1
  | Params.Strength_per_tick -> o.machs.(pid).strength

let sybil_count o pid = max 0 (List.length o.machs.(pid).vnodes - 1)

let sybil_capacity o pid =
  match o.params.Params.heterogeneity with
  | Params.Homogeneous -> o.params.Params.max_sybils
  | Params.Heterogeneous -> o.machs.(pid).strength

let lookup_cost (o : t) =
  let n = max 2 (ring_size o) in
  int_of_float (ceil (Routing.expected_hops n))

let charge_lookup (o : t) =
  o.msgs.lookup_hops <- o.msgs.lookup_hops + lookup_cost o

(* Mirrors State.start_puzzle: the lookup and the puzzle are charged at
   request time; the join defers to the admission settlement. *)
let start_puzzle o pid id ~from_attack =
  charge_lookup o;
  o.msgs.puzzles <- o.msgs.puzzles + 1;
  o.machs.(pid).puzzle <-
    Some (id, o.tick + o.params.Params.puzzle_cost, from_attack)

let create_sybil o pid id =
  let m = o.machs.(pid) in
  if (not m.active) || sybil_count o pid >= sybil_capacity o pid then false
  else if o.params.Params.puzzle_cost > 0 then
    if m.puzzle <> None then false
    else begin
      start_puzzle o pid id ~from_attack:false;
      true
    end
  else begin
    charge_lookup o;
    let donor = repl_donor o id in
    match join o ~id ~owner:pid with
    | Ok () ->
      repl_note_join o ~id ~donor;
      m.vnodes <- m.vnodes @ [ id ];
      true
    | Error `Occupied -> false
  end

let retire_sybils o pid =
  let m = o.machs.(pid) in
  match m.vnodes with
  | [] -> ()
  | primary :: sybils ->
    List.iter
      (fun id ->
        let recipient = repl_recipient o id in
        match leave o id with
        | Ok () -> repl_note_leave o ~id ~recipient
        | Error (`Not_member | `Last_node) -> assert false)
      sybils;
    m.vnodes <- [ primary ]

let leave_phys o pid =
  let m = o.machs.(pid) in
  retire_sybils o pid;
  match m.vnodes with
  | [] -> ()
  | [ primary ] -> begin
    let recipient = repl_recipient o primary in
    match leave o primary with
    | Ok () ->
      repl_note_leave o ~id:primary ~recipient;
      m.vnodes <- [];
      m.active <- false;
      m.failed_arcs <- [];
      m.retry_attempts <- 0;
      m.retry_at <- -1;
      m.puzzle <- None
    | Error `Last_node -> () (* stays: someone must hold the keys *)
    | Error `Not_member -> assert false
  end
  | _ :: _ -> assert false

(* Rejoin lookups are charged only when the join lands (priced at the
   pre-join ring size) — mirrors State.join_phys. *)
let join_phys o pid =
  let m = o.machs.(pid) in
  let id =
    if o.params.Params.rejoin_fresh_id then Keygen.fresh o.rng
    else m.original_id
  in
  let hops = lookup_cost o in
  let donor = repl_donor o id in
  match join o ~id ~owner:pid with
  | Ok () ->
    o.msgs.lookup_hops <- o.msgs.lookup_hops + hops;
    repl_note_join o ~id ~donor;
    m.vnodes <- [ id ];
    m.active <- true
  | Error `Occupied -> () (* stays waiting; retries on a later tick *)

(* Mirrors State.relocate_phys: a single-presence helper gives up its
   ring position and rejoins at [id].  Draw-free; the rejoin lookup is
   priced at the post-leave ring size and charged only when the join
   lands. *)
let relocate_phys o pid ~id =
  let m = o.machs.(pid) in
  match m.vnodes with
  | [ primary ] when m.active && find_vnode o id = None -> begin
    let recipient = repl_recipient o primary in
    match leave o primary with
    | Error `Last_node -> false
    | Error `Not_member -> assert false
    | Ok () ->
      repl_note_leave o ~id:primary ~recipient;
      let hops = lookup_cost o in
      let donor = repl_donor o id in
      (match join o ~id ~owner:pid with
      | Ok () ->
        o.msgs.lookup_hops <- o.msgs.lookup_hops + hops;
        repl_note_join o ~id ~donor;
        m.vnodes <- [ id ];
        m.failed_arcs <- [];
        m.retry_attempts <- 0;
        m.retry_at <- -1;
        m.puzzle <- None;
        true
      | Error `Occupied -> assert false)
  end
  | _ -> false

(* Recovery traffic only if the machine actually departed — a surviving
   last node recovers nothing.  Mirrors the assumed-reliable branch of
   State.fail_machines. *)
let fail_phys_assumed o pid =
  let lost = workload_of_phys o pid in
  leave_phys o pid;
  if not o.machs.(pid).active then
    o.msgs.key_transfers <- o.msgs.key_transfers + lost

(* Mirrors State.fail_phys: a lone churn failure is a one-machine crash
   event under live replication. *)
let fail_phys o pid =
  if recovery_on o then crash_machines o [ pid ] else fail_phys_assumed o pid

let apply_churn o =
  let churn = o.params.Params.churn_rate
  and fail = o.params.Params.failure_rate in
  let rejoin = min 1.0 (churn +. fail) in
  if churn > 0.0 || fail > 0.0 then
    Array.iter
      (fun m ->
        if m.active then begin
          if churn > 0.0 && Prng.bernoulli o.rng churn then leave_phys o m.pid
          else if fail > 0.0 && Prng.bernoulli o.rng fail then fail_phys o m.pid
        end
        else if Prng.bernoulli o.rng rejoin then join_phys o m.pid)
      o.machs

let consume_tick o =
  let done_ = ref 0 in
  (* Mirrors State.consume_tick's starvation skip: attacking machines
     hold their keys hostage while the window is active. *)
  let attacking = Attack.active o.params.Params.attack ~tick:o.tick in
  Array.iter
    (fun m ->
      if m.active && not (attacking && m.malicious) then begin
        let budget = ref (capacity_of_phys o m.pid) in
        List.iter
          (fun vid ->
            if !budget > 0 then begin
              let c = consume o vid !budget in
              budget := !budget - c;
              done_ := !done_ + c
            end)
          m.vnodes
      end)
    o.machs;
  o.work_done_total <- o.work_done_total + !done_;
  !done_

(* ---- adversary (mirroring State's attack helpers draw for draw) -- *)

(* Mirrors State.process_admissions: settle due puzzles, ascending pid
   order, draw-free; a filled id wastes the puzzle. *)
let process_admissions o =
  if o.params.Params.puzzle_cost > 0 then
    Array.iter
      (fun m ->
        match m.puzzle with
        | Some (id, ready, from_attack) when ready <= o.tick ->
          m.puzzle <- None;
          if m.active then begin
            let donor = repl_donor o id in
            match join o ~id ~owner:m.pid with
            | Ok () ->
              repl_note_join o ~id ~donor;
              m.vnodes <- m.vnodes @ [ id ];
              if from_attack then o.msgs.attack_joins <- o.msgs.attack_joins + 1
            | Error `Occupied -> ()
          end
        | _ -> ())
      o.machs

(* Mirrors the defense-off injection in State.apply_attack: an
   immediate cap-bypassing join. *)
let inject_attack_sybil o pid id =
  charge_lookup o;
  let donor = repl_donor o id in
  match join o ~id ~owner:pid with
  | Ok () ->
    repl_note_join o ~id ~donor;
    o.machs.(pid).vnodes <- o.machs.(pid).vnodes @ [ id ];
    o.msgs.attack_joins <- o.msgs.attack_joins + 1
  | Error `Occupied -> ()

(* Mirrors State.apply_attack: injections while the window is active
   (attack-stream draws per the contract above), then the window-close
   crash of every still-active attacker in one event. *)
let apply_attack o =
  let plan = o.params.Params.attack in
  if Attack.enabled plan then begin
    if Attack.active plan ~tick:o.tick then
      List.iter
        (fun pid ->
          let m = o.machs.(pid) in
          if m.active then
            if o.params.Params.puzzle_cost > 0 then begin
              if m.puzzle = None then
                start_puzzle o pid (Attack.inject_id o.krng plan)
                  ~from_attack:true
            end
            else
              for _ = 1 to plan.Attack.strength do
                inject_attack_sybil o pid (Attack.inject_id o.krng plan)
              done)
        o.attackers;
    match Attack.crash_tick plan with
    | Some stop when stop = o.tick -> begin
      let victims = List.filter (fun pid -> o.machs.(pid).active) o.attackers in
      if victims <> [] then
        if recovery_on o then crash_machines o victims
        else List.iter (fail_phys_assumed o) victims
    end
    | _ -> ()
  end

(* ---- faults (mirroring State's fault helpers draw for draw) ------ *)

let is_partitioned o pid =
  pid = o.partitioned
  && Faults.partition_active o.params.Params.faults ~tick:o.tick

let can_decide o pid =
  (not (is_partitioned o pid))
  && not
       (o.machs.(pid).malicious
       && Attack.active o.params.Params.attack ~tick:o.tick)

(* One reply's fate; State.heard applies the same rule to every
   candidate of a query round, in order. *)
let reply_outcome o ~from_pid =
  let f = o.params.Params.faults in
  let drop () =
    o.msgs.dropped <- o.msgs.dropped + 1;
    `Dropped
  in
  if is_partitioned o from_pid then drop ()
  else if Prng.bernoulli o.frng f.Faults.drop then drop ()
  else if o.machs.(from_pid).straggler then `Delayed
  else `Ok

let apply_crash_bursts o =
  let count = Faults.burst_at o.params.Params.faults ~tick:o.tick in
  if count > 0 then begin
    let alive = ref [] in
    Array.iter (fun m -> if m.active then alive := m.pid :: !alive) o.machs;
    let pool = ref (List.rev !alive) in
    let victims = ref [] in
    for _ = 1 to min count (List.length !pool) do
      let i = Prng.int_below o.frng (List.length !pool) in
      victims := List.nth !pool i :: !victims;
      pool := List.filteri (fun j _ -> j <> i) !pool
    done;
    let victims = List.rev !victims in
    if recovery_on o then begin
      if victims <> [] then crash_machines o victims
    end
    else List.iter (fail_phys_assumed o) victims
  end

(* Mirrors State.repair_replicas without its dirty set: every
   [repair_lag] ticks walk the whole ring ascending and restore each vnode's
   holder list to its current successor list — kept holders are free,
   each missing one costs a copy of the vnode's tasks and (iff
   0 < repl_drop < 1) one fault-stream bernoulli. *)
let repair_replicas o =
  if recovery_on o && o.tick mod o.params.Params.repair_lag = 0 then begin
    let p = o.params.Params.faults.Faults.repl_drop in
    List.iter
      (fun vn ->
        let current = holders_of o vn.id in
        let desired = k_successors o vn.id o.params.Params.replicas in
        let hs =
          List.filter_map
            (fun s ->
              if List.exists (Id.equal s.id) current then Some s.id
              else if Prng.bernoulli o.frng p then None
              else begin
                o.msgs.replications <-
                  o.msgs.replications + List.length vn.keys;
                Some s.id
              end)
            desired
        in
        set_holders o vn.id hs)
      o.ring
  end

let clear_smart_retry o pid =
  let m = o.machs.(pid) in
  m.retry_attempts <- 0;
  m.retry_at <- -1

let note_query_timeout o pid =
  let f = o.params.Params.faults in
  let m = o.machs.(pid) in
  m.retry_attempts <- m.retry_attempts + 1;
  if m.retry_attempts > f.Faults.retry_budget then begin
    clear_smart_retry o pid;
    true
  end
  else begin
    m.retry_at <-
      o.tick
      + Faults.backoff ~base:f.Faults.backoff_base ~cap:f.Faults.backoff_cap
          ~attempt:(m.retry_attempts - 1);
    false
  end

let note_failed_arc o pid arc =
  let m = o.machs.(pid) in
  let keep = 8 in
  let rec take n = function
    | [] -> []
    | x :: tl -> if n = 0 then [] else x :: take (n - 1) tl
  in
  m.failed_arcs <- take keep (arc :: m.failed_arcs)

let arc_recently_failed o pid arc =
  List.exists
    (fun (a : Interval.t) ->
      Id.equal a.Interval.after arc.Interval.after
      && Id.equal a.Interval.upto arc.Interval.upto)
    o.machs.(pid).failed_arcs

(* ---- construction (mirroring State.create) ----------------------- *)

let create (params : Params.t) =
  (match Params.validate params with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Oracle.create: " ^ msg));
  let rng = Prng.create params.Params.seed in
  let n = params.Params.nodes in
  let total_phys = 2 * n in
  let ids = Keygen.node_ids rng total_phys in
  (* Fault setup mirrors State.create: stragglers drawn without
     replacement from all 2n pids, then the partition victim — all on the
     dedicated stream, which a disabled plan never consumes. *)
  let frng = Faults.rng ~seed:params.Params.seed in
  let faults = params.Params.faults in
  let straggler = Array.make total_phys false in
  let pool = ref (List.init total_phys Fun.id) in
  for _ = 1 to min faults.Faults.stragglers total_phys do
    let i = Prng.int_below frng (List.length !pool) in
    straggler.(List.nth !pool i) <- true;
    pool := List.filteri (fun j _ -> j <> i) !pool
  done;
  let partitioned =
    match faults.Faults.partition with
    | Some _ -> Prng.int_below frng n
    | None -> -1
  in
  (* Attack setup mirrors State.create: the malicious machines drawn
     without replacement from the initially active pids — the naive
     shrinking-list loop consuming the same draws as Sample.indices.
     A disabled plan draws nothing. *)
  let krng = Attack.rng ~seed:params.Params.seed in
  let malicious = Array.make total_phys false in
  let attackers =
    if Attack.enabled params.Params.attack then begin
      let pool = ref (List.init n Fun.id) in
      let picks = ref [] in
      for _ = 1 to min params.Params.attack.Attack.machines n do
        let i = Prng.int_below krng (List.length !pool) in
        picks := List.nth !pool i :: !picks;
        pool := List.filteri (fun j _ -> j <> i) !pool
      done;
      let picks = List.sort compare !picks in
      List.iter (fun pid -> malicious.(pid) <- true) picks;
      picks
    end
    else []
  in
  (* Arrival setup mirrors State.create: the dedicated third stream, and
     the hot-key centers drawn from it iff the plan is on with hot keys.
     A disabled plan draws nothing. *)
  let arng = Arrivals.rng ~seed:params.Params.seed in
  let arrivals = params.Params.arrivals in
  let hot_centers =
    match (Arrivals.enabled arrivals, arrivals.Arrivals.keys) with
    | true, Arrivals.Hot { hotspots; _ } -> Keygen.node_ids arng hotspots
    | _ -> [||]
  in
  (* Array.init evaluates 0..n-1 in order, so an explicit ascending loop
     reproduces State.create's strength draws exactly. *)
  let machs =
    Array.init total_phys (fun pid ->
        let strength =
          match params.Params.heterogeneity with
          | Params.Homogeneous -> 1
          | Params.Heterogeneous ->
            Prng.int_in rng ~lo:1 ~hi:params.Params.max_sybils
        in
        {
          pid;
          strength;
          original_id = ids.(pid);
          straggler = straggler.(pid);
          malicious = malicious.(pid);
          active = pid < n;
          vnodes = (if pid < n then [ ids.(pid) ] else []);
          failed_arcs = [];
          retry_attempts = 0;
          retry_at = -1;
          puzzle = None;
        })
  in
  let o =
    {
      params;
      rng;
      frng;
      arng;
      krng;
      hot_centers;
      partitioned;
      attackers;
      ring = [];
      machs;
      msgs =
        {
          joins = 0;
          leaves = 0;
          key_transfers = 0;
          workload_queries = 0;
          invitations = 0;
          lookup_hops = 0;
          maintenance = 0;
          replications = 0;
          dropped = 0;
          retries = 0;
          tasks_lost = 0;
          attack_joins = 0;
          puzzles = 0;
          work_transfers = 0;
        };
      holders = [];
      initial_mean =
        float_of_int params.Params.tasks /. float_of_int n;
      initial_tasks = 0;
      birth = [];
      sojourn_hist = [];
      arrived_total = 0;
      tick = 0;
      work_done_total = 0;
      last_msg_total = 0;
    }
  in
  for pid = 0 to n - 1 do
    match join o ~id:ids.(pid) ~owner:pid with
    | Ok () -> ()
    | Error `Occupied -> assert false
  done;
  let keys =
    match params.Params.keys with
    | Params.Uniform_sha1 -> Keygen.task_keys rng params.Params.tasks
    | Params.Clustered { hotspots; spread; zipf_s } ->
      let centers = Keygen.node_ids rng hotspots in
      Array.init params.Params.tasks (fun _ ->
          let j = Keygen.zipf rng ~n:hotspots ~s:zipf_s - 1 in
          let offset = Id.of_fraction (Prng.float_unit rng *. spread) in
          Id.add centers.(j) offset)
  in
  (* Per-key owner lookup and duplicate drop: same set semantics (and
     the same inserted count) as Dht.insert_keys' bulk load. *)
  Array.iter
    (fun key ->
      match owner_of o key with
      | None -> assert false
      | Some vn ->
        if not (mem_key key vn.keys) then begin
          vn.keys <- insert_sorted key vn.keys;
          o.initial_tasks <- o.initial_tasks + 1
        end)
    keys;
  (* Open system: the initial batch is born at tick 0 — mirrors
     State.assemble's birth seeding over the stored key set. *)
  if Arrivals.enabled arrivals then
    List.iter
      (fun vn -> List.iter (fun k -> o.birth <- (k, 0) :: o.birth) vn.keys)
      o.ring;
  (* Mirrors State.enrol_replicas: the data load ships with its
     backups — charged as replication traffic, no drop draws. *)
  if recovery_on o then
    List.iter
      (fun vn ->
        let desired = k_successors o vn.id params.Params.replicas in
        List.iter
          (fun _ ->
            o.msgs.replications <- o.msgs.replications + List.length vn.keys)
          desired;
        set_holders o vn.id (List.map (fun s -> s.id) desired))
      o.ring;
  o

(* ---- arrivals (mirroring State.apply_arrivals draw for draw) ----- *)

let active_count o =
  Array.fold_left (fun acc m -> if m.active then acc + 1 else acc) 0 o.machs

(* Naive Knuth product-of-uniforms Poisson sampler: k+1 [float_unit]
   draws for a count of k, and no draw at all when the rate is <= 0 —
   the same stream contract as Arrivals.poisson_count, re-derived.  A
   rate above 700 (where exp (-rate) underflows) is the sum of the
   fewest equal parts of at most 700 each. *)
let poisson_count_naive o lambda =
  let knuth lambda =
    let l = exp (-.lambda) in
    let rec go k p =
      let p = p *. Prng.float_unit o.arng in
      if p <= l then k else go (k + 1) p
    in
    go 0 1.0
  in
  if lambda <= 0.0 then 0
  else begin
    let parts = ref 1 in
    while lambda /. float_of_int !parts > 700.0 do
      incr parts
    done;
    let total = ref 0 in
    for _ = 1 to !parts do
      total := !total + knuth (lambda /. float_of_int !parts)
    done;
    !total
  end

let apply_arrivals o =
  let plan = o.params.Params.arrivals in
  if not (Arrivals.enabled plan) then 0
  else begin
    let lambda = Arrivals.rate_at plan ~tick:o.tick in
    let count = poisson_count_naive o lambda in
    let accepted = ref 0 in
    for _ = 1 to count do
      (* Key drawn unconditionally, exactly as the engine does. *)
      let key =
        match plan.Arrivals.keys with
        | Arrivals.Uniform -> Keygen.fresh o.arng
        | Arrivals.Hot { hotspots; spread; zipf_s } ->
          let j = Keygen.zipf o.arng ~n:hotspots ~s:zipf_s - 1 in
          let offset = Id.of_fraction (Prng.float_unit o.arng *. spread) in
          Id.add o.hot_centers.(j) offset
      in
      if ring_size o = 0 then begin
        (* Dead system: accepted, immediately lost, no hops charged. *)
        o.arrived_total <- o.arrived_total + 1;
        incr accepted;
        o.msgs.tasks_lost <- o.msgs.tasks_lost + 1
      end
      else begin
        (* A lookup is charged even for duplicates (the node had to
           route there to find out) — mirrors State.apply_arrivals.  A
           key live anywhere is a duplicate, also one a transfer moved
           off its owner's arc. *)
        charge_lookup o;
        match owner_of o key with
        | None -> assert false
        | Some vn ->
          if not (List.mem_assoc key o.birth || mem_key key vn.keys) then begin
            vn.keys <- insert_sorted key vn.keys;
            o.arrived_total <- o.arrived_total + 1;
            incr accepted;
            o.birth <- (key, o.tick) :: o.birth
          end
        (* else: duplicate, dropped at the door — never entered *)
      end
    done;
    !accepted
  end

(* The overload bar Invitation measures against — mirrors
   State.load_reference: the frozen setup mean for batch runs, the live
   mean per active machine for open systems (identical float
   computation on both sides). *)
let load_reference o =
  if arrivals_on o then
    float_of_int (remaining_tasks o) /. float_of_int (max 1 (active_count o))
  else o.initial_mean

(* ---- strategy replays -------------------------------------------- *)

let due (o : t) (m : omach) =
  Decision.due_at ~tick:o.tick ~pid:m.pid
    ~period:o.params.Params.decision_period
    ~stagger:o.params.Params.stagger_decisions

let random_decide o =
  let threshold = o.params.Params.sybil_threshold in
  Array.iter
    (fun m ->
      if m.active && can_decide o m.pid && due o m then begin
        let pid = m.pid in
        let w = workload_of_phys o pid in
        if Random_injection.should_retire ~workload:w ~sybils:(sybil_count o pid)
        then retire_sybils o pid;
        if
          Random_injection.should_inject ~workload:w ~threshold
            ~sybils:(sybil_count o pid) ~capacity:(sybil_capacity o pid)
        then ignore (create_sybil o pid (Keygen.fresh o.rng))
      end)
    o.machs

(* The arcs visible from a machine's successor list, own arcs excluded —
   same construction and order as Neighbor_injection.successor_arcs. *)
let successor_arcs o pid self_id =
  let k = o.params.Params.num_successors in
  let succs = k_successors o self_id k in
  let rec arcs after = function
    | [] -> []
    | vn :: rest ->
      let arc = Interval.make ~after ~upto:vn.id in
      let tail = arcs vn.id rest in
      if vn.owner = pid then tail else (arc, vn) :: tail
  in
  arcs self_id succs

(* Mirrors Neighbor_injection.pick_estimate. *)
let pick_estimate (o : t) pid candidates =
  let usable =
    if o.params.Params.avoid_repeats then
      List.filter
        (fun (arc, _) -> not (arc_recently_failed o pid arc))
        candidates
    else candidates
  in
  Neighbor_injection.pick_widest usable

(* Mirrors Neighbor_injection.query_round: charge every query sent, one
   reply-outcome draw per candidate in candidate order, succeed only if
   every reply lands within the tick. *)
let query_round (o : t) candidates =
  match candidates with
  | [] -> `Answered None
  | _ ->
    o.msgs.workload_queries <-
      o.msgs.workload_queries + List.length candidates;
    let delay = o.params.Params.faults.Faults.straggle_delay in
    let all_in =
      List.fold_left
        (fun acc (_, vn) ->
          match reply_outcome o ~from_pid:vn.owner with
          | `Ok -> acc
          | `Delayed -> acc && delay = 0
          | `Dropped -> false)
        true candidates
    in
    if all_in then
      `Answered
        (Neighbor_injection.pick_heaviest
           ~load:(fun (_, vn) -> List.length vn.keys)
           candidates)
    else `Timed_out

(* Mirrors Neighbor_injection.place. *)
let place (o : t) pid chosen =
  let avoid = o.params.Params.avoid_repeats in
  match chosen with
  | None -> ()
  | Some (arc, _) ->
    let sybil_id = Interval.midpoint arc in
    if create_sybil o pid sybil_id then begin
      (* Mirrors Neighbor_injection.place's admission guard: under the
         defense an accepted request has no ring presence to probe. *)
      if avoid && o.params.Params.puzzle_cost = 0 && vnode_workload o sybil_id = 0
      then note_failed_arc o pid arc
    end
    else if avoid then note_failed_arc o pid arc

(* Mirrors Neighbor_injection.retry_step. *)
let retry_step (o : t) (m : omach) =
  let pid = m.pid in
  let threshold = o.params.Params.sybil_threshold in
  let still_wants =
    Random_injection.should_inject
      ~workload:(workload_of_phys o pid)
      ~threshold
      ~sybils:(sybil_count o pid)
      ~capacity:(sybil_capacity o pid)
  in
  if not still_wants then clear_smart_retry o pid
  else
    match m.vnodes with
    | [] -> clear_smart_retry o pid
    | self_id :: _ -> (
      let candidates = successor_arcs o pid self_id in
      o.msgs.retries <- o.msgs.retries + 1;
      match query_round o candidates with
      | `Answered chosen ->
        clear_smart_retry o pid;
        place o pid chosen
      | `Timed_out ->
        if note_query_timeout o pid then
          place o pid (pick_estimate o pid candidates))

let neighbor_decide variant o =
  let threshold = o.params.Params.sybil_threshold in
  Array.iter
    (fun m ->
      let pid = m.pid in
      if m.active && can_decide o pid then begin
        if
          variant = Neighbor_injection.Smart && m.retry_at >= 0
        then begin
          if m.retry_at <= o.tick then retry_step o m
        end
        else if due o m then begin
          let w = workload_of_phys o pid in
          if
            Random_injection.should_retire ~workload:w
              ~sybils:(sybil_count o pid)
          then retire_sybils o pid;
          if
            Random_injection.should_inject ~workload:w ~threshold
              ~sybils:(sybil_count o pid) ~capacity:(sybil_capacity o pid)
          then begin
            match m.vnodes with
            | [] -> ()
            | self_id :: _ -> (
              let candidates = successor_arcs o pid self_id in
              match variant with
              | Neighbor_injection.Estimate ->
                place o pid (pick_estimate o pid candidates)
              | Neighbor_injection.Smart -> (
                match query_round o candidates with
                | `Answered chosen -> place o pid chosen
                | `Timed_out ->
                  if note_query_timeout o pid then
                    place o pid (pick_estimate o pid candidates)))
          end
        end
      end)
    o.machs

let invitation_split_point o inviter_id arc =
  if o.params.Params.split_at_median then
    match find_vnode o inviter_id with
    | Some vn when List.length vn.keys > 1 ->
      List.nth vn.keys ((List.length vn.keys / 2) - 1)
    | _ -> Interval.midpoint arc
  else Interval.midpoint arc

let invitation_decide o =
  let threshold = o.params.Params.sybil_threshold in
  Array.iter
    (fun m ->
      if m.active && can_decide o m.pid && due o m then begin
        let pid = m.pid in
        let w = workload_of_phys o pid in
        if Random_injection.should_retire ~workload:w ~sybils:(sybil_count o pid)
        then retire_sybils o pid;
        if
          Invitation.is_overloaded ~workload:w
            ~invite_factor:o.params.Params.invite_factor
            ~initial_mean:(load_reference o)
        then begin
          let heaviest =
            Invitation.pick_heaviest_vnode
              (List.map (fun id -> (id, vnode_workload o id)) m.vnodes)
          in
          match heaviest with
          | None | Some (_, 0) -> ()
          | Some (inviter_id, _) -> begin
            let k = o.params.Params.num_successors in
            let preds =
              List.filter
                (fun vn -> vn.owner <> pid)
                (k_predecessors o inviter_id k)
            in
            o.msgs.invitations <- o.msgs.invitations + k;
            (* Mirrors Invitation.decide: one round-trip outcome per
               predecessor (nearest first); dropped predecessors never
               reply (not charged), delayed replies still count. *)
            let heard =
              List.filter
                (fun vn ->
                  match reply_outcome o ~from_pid:vn.owner with
                  | `Ok | `Delayed -> true
                  | `Dropped -> false)
                preds
            in
            o.msgs.workload_queries <-
              o.msgs.workload_queries + List.length heard;
            let candidates =
              List.filter
                (fun vn ->
                  workload_of_phys o vn.owner <= threshold
                  && sybil_count o vn.owner < sybil_capacity o vn.owner)
                heard
            in
            let helper =
              Invitation.choose_helper
                (List.map
                   (fun vn -> (vn.owner, workload_of_phys o vn.owner))
                   candidates)
            in
            match helper with
            | None -> () (* invitation refused *)
            | Some (hpid, _) -> begin
              match arc_of o inviter_id with
              | None -> ()
              | Some arc ->
                ignore
                  (create_sybil o hpid (invitation_split_point o inviter_id arc))
            end
          end
        end
      end)
    o.machs

let strength_decide o =
  let threshold = float_of_int o.params.Params.sybil_threshold in
  let drain_of vn =
    Strength_aware.drain_time ~workload:(List.length vn.keys)
      ~strength:o.machs.(vn.owner).strength
  in
  Array.iter
    (fun m ->
      if m.active && can_decide o m.pid && due o m then begin
        let pid = m.pid in
        let w = workload_of_phys o pid in
        if Random_injection.should_retire ~workload:w ~sybils:(sybil_count o pid)
        then retire_sybils o pid;
        let own_drain =
          Strength_aware.drain_time ~workload:w ~strength:m.strength
        in
        let cap =
          Strength_aware.injection_cap
            ~heterogeneity:o.params.Params.heterogeneity
            ~capacity:(sybil_capacity o pid) ~strength:m.strength
        in
        if own_drain <= threshold && sybil_count o pid < cap then begin
          match m.vnodes with
          | [] -> ()
          | self_id :: _ ->
            let candidates = successor_arcs o pid self_id in
            o.msgs.workload_queries <-
              o.msgs.workload_queries + List.length candidates;
            (* Mirrors Strength_aware.decide: queries all charged, one
               outcome draw per candidate, only in-time replies usable. *)
            let delay = o.params.Params.faults.Faults.straggle_delay in
            let heard =
              List.filter
                (fun (_, vn) ->
                  match reply_outcome o ~from_pid:vn.owner with
                  | `Ok -> true
                  | `Delayed -> delay = 0
                  | `Dropped -> false)
                candidates
            in
            let worst =
              Strength_aware.pick_slowest
                ~drain:(fun (_, vn) -> drain_of vn)
                heard
            in
            let target =
              match worst with
              | Some (arc, vn)
                when Strength_aware.worth_stealing ~own:own_drain
                       ~candidate:(drain_of vn) ->
                Interval.midpoint arc
              | _ -> Keygen.fresh o.rng
            in
            ignore (create_sybil o pid target)
        end
      end)
    o.machs

let static_decide o =
  Array.iter
    (fun m ->
      if m.active && can_decide o m.pid && due o m then begin
        let pid = m.pid in
        let want = sybil_capacity o pid - sybil_count o pid in
        for _ = 1 to want do
          ignore (create_sybil o pid (Keygen.fresh o.rng))
        done
      end)
    o.machs

(* Mirrors Diffusive.decide: candidates are the primary vnode's
   immediate ring neighbors (successor first, then predecessor, deduped
   on a 2-vnode ring, own vnodes excluded); one workload query and one
   fault-stream reply draw per candidate in that order; then up to half
   the queue gradient moves to the lighter heard neighbor through the
   main-stream transfer draws. *)
let diffusive_decide o =
  Array.iter
    (fun m ->
      if m.active && can_decide o m.pid && due o m then begin
        let pid = m.pid in
        match m.vnodes with
        | [] -> ()
        | self_id :: _ -> begin
          match find_vnode o self_id with
          | None -> assert false
          | Some self -> begin
            let keep = function
              | Some vn when vn.owner <> pid -> Some vn
              | _ -> None
            in
            let succ = keep (successor o self_id) in
            let pred = keep (predecessor o self_id) in
            let candidates =
              match (succ, pred) with
              | Some s, Some p when Id.equal s.id p.id -> [ s ]
              | Some s, Some p -> [ s; p ]
              | Some s, None -> [ s ]
              | None, Some p -> [ p ]
              | None, None -> []
            in
            match candidates with
            | [] -> ()
            | _ ->
              o.msgs.workload_queries <-
                o.msgs.workload_queries + List.length candidates;
              let heard =
                List.filter
                  (fun vn ->
                    match reply_outcome o ~from_pid:vn.owner with
                    | `Ok | `Delayed -> true
                    | `Dropped -> false)
                  candidates
              in
              let lighter =
                Diffusive.pick_lighter
                  (List.map (fun vn -> (vn, List.length vn.keys)) heard)
              in
              match lighter with
              | None -> ()
              | Some (dst, neighbor) ->
                let own = List.length self.keys in
                let n = Diffusive.transfer_amount ~own ~neighbor in
                if n > 0 then ignore (transfer_work o ~src:self ~dst n)
          end
        end
      end)
    o.machs

(* Mirrors Range_reassignment.decide: the Invitation overload bar and
   heaviest-vnode rule, an announcement to that vnode's successors (one
   fault-stream reply draw each in walk order, heard ones charged a
   workload query), helper = least-loaded idle machine holding exactly
   its primary presence; the relocation itself is draw-free. *)
let range_decide o =
  let threshold = o.params.Params.sybil_threshold in
  Array.iter
    (fun m ->
      if m.active && can_decide o m.pid && due o m then begin
        let pid = m.pid in
        let w = workload_of_phys o pid in
        if
          Invitation.is_overloaded ~workload:w
            ~invite_factor:o.params.Params.invite_factor
            ~initial_mean:(load_reference o)
        then begin
          let heaviest =
            Invitation.pick_heaviest_vnode
              (List.map (fun id -> (id, vnode_workload o id)) m.vnodes)
          in
          match heaviest with
          | None | Some (_, 0) | Some (_, 1) -> ()
          | Some (heavy_id, heavy_count) -> begin
            let k = o.params.Params.num_successors in
            let succs =
              List.filter (fun vn -> vn.owner <> pid) (k_successors o heavy_id k)
            in
            o.msgs.invitations <- o.msgs.invitations + k;
            let heard =
              List.filter
                (fun vn ->
                  match reply_outcome o ~from_pid:vn.owner with
                  | `Ok | `Delayed -> true
                  | `Dropped -> false)
                succs
            in
            o.msgs.workload_queries <-
              o.msgs.workload_queries + List.length heard;
            let candidates =
              List.filter
                (fun vn ->
                  workload_of_phys o vn.owner <= threshold
                  && sybil_count o vn.owner = 0)
                heard
            in
            let helper =
              Invitation.choose_helper
                (List.map
                   (fun vn -> (vn.owner, workload_of_phys o vn.owner))
                   candidates)
            in
            match helper with
            | None -> () (* reassignment refused *)
            | Some (hpid, _) -> begin
              match find_vnode o heavy_id with
              | None -> assert false
              | Some heavy ->
                let split =
                  List.nth heavy.keys
                    (Range_reassignment.split_rank ~count:heavy_count)
                in
                ignore (relocate_phys o hpid ~id:split)
            end
          end
        end
      end)
    o.machs

let decide_of = function
  | Strategy.No_strategy | Strategy.Induced_churn -> fun _ -> ()
  | Strategy.Random_injection -> random_decide
  | Strategy.Neighbor_injection -> neighbor_decide Neighbor_injection.Estimate
  | Strategy.Smart_neighbor_injection -> neighbor_decide Neighbor_injection.Smart
  | Strategy.Invitation -> invitation_decide
  | Strategy.Strength_aware_injection -> strength_decide
  | Strategy.Static_virtual_nodes -> static_decide
  | Strategy.Diffusive -> diffusive_decide
  | Strategy.Range_reassignment -> range_decide

(* ---- internal invariants (always on) ----------------------------- *)

let check_invariants (o : t) =
  (* Keys strictly ascending and inside their vnode's arc — arc
     membership only until the first diffusive transfer, which
     legitimately parks tasks outside their holder's arc (mirrors
     Dht.check_invariants' relaxation). *)
  List.iter
    (fun vn ->
      let rec check_sorted = function
        | a :: (b :: _ as tl) ->
          if Id.compare a b >= 0 then
            invalid_arg "Oracle: key list not strictly ascending"
          else check_sorted tl
        | _ -> ()
      in
      check_sorted vn.keys;
      if o.msgs.work_transfers = 0 then begin
        let arc =
          match arc_of o vn.id with
          | Some a -> a
          | None -> invalid_arg "Oracle: vnode without arc"
        in
        List.iter
          (fun k ->
            if not (Interval.mem k arc) then
              invalid_arg "Oracle: key outside its vnode's arc")
          vn.keys
      end)
    o.ring;
  (* Ring strictly ascending by id. *)
  let rec ring_sorted = function
    | a :: (b :: _ as tl) ->
      if Id.compare a.id b.id >= 0 then
        invalid_arg "Oracle: ring not strictly ascending"
      else ring_sorted tl
    | _ -> ()
  in
  ring_sorted o.ring;
  (* Machine/ring cross-accounting. *)
  let listed = Hashtbl.create 64 in
  Array.iter
    (fun m ->
      if (not m.active) && m.vnodes <> [] then
        invalid_arg "Oracle: waiting machine with vnodes";
      if m.active && m.vnodes = [] then
        invalid_arg "Oracle: active machine with no ring presence";
      List.iter
        (fun id ->
          if Hashtbl.mem listed id then
            invalid_arg "Oracle: vnode listed twice";
          Hashtbl.replace listed id m.pid)
        m.vnodes)
    o.machs;
  List.iter
    (fun vn ->
      match Hashtbl.find_opt listed vn.id with
      | None -> invalid_arg "Oracle: ring vnode not owned by any machine"
      | Some pid ->
        if vn.owner <> pid then invalid_arg "Oracle: owner mismatch")
    o.ring;
  if Hashtbl.length listed <> ring_size o then
    invalid_arg "Oracle: machine lists a vnode missing from the ring";
  (* Key conservation, conserved-or-accounted-lost (tasks_lost is
     pinned to zero below when live replication is off).  Open systems
     extend the right-hand side with everything the arrival process
     accepted. *)
  if
    o.work_done_total + remaining_tasks o + o.msgs.tasks_lost
    <> o.initial_tasks + o.arrived_total
  then invalid_arg "Oracle: key conservation violated";
  (* Arrival-ledger laws, mirroring State.check_tick_invariants. *)
  if arrivals_on o then begin
    if List.length o.birth <> remaining_tasks o then
      invalid_arg "Oracle: birth ledger size <> live task count";
    List.iter
      (fun vn ->
        List.iter
          (fun k ->
            if not (List.exists (fun (k', _) -> Id.equal k k') o.birth) then
              invalid_arg "Oracle: stored task without a birth record")
          vn.keys)
      o.ring;
    let settled = List.fold_left (fun acc (_, c) -> acc + c) 0 o.sojourn_hist in
    if settled <> o.work_done_total then
      invalid_arg "Oracle: sojourn ledger disagrees with work done"
  end
  else if o.arrived_total <> 0 || o.birth <> [] || o.sojourn_hist <> [] then
    invalid_arg "Oracle: arrival state moved without an arrival plan";
  if not (recovery_on o) then begin
    if o.msgs.tasks_lost <> 0 then
      invalid_arg "Oracle: tasks lost with live replication off";
    if o.msgs.replications <> 0 then
      invalid_arg "Oracle: replication traffic with live replication off"
  end
  else begin
    (* Holder-map structural laws, mirroring the engine's harness. *)
    if List.length o.holders <> ring_size o then
      invalid_arg "Oracle: replica map size <> ring size";
    List.iter
      (fun (id, hs) ->
        if find_vnode o id = None then
          invalid_arg "Oracle: replica map entry for a vnode not in the ring";
        if List.length hs > o.params.Params.replicas then
          invalid_arg "Oracle: holder list longer than the replication degree";
        let rec dup = function
          | [] -> false
          | h :: tl -> List.exists (Id.equal h) tl || dup tl
        in
        if dup hs then invalid_arg "Oracle: duplicate replica holder";
        List.iter
          (fun h ->
            if Id.equal h id then
              invalid_arg "Oracle: vnode is its own replica holder";
            if find_vnode o h = None then
              invalid_arg "Oracle: replica holder not in the ring")
          hs)
      o.holders
  end;
  (* Sybil caps — malicious machines under an enabled plan are exempt,
     mirroring the engine's harness. *)
  let attack_on = Attack.enabled o.params.Params.attack in
  Array.iter
    (fun m ->
      if
        m.active
        && (not (m.malicious && attack_on))
        && sybil_count o m.pid > sybil_capacity o m.pid
      then invalid_arg "Oracle: machine over its Sybil cap")
    o.machs;
  (* Attack and admission laws, mirroring State.check_tick_invariants. *)
  if not attack_on then begin
    if o.msgs.attack_joins <> 0 then
      invalid_arg "Oracle: attack_joins moved without an attack plan";
    if o.attackers <> [] then
      invalid_arg "Oracle: attacker list nonempty without an attack plan"
  end;
  if o.msgs.attack_joins > o.msgs.joins then
    invalid_arg "Oracle: more adversarial joins than joins";
  Array.iter
    (fun m ->
      if m.malicious <> List.mem m.pid o.attackers then
        invalid_arg "Oracle: malicious flag out of sync")
    o.machs;
  if o.params.Params.puzzle_cost = 0 then
    Array.iter
      (fun m ->
        if m.puzzle <> None then
          invalid_arg "Oracle: admission slot with the defense off")
      o.machs
  else
    Array.iter
      (fun m ->
        match m.puzzle with
        | None -> ()
        | Some (_, ready, _) ->
          if not m.active then
            invalid_arg "Oracle: waiting machine holds an admission";
          if ready < 0 || ready > o.tick + o.params.Params.puzzle_cost then
            invalid_arg "Oracle: admission deadline out of range")
      o.machs;
  if o.params.Params.puzzle_cost = 0 && o.msgs.puzzles <> 0 then
    invalid_arg "Oracle: puzzles counted with the admission defense off";
  (* Message accounting: joins - leaves tracks the ring size, and the
     total only ever grows.  [dropped]/[retries] are diagnostics, not
     traffic — excluded exactly as Messages.total excludes them. *)
  if o.msgs.joins - o.msgs.leaves <> ring_size o then
    invalid_arg "Oracle: joins - leaves <> ring size";
  let total =
    o.msgs.joins + o.msgs.leaves + o.msgs.key_transfers
    + o.msgs.workload_queries + o.msgs.invitations + o.msgs.lookup_hops
    + o.msgs.maintenance + o.msgs.replications + o.msgs.work_transfers
  in
  if total < o.last_msg_total then
    invalid_arg "Oracle: message counters decreased";
  o.last_msg_total <- total;
  (* Fault-mode laws, mirroring State.check_tick_invariants. *)
  let f = o.params.Params.faults in
  if (not (Faults.enabled f)) && (o.msgs.dropped <> 0 || o.msgs.retries <> 0)
  then invalid_arg "Oracle: fault counters moved without a fault plan";
  Array.iter
    (fun m ->
      if m.retry_at >= 0 && not m.active then
        invalid_arg "Oracle: waiting machine has a pending retry";
      if m.retry_attempts < 0 || m.retry_attempts > f.Faults.retry_budget then
        invalid_arg "Oracle: retry attempts outside budget")
    o.machs

(* ---- the run loop (mirroring Engine.run_state) ------------------- *)

let run (params : Params.t) (strat : Strategy.t) =
  let o = create params in
  let decide = decide_of strat in
  let strengths = Array.init params.Params.nodes (fun pid -> o.machs.(pid).strength) in
  let ideal = Params.ideal_runtime params ~strengths in
  let cap = max 1 (params.Params.max_ticks_factor * max 1 ideal) in
  let open_sys = Arrivals.enabled params.Params.arrivals in
  let horizon = params.Params.arrivals.Arrivals.horizon in
  let points_rev = ref [] in
  (* Same tick order as Engine.run_state: arrivals land first, then due
     admissions settle, then the adversary moves, then the strategy
     decides on the ring it can actually see. *)
  let step () =
    let (_ : int) = apply_arrivals o in
    process_admissions o;
    apply_attack o;
    decide o;
    let work_done = consume_tick o in
    apply_churn o;
    apply_crash_bursts o;
    repair_replicas o;
    o.tick <- o.tick + 1;
    points_rev :=
      {
        tick = o.tick - 1;
        work_done;
        remaining = remaining_tasks o;
        active_nodes = active_count o;
        vnodes = ring_size o;
      }
      :: !points_rev;
    check_invariants o
  in
  let rec loop () =
    if open_sys then
      if o.tick >= horizon then Finished horizon
      else begin
        step ();
        loop ()
      end
    else if remaining_tasks o = 0 then Finished o.tick
    else if o.tick >= cap then Aborted cap
    else begin
      step ();
      loop ()
    end
  in
  let outcome = loop () in
  let ticks = match outcome with Finished t | Aborted t -> t in
  {
    outcome;
    ideal;
    factor = float_of_int ticks /. float_of_int (max 1 ideal);
    points = Array.of_list (List.rev !points_rev);
    msgs = o.msgs;
    final_vnodes = ring_size o;
    final_active = active_count o;
    work_done_total = o.work_done_total;
    arrived_total = o.arrived_total;
    sojourn_ledger = List.sort compare o.sojourn_hist;
  }
