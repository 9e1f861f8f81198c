type payload = { owner : int }

(* A machine's ring presences are held as the live [Dht.vnode] records,
   not ids: the consume/workload hot paths touch every machine every
   tick, and going id -> record through a DHT lookup on each touch
   dominated the tick at 100k+ nodes.  The lists are kept in
   strict sync with ring membership (join/leave/crash update both
   sides), and [check_invariants] verifies each held record is
   physically the ring's own — a departed record is dropped here and
   emptied by the DHT, so stale reads cannot fabricate workload. *)
(* A pending Sybil admission under the puzzle defense: the vnode id the
   machine wants to join, the tick its puzzle is solved, and whether the
   request came from the adversarial injection path (for the
   [attack_joins] ledger).  At most one per machine — the admission tax
   serializes Sybil creation. *)
type admission = { adm_id : Id.t; ready : int; from_attack : bool }

type phys = {
  pid : int;
  strength : int;
  original_id : Id.t;
  straggler : bool;
  malicious : bool;
  mutable active : bool;
  mutable vnodes : payload Dht.vnode list;
  mutable failed_arcs : Interval.t list;
  mutable retry_attempts : int;
  mutable retry_at : int;
  mutable puzzle : admission option;
}

(* Live replica map ([Params.replicas > 0] only): vnode id -> ids of the
   ring vnodes currently holding a backup of its tasks.  Holder lists
   exclude the owner, contain only live ring members (departures are
   pruned eagerly — with pinned identities a machine can rejoin at an id
   a stale list still names, which would fake a backup), and are capped
   at [replicas].  [backs] is the exact reverse index (holder id -> the
   vnodes whose lists name it): pruning a departure used to scan every
   holder list, which made each churn departure O(ring).  [dirty] holds
   the ids the next repair pass must visit: every ring vnode outside it
   is clean, holding exactly its current successor list, so the full
   walk the oracle runs would draw and charge nothing there.  Every
   membership change marks the vnodes it can touch; a pass clears what
   it fixes. *)
type repl = {
  holders : (Id.t, Id.t list) Hashtbl.t;
  backs : (Id.t, Id.t list ref) Hashtbl.t;
  dirty : (Id.t, unit) Hashtbl.t;
}

type t = {
  params : Params.t;
  dht : payload Dht.t;
  phys : phys array;
  rng : Prng.t;
  frng : Prng.t;
  arng : Prng.t;
  krng : Prng.t;
  partitioned : int;
  attackers : int list;
  repl : repl option;
  initial_mean : float;
  initial_tasks : int;
  hot_centers : Id.t array;
  birth : (Id.t, int) Hashtbl.t;
  sojourn_hist : (int, int) Hashtbl.t;
  mutable tick : int;
  mutable work_done_total : int;
  mutable n_active : int;
  mutable arrived_total : int;
  mutable tick_sojourns : int list;
}

(* --- Replica reverse-index bookkeeping --------------------------------
   [holders] and [backs] always change together through these helpers;
   the checked-mode invariant verifies they stay exact inverses. *)

let holders r v = Option.value ~default:[] (Hashtbl.find_opt r.holders v)

let backs_add r h v =
  match Hashtbl.find_opt r.backs h with
  | None -> Hashtbl.replace r.backs h (ref [ v ])
  | Some l -> if not (List.exists (Id.equal v) !l) then l := v :: !l

let backs_remove r h v =
  match Hashtbl.find_opt r.backs h with
  | None -> ()
  | Some l ->
    l := List.filter (fun x -> not (Id.equal x v)) !l;
    if !l = [] then Hashtbl.remove r.backs h

(* Replace vnode [v]'s holder list, diffing the reverse index. *)
let set_holders r v hs =
  let old = holders r v in
  List.iter
    (fun h -> if not (List.exists (Id.equal h) hs) then backs_remove r h v)
    old;
  List.iter
    (fun h -> if not (List.exists (Id.equal h) old) then backs_add r h v)
    hs;
  Hashtbl.replace r.holders v hs

(* Forget vnode [v]'s own entry (it left the ring). *)
let drop_holder_entry r v =
  List.iter (fun h -> backs_remove r h v) (holders r v);
  Hashtbl.remove r.holders v

(* Drop departed id [h] from every holder list that names it — the
   reverse index knows exactly which, so a departure costs O(lists
   naming it) instead of a scan of the whole map. *)
let prune_holder r h =
  match Hashtbl.find_opt r.backs h with
  | None -> ()
  | Some l ->
    let backed = !l in
    Hashtbl.remove r.backs h;
    List.iter
      (fun v ->
        match Hashtbl.find_opt r.holders v with
        | None -> ()
        | Some hs ->
          Hashtbl.replace r.holders v
            (List.filter (fun x -> not (Id.equal x h)) hs))
      backed

(* --- Construction ------------------------------------------------------
   [create] and [For_testing.build] differ only in where the machines,
   the keys and the setup draws come from; both build the machines and
   assemble the record through the helpers below.  Setup joins carry no
   replica bookkeeping: [assemble] enrols every vnode in bulk once the
   keys are stored. *)

(* A machine holding the ring records [vnodes] (head = primary; [[]] =
   waiting). *)
let machine ~pid ~strength ~original_id ?(straggler = false)
    ?(malicious = false) vnodes =
  {
    pid;
    strength;
    original_id;
    straggler;
    malicious;
    active = vnodes <> [];
    vnodes;
    failed_arcs = [];
    retry_attempts = 0;
    retry_at = -1;
    puzzle = None;
  }

(* Live replication: the initial data load ships with its backups —
   every vnode's tasks are enrolled on its next [replicas] successors,
   charged as replication traffic but with no enrolment-drop draws
   (repl_drop models the lazy repair path, not the setup).  Enrolment
   is bulk: one ascending pass with index arithmetic over the sorted
   vnode array gives each vnode the same successor list a
   [Dht.k_successors] walk would, without n O(k log n) walks. *)
let enrol_replicas (params : Params.t) dht =
  if not (Params.recovery_on params) then None
  else begin
    let r =
      {
        holders = Hashtbl.create 256;
        backs = Hashtbl.create 256;
        dirty = Hashtbl.create 256;
      }
    in
    let m = Dht.messages dht in
    let vns = Array.of_list (List.rev (Dht.fold List.cons dht [])) in
    let count = Array.length vns in
    let want = min params.replicas (count - 1) in
    Array.iteri
      (fun i vn ->
        m.Messages.replications <-
          m.Messages.replications + (want * Dht.load vn);
        set_holders r vn.Dht.id
          (List.init want (fun j -> vns.((i + j + 1) mod count).Dht.id)))
      vns;
    Some r
  end

(* Store the task keys, enrol their replicas and assemble the record.
   Open system only: every stored key carries a birth tick so its
   sojourn can be settled at completion, and the initial batch is born
   at tick 0.  The ring holds no keys yet, so [insert_keys] drops only
   in-batch duplicates, and [replace] collapses those the same way:
   enrolling the array records exactly the stored population without
   reading a key back out of the ring. *)
let assemble (params : Params.t) ~dht ~phys ~rng ~frng ~arng ~krng
    ~partitioned ~attackers ~hot_centers keys =
  let initial_tasks =
    match Dht.insert_keys dht keys with
    | Ok n -> n (* duplicate keys (negligible probability) drop silently *)
    | Error `Empty_ring -> invalid_arg "State: task keys for an empty ring"
  in
  let repl = enrol_replicas params dht in
  let arrivals_on = Arrivals.enabled params.arrivals in
  let birth = Hashtbl.create (if arrivals_on then 4096 else 1) in
  if arrivals_on then Array.iter (fun k -> Hashtbl.replace birth k 0) keys;
  {
    params;
    dht;
    phys;
    rng;
    frng;
    arng;
    krng;
    partitioned;
    attackers;
    repl;
    initial_mean = float_of_int params.tasks /. float_of_int params.nodes;
    initial_tasks;
    hot_centers;
    birth;
    sojourn_hist = Hashtbl.create (if arrivals_on then 256 else 1);
    tick = 0;
    work_done_total = 0;
    n_active =
      Array.fold_left (fun acc p -> if p.active then acc + 1 else acc) 0 phys;
    arrived_total = 0;
    tick_sojourns = [];
  }

let create (params : Params.t) =
  (match Params.validate params with
  | Ok () -> ()
  | Error msg -> invalid_arg ("State.create: " ^ msg));
  let rng = Prng.create params.seed in
  let n = params.nodes in
  let total_phys = 2 * n in
  let ids = Keygen.node_ids rng total_phys in
  (* Fault-stream setup draws happen first and only when the plan asks
     for them; with Faults.none the stream is created but never
     consumed, and nothing here touches the main stream (mirrored in
     lib/oracle — the fault draw-order contract).  The straggler picks
     go through [Sample.indices], which draws and selects exactly like
     the naive shrinking-list loop the oracle still runs. *)
  let frng = Faults.rng ~seed:params.seed in
  let faults = params.faults in
  let straggler = Array.make total_phys false in
  List.iter
    (fun pid -> straggler.(pid) <- true)
    (Sample.indices frng ~n:total_phys
       ~k:(min faults.Faults.stragglers total_phys));
  let partitioned =
    match faults.Faults.partition with
    | Some _ -> Prng.int_below frng n
    | None -> -1
  in
  (* Attack-stream setup draws ([Attack.rng], the fourth dedicated
     stream): iff the plan is enabled, the malicious machines are drawn
     without replacement from the initially active pids — through
     [Sample.indices], which draws and selects exactly like the naive
     shrinking-list loop the oracle still runs.  A disabled plan never
     consumes an attack draw, so the run stays bit-identical to an
     engine without lib/adversary at all (mirrored in lib/oracle — the
     attack draw-order contract in docs/TESTING.md). *)
  let krng = Attack.rng ~seed:params.seed in
  let malicious = Array.make total_phys false in
  let attackers =
    if Attack.enabled params.attack then begin
      let picks =
        List.sort compare
          (Sample.indices krng ~n ~k:(min params.attack.Attack.machines n))
      in
      List.iter (fun pid -> malicious.(pid) <- true) picks;
      picks
    end
    else []
  in
  (* The first [nodes] machines start on the ring at their own ids; the
     joins draw nothing, so the strengths are still drawn in pid order
     right before the task keys. *)
  let dht = Dht.create () in
  let primaries =
    Array.init n (fun pid ->
        match Dht.join dht ~id:ids.(pid) ~payload:{ owner = pid } with
        | Ok vn -> vn
        | Error `Occupied -> assert false (* node ids are drawn distinct *))
  in
  let phys =
    Array.init total_phys (fun pid ->
        let strength =
          match params.heterogeneity with
          | Params.Homogeneous -> 1
          | Params.Heterogeneous -> Prng.int_in rng ~lo:1 ~hi:params.max_sybils
        in
        machine ~pid ~strength ~original_id:ids.(pid)
          ~straggler:straggler.(pid) ~malicious:malicious.(pid)
          (if pid < n then [ primaries.(pid) ] else []))
  in
  let keys =
    match params.keys with
    | Params.Uniform_sha1 -> Keygen.task_keys rng params.tasks
    | Params.Clustered { hotspots; spread; zipf_s } ->
      let centers = Keygen.node_ids rng hotspots in
      Array.init params.tasks (fun _ ->
          let j = Keygen.zipf rng ~n:hotspots ~s:zipf_s - 1 in
          let offset = Id.of_fraction (Prng.float_unit rng *. spread) in
          Id.add centers.(j) offset)
  in
  (* Arrival-stream setup draws ([Arrivals.rng], the third dedicated
     stream): iff the plan is enabled AND uses hot keys, the hotspot
     centers are drawn first; nothing else draws at setup.  A disabled
     plan never consumes an arrival draw, so the run stays bit-identical
     to an engine without lib/arrivals at all (mirrored in lib/oracle —
     the arrival draw-order contract in docs/TESTING.md). *)
  let arng = Arrivals.rng ~seed:params.seed in
  let hot_centers =
    match params.arrivals.Arrivals.keys with
    | Arrivals.Hot { hotspots; _ } when Arrivals.enabled params.arrivals ->
      Keygen.node_ids arng hotspots
    | _ -> [||]
  in
  assemble params ~dht ~phys ~rng ~frng ~arng ~krng ~partitioned ~attackers
    ~hot_centers keys

let remaining_tasks t = Dht.total_keys t.dht

(* Maintained at every join/leave/crash: [Trace.record] asks once per
   tick, which used to re-fold the whole phys array. *)
let active_count t = t.n_active

let vnode_count t = Dht.size t.dht

let workload_of_phys t pid =
  let rec go acc = function
    | [] -> acc
    | (vn : payload Dht.vnode) :: rest ->
      go (acc + Dht.load vn) rest
  in
  go 0 t.phys.(pid).vnodes

let capacity_of_phys t pid =
  match t.params.work with
  | Params.Task_per_tick -> 1
  | Params.Strength_per_tick -> t.phys.(pid).strength

(* Ring presences per machine are capped at [max_sybils + 1], so the
   list length here is a bounded constant, not a per-tick scan (the
   ISSUE-6 audit of per-tick List.length calls). *)
let sybil_count t pid = max 0 (List.length t.phys.(pid).vnodes - 1)

let sybil_capacity t pid =
  match t.params.heterogeneity with
  | Params.Homogeneous -> t.params.max_sybils
  | Params.Heterogeneous -> t.phys.(pid).strength

let workloads_snapshot t =
  let acc = ref [] in
  Array.iter
    (fun p -> if p.active then acc := workload_of_phys t p.pid :: !acc)
    t.phys;
  Array.of_list (List.rev !acc)

let strengths_of_initial t =
  Array.init t.params.nodes (fun pid -> t.phys.(pid).strength)

(* Settle a completed task's ledger entry (open system only): sojourn is
   arrival-to-completion inclusive, so a task injected and completed in
   the same tick scores 1.  The per-tick list feeds the steady-state
   window collector; the histogram is the run-level ledger the oracle
   must match bit-for-bit. *)
let note_sojourn t key =
  match Hashtbl.find_opt t.birth key with
  | None -> invalid_arg "State: completed a task with no birth record"
  | Some b ->
    Hashtbl.remove t.birth key;
    let s = t.tick - b + 1 in
    t.tick_sojourns <- s :: t.tick_sojourns;
    Hashtbl.replace t.sojourn_hist s
      (1 + Option.value ~default:0 (Hashtbl.find_opt t.sojourn_hist s))

let consume_tick t =
  (* Workers complete tasks in no particular key order; a uniform pick
     keeps the remaining keys uniformly spread within each arc, which
     matters because Sybil placement reasons about arc fractions. *)
  let dht = t.dht in
  let pick c = Prng.int_below t.rng c in
  (* The open-system drain takes the same keys with the same draws; it
     additionally learns their identities to settle sojourns.  The
     closed-system path stays the count-only hot path. *)
  let open_sys = Arrivals.enabled t.params.Params.arrivals in
  if open_sys then t.tick_sojourns <- [];
  let rec drain vns budget acc =
    match vns with
    | [] -> acc
    | vn :: rest ->
      if budget <= 0 then acc
      else
        let c =
          if open_sys then begin
            let taken = Dht.consume_vnode_keys ~pick dht vn budget in
            List.iter (note_sojourn t) taken;
            List.length taken
          end
          else Dht.consume_vnode ~pick dht vn budget
        in
        drain rest (budget - c) (acc + c)
  in
  let per_strength =
    match t.params.work with
    | Params.Task_per_tick -> false
    | Params.Strength_per_tick -> true
  in
  let phys = t.phys in
  (* Work starvation: while the attack window is active, malicious
     machines hold their arcs hostage — vnodes stay in the ring and
     accumulate keys, but complete no tasks. *)
  let attacking = Attack.active t.params.Params.attack ~tick:t.tick in
  let total = ref 0 in
  for pid = 0 to Array.length phys - 1 do
    let p = Array.unsafe_get phys pid in
    if p.active && not (attacking && p.malicious) then
      total :=
        !total + drain p.vnodes (if per_strength then p.strength else 1) 0
  done;
  t.work_done_total <- t.work_done_total + !total;
  !total

(* Diffusive work transfer (strategy 9): tasks move between two vnode
   records on the main strategy stream — one [Prng.int_below] per moved
   task, bounds c, c-1, ... exactly like consumption, drawn at the point
   in the decide scan where the transferring machine acts.  The oracle
   replays these draws naively, so the draw-order contract
   (docs/TESTING.md) names them.  Conservation: [total_keys] is
   unchanged; each move is charged to [work_transfers]. *)
let transfer_work t ~src ~dst n =
  let pick c = Prng.int_below t.rng c in
  Dht.transfer_keys ~pick t.dht ~src ~dst n

(* A join in a real DHT costs a lookup; with no live finger tables in the
   hot loop we charge Chord's expected hop count for the current size. *)
let lookup_cost t =
  let n = max 2 (Dht.size t.dht) in
  int_of_float (ceil (Routing.expected_hops n))

let add_hops t hops =
  let m = Dht.messages t.dht in
  m.Messages.lookup_hops <- m.Messages.lookup_hops + hops

let charge_lookup t = add_hops t (lookup_cost t)

(* --- Replica-map maintenance -------------------------------------------
   Only live when [Params.replicas > 0] ([t.repl = Some _]); every helper
   is a no-op otherwise, so the recovery-off engine is untouched.  The
   bookkeeping below is deterministic (no draws); the only recovery
   randomness is the optional repl_drop bernoulli in the repair pass. *)

let replica_holders t id =
  match t.repl with None -> [] | Some r -> holders r id

let rec take n = function
  | [] -> []
  | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl

let mark r id = Hashtbl.replace r.dirty id ()

(* The vnodes whose successor lists reach position [id] of the current
   ring: the only ones a member arriving or departing there can move. *)
let mark_predecessors t r id =
  List.iter
    (fun (vn : payload Dht.vnode) -> mark r vn.Dht.id)
    (Dht.k_predecessors t.dht id t.params.Params.replicas)

(* A vnode that just joined at [id] took over part of its successor's
   arc; that donor keeps holding the handed-over tasks, so the newcomer
   starts out backed by the donor plus the donor's own holders (capped
   at [replicas]) until the next repair pass rebuilds its true successor
   list.  The ring's first vnode is its own successor and has no
   donor. *)
let repl_note_join t id =
  match t.repl with
  | None -> ()
  | Some r ->
    set_holders r id
      (match Dht.successor t.dht id with
      | Some d when not (Id.equal d.Dht.id id) ->
        take t.params.Params.replicas (d.Dht.id :: holders r d.Dht.id)
      | _ -> []);
    mark r id;
    mark_predecessors t r id

(* A graceful leave just merged the leaver's range into its successor:
   a holder backs the merged range only if it already backed both parts,
   so the recipient's list intersects with the leaver's. *)
let repl_note_leave t id =
  match t.repl with
  | None -> ()
  | Some r ->
    let own = holders r id in
    drop_holder_entry r id;
    (match Dht.successor t.dht id with
    | None -> ()
    | Some s ->
      let s = s.Dht.id in
      set_holders r s
        (List.filter (fun h -> List.exists (Id.equal h) own) (holders r s));
      mark r s);
    prune_holder r id;
    mark_predecessors t r id

(* --- Ring moves ----------------------------------------------------------
   Every join and every graceful leave of a running simulation goes
   through [join_vnode] and [leave_vnode], which keep the ring, the
   replica map and the machine's vnode list in step.  Lookup charges,
   activation and ledgers stay with the callers, which differ in them. *)

(* [false], changing nothing, when [id] is occupied. *)
let join_vnode t p id =
  match Dht.join t.dht ~id ~payload:{ owner = p.pid } with
  | Error `Occupied -> false
  | Ok vn ->
    repl_note_join t id;
    p.vnodes <- p.vnodes @ [ vn ];
    true

let rec without vn = function
  | [] -> []
  | v :: rest -> if v == vn then rest else v :: without vn rest

(* [false], changing nothing, when [vn] is the ring's last vnode:
   someone must hold the keys, and receive the next arrivals. *)
let leave_vnode t p (vn : payload Dht.vnode) =
  match Dht.leave t.dht vn.Dht.id with
  | Error `Last_node -> false
  | Error `Not_member -> assert false
  | Ok () ->
    repl_note_leave t vn.Dht.id;
    p.vnodes <- without vn p.vnodes;
    true

(* A moved or departed machine's arc memory, in-flight query retry and
   half-solved admission puzzle are stale; it starts fresh wherever it
   joins next. *)
let forget_position p =
  p.failed_arcs <- [];
  p.retry_attempts <- 0;
  p.retry_at <- -1;
  p.puzzle <- None

let deactivate t p =
  if p.active then t.n_active <- t.n_active - 1;
  p.active <- false;
  p.vnodes <- [];
  forget_position p

let count_attack_join t =
  let m = Dht.messages t.dht in
  m.Messages.attack_joins <- m.Messages.attack_joins + 1

(* Start one admission puzzle ([Params.puzzle_cost > 0] only): the
   lookup is charged now (the requester had to route to the target id
   either way) and the join is deferred to [process_admissions] at
   [tick + puzzle_cost].  At most one per machine — callers check the
   slot is free, so the tax serializes Sybil creation per machine. *)
let start_puzzle t pid id ~from_attack =
  charge_lookup t;
  let m = Dht.messages t.dht in
  m.Messages.puzzles <- m.Messages.puzzles + 1;
  t.phys.(pid).puzzle <-
    Some { adm_id = id; ready = t.tick + t.params.Params.puzzle_cost; from_attack }

let create_sybil t pid id =
  let p = t.phys.(pid) in
  if (not p.active) || sybil_count t pid >= sybil_capacity t pid then false
  else if t.params.Params.puzzle_cost > 0 then
    (* Puzzle defense: the request is accepted only if no admission is
       already pending here; the vnode joins once the puzzle is solved.
       The cap needs no re-check at completion — between request and
       admission this machine can gain no other vnode (the busy slot
       refuses further requests), and leave/crash clears the slot. *)
    if p.puzzle <> None then false
    else begin
      start_puzzle t pid id ~from_attack:false;
      true
    end
  else begin
    charge_lookup t;
    join_vnode t p id
  end

let retire_sybils t pid =
  let p = t.phys.(pid) in
  match p.vnodes with
  | [] -> ()
  | _ :: sybils ->
    List.iter
      (fun vn ->
        if not (leave_vnode t p vn) then
          assert false (* the primary is still present *))
      sybils;
    (* Invariant mode verifies the retirement actually cleared the ring:
       a zero-work machine must not keep ghost Sybil vnodes behind. *)
    if Params.check_requested t.params then
      List.iter
        (fun (vn : payload Dht.vnode) ->
          match Dht.find t.dht vn.Dht.id with
          | Some _ ->
            invalid_arg "State: retired Sybil vnode still present in the ring"
          | None -> ())
        sybils

(* Departure of a whole machine: Sybils leave first, then the primary.
   The primary survives only if it is the ring's last vnode. *)
let leave_phys t pid =
  let p = t.phys.(pid) in
  retire_sybils t pid;
  match p.vnodes with
  | [] -> ()
  | [ primary ] -> if leave_vnode t p primary then deactivate t p
  | _ :: _ -> assert false

(* Message-accounting contract (docs/TESTING.md): a machine rejoin is
   charged its lookup hops only when the join lands.  A refused rejoin
   (`Occupied, only reachable with pinned identities) stays waiting and
   retries on a later tick — billing every retry would charge one join
   without bound.  The hop count is priced at the pre-join ring size. *)
let join_phys t pid =
  let p = t.phys.(pid) in
  let id =
    if t.params.rejoin_fresh_id then Keygen.fresh t.rng else p.original_id
  in
  let hops = lookup_cost t in
  if join_vnode t p id then begin
    add_hops t hops;
    p.active <- true;
    t.n_active <- t.n_active + 1
  end

(* Range reassignment (strategy 10): a helper machine gives up its
   current ring position and rejoins at [id] — typically a split point
   inside an overloaded neighbor's arc — so keys move by ownership
   change through the existing leave/join machinery, no Sybils and no
   work transfers.  Only a machine with exactly its primary presence
   relocates (Sybil holders keep their portfolio).  The move consumes no
   strategy-stream draws; it charges the leave, the join, both key
   handovers, and the join's lookup at the post-leave ring size.
   Refused — a deterministic no-op with no charges — when the target id
   is occupied or the leaver is the ring's last vnode. *)
let relocate_phys t pid ~id =
  let p = t.phys.(pid) in
  match p.vnodes with
  | [ primary ] when p.active && Dht.find t.dht id = None ->
    leave_vnode t p primary
    && begin
         let hops = lookup_cost t in
         (* The target was checked free and a leave cannot occupy it. *)
         if not (join_vnode t p id) then assert false;
         add_hops t hops;
         forget_position p;
         true
       end
  | _ -> false

(* Ungraceful death, live-replication model ([replicas > 0]): all vnodes
   of all [pids] die in ONE simultaneous event.  Every dying vnode is
   torn out of the ring with no handover; then, per vnode in death
   order, its tasks are either fetched from a surviving replica holder
   (merging into the first surviving successor, one [key_transfers]
   charge per task) or — when the whole replica group died in the event
   — genuinely lost and charged to [tasks_lost].  No draws: the victim
   selection already happened on the fault stream, and the loss
   predicate is deterministic (it must equal
   [Replication.loss_after_failure] on the same ring).  There is no
   last-node protection here: a crash does not ask permission, so a
   large enough event may empty the ring and lose everything. *)
let crash_machines t r pids =
  let dying =
    List.concat_map
      (fun pid ->
        List.map (fun (vn : payload Dht.vnode) -> vn.Dht.id) t.phys.(pid).vnodes)
      pids
  in
  let dead = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace dead id ()) dying;
  let removed =
    List.map
      (fun id ->
        match Dht.crash t.dht id with
        | Ok keys -> (id, keys)
        | Error `Not_member -> assert false)
      dying
  in
  List.iter (fun pid -> deactivate t t.phys.(pid)) pids;
  let m = Dht.messages t.dht in
  List.iter
    (fun (id, keys) ->
      (* Eager pruning keeps holder lists inside the ring, so a holder
         is live iff it did not die in this same event. *)
      if List.exists (fun h -> not (Hashtbl.mem dead h)) (holders r id) then
        ignore (Dht.restore t.dht ~near:id keys)
      else begin
        m.Messages.tasks_lost <- m.Messages.tasks_lost + Dht.keys_count keys;
        (* Lost tasks never complete: close their ledger entries so the
           birth table keeps tracking exactly the live population. *)
        if Arrivals.enabled t.params.Params.arrivals then
          Dht.keys_iter (fun k -> Hashtbl.remove t.birth k) keys
      end)
    removed;
  List.iter (fun (id, _) -> drop_holder_entry r id) removed;
  List.iter (fun (id, _) -> prune_holder r id) removed;
  (* Read from the ring after every removal of the event. *)
  List.iter (fun (id, _) -> mark_predecessors t r id) removed

(* Ungraceful death of [pids], the one dispatch behind churn failures,
   the attack's window-close crash and crash bursts.  With live
   replication the whole list is one crash event ([crash_machines]).
   In the assumed-reliable model ([replicas = 0]) each machine in turn
   departs like a leave, except nobody hands keys over — the successor
   must fetch them from its replicas, so the recovery costs a second
   transfer of every key the dead machine held (the paper's
   active-backup assumption makes the fetch always succeed).  Recovery
   is billed only if the machine actually departs: the ring's last
   vnode refuses the departure (`Last_node) and keeps serving its keys,
   so there is nothing to recover. *)
let fail_machines t pids =
  match t.repl with
  | Some r -> crash_machines t r pids
  | None ->
    List.iter
      (fun pid ->
        let lost_keys = workload_of_phys t pid in
        leave_phys t pid;
        if not t.phys.(pid).active then begin
          let m = Dht.messages t.dht in
          m.Messages.key_transfers <- m.Messages.key_transfers + lost_keys
        end)
      pids

(* A lone churn failure is a one-machine crash event: with live
   replication its tasks survive iff a replica holder outlives it. *)
let fail_phys t pid = fail_machines t [ pid ]

let apply_churn t =
  let churn = t.params.churn_rate and fail = t.params.failure_rate in
  (* Waiting machines rejoin at the combined departure rate so the pool
     stays in equilibrium; the sum of two probabilities can exceed 1
     (e.g. churn 0.8 + fail 0.5), so clamp before drawing. *)
  let rejoin = min 1.0 (churn +. fail) in
  if churn > 0.0 || fail > 0.0 then
    Array.iter
      (fun p ->
        if p.active then begin
          if churn > 0.0 && Prng.bernoulli t.rng churn then leave_phys t p.pid
          else if fail > 0.0 && Prng.bernoulli t.rng fail then fail_phys t p.pid
        end
        else if Prng.bernoulli t.rng rejoin then join_phys t p.pid)
      t.phys

(* --- Arrivals ----------------------------------------------------------
   All arrival randomness lives on [t.arng]; nothing below ever touches
   the main or fault streams, so a disabled plan leaves every simulation
   bit-identical.  The oracle replays these draws in the same order
   (docs/TESTING.md).  Per tick: one Knuth product loop for the count
   (k+1 [float_unit] draws for k arrivals; a zero rate draws nothing),
   then per arriving task in order its key draw — uniform keys cost two
   [bits64] draws ([Keygen.fresh]), hot keys one zipf [float_unit] plus
   one offset [float_unit], exactly like clustered batch keys. *)

let apply_arrivals t =
  let plan = t.params.Params.arrivals in
  if not (Arrivals.enabled plan) then 0
  else begin
    let lambda = Arrivals.rate_at plan ~tick:t.tick in
    let count = Arrivals.poisson_count t.arng lambda in
    let m = Dht.messages t.dht in
    let accepted = ref 0 in
    for _ = 1 to count do
      (* The key is drawn unconditionally — the arrival-stream layout
         must not depend on ring state. *)
      let key =
        match plan.Arrivals.keys with
        | Arrivals.Uniform -> Keygen.fresh t.arng
        | Arrivals.Hot { hotspots; spread; zipf_s } ->
          let j = Keygen.zipf t.arng ~n:hotspots ~s:zipf_s - 1 in
          let offset = Id.of_fraction (Prng.float_unit t.arng *. spread) in
          Id.add t.hot_centers.(j) offset
      in
      if Dht.size t.dht = 0 then begin
        (* Total wipeout (reachable only with live replication on): the
           task arrived to a dead system — accepted, immediately lost,
           and accounted; there was nobody to route through, so no hops
           are charged. *)
        t.arrived_total <- t.arrived_total + 1;
        incr accepted;
        m.Messages.tasks_lost <- m.Messages.tasks_lost + 1
      end
      else begin
        (* Routing the task to its owner costs a lookup — charged even
           when the key turns out to be a duplicate (the node had to
           route there to discover that, like create_sybil's refused
           midpoint).  A key live anywhere is a duplicate: after a
           diffusive transfer it may sit off its owner's arc, where the
           owner's own check cannot see it, and the birth table tracks
           exactly the live keys. *)
        charge_lookup t;
        if not (Hashtbl.mem t.birth key) then
          match Dht.insert_key t.dht key with
          | Ok () ->
            t.arrived_total <- t.arrived_total + 1;
            incr accepted;
            Hashtbl.replace t.birth key t.tick
          | Error `Duplicate -> () (* dropped at the door; never entered *)
          | Error `Empty_ring -> assert false
      end
    done;
    !accepted
  end

(* --- Adversary ---------------------------------------------------------
   All attack randomness lives on [t.krng]; nothing below ever touches
   the main, fault or arrival streams, so a disabled plan leaves every
   simulation bit-identical.  The oracle replays these draws in the same
   order (the attack draw-order contract in docs/TESTING.md). *)

(* Settle due admission puzzles, in ascending pid order.  Draw-free: the
   admission id was drawn at request time.  The slot is cleared first so
   a refused join (`Occupied — the id filled while solving) simply
   wastes the puzzle.  An inactive machine's slot was already cleared by
   leave/crash, so the [p.active] guard is belt-and-braces for the
   window between those paths and this pass. *)
let process_admissions t =
  if t.params.Params.puzzle_cost > 0 then
    Array.iter
      (fun p ->
        match p.puzzle with
        | Some a when a.ready <= t.tick ->
          p.puzzle <- None;
          if p.active && join_vnode t p a.adm_id && a.from_attack then
            count_attack_join t
        | _ -> ())
      t.phys

(* One tick of the adversary.  While the plan is active, each
   still-active malicious machine — ascending pid order — eclipses the
   targeted arc: defense off, [strength] placements per tick (one
   attack-stream draw each, joined immediately); defense on, ONE
   placement draw iff the machine's puzzle slot is free — the admission
   tax throttles even the adversary to one pending Sybil at a time.  An
   immediate adversarial join bypasses the Sybil cap — fabricating
   identities is exactly what the cap cannot police without an
   admission cost — but pays the same lookup any join pays; a refused
   join (`Occupied) wastes the attempt.  Inactive attackers (churned
   out) draw nothing.  When a windowed plan's window closes (the tick
   AFTER the last active one), every still-active malicious machine
   crashes in one event — recovered from live replicas when they exist,
   via the assumed-backup path otherwise. *)
let apply_attack t =
  let plan = t.params.Params.attack in
  if Attack.enabled plan then begin
    if Attack.active plan ~tick:t.tick then
      List.iter
        (fun pid ->
          let p = t.phys.(pid) in
          if p.active then
            if t.params.Params.puzzle_cost > 0 then begin
              if p.puzzle = None then
                start_puzzle t pid (Attack.inject_id t.krng plan)
                  ~from_attack:true
            end
            else
              for _ = 1 to plan.Attack.strength do
                let id = Attack.inject_id t.krng plan in
                charge_lookup t;
                if join_vnode t p id then count_attack_join t
              done)
        t.attackers;
    match Attack.crash_tick plan with
    | Some stop when stop = t.tick ->
      fail_machines t (List.filter (fun pid -> t.phys.(pid).active) t.attackers)
    | _ -> ()
  end

(* The overload bar Invitation measures against.  A batch run compares
   to the frozen setup mean (tasks / nodes) — the paper's rule; an open
   system has no meaningful fixed total, so the bar tracks the live mean
   load per active machine.  Same float computation on both sides of the
   differential oracle; arrivals-off returns [initial_mean] exactly, so
   golden pins are unaffected. *)
let load_reference t =
  if Arrivals.enabled t.params.Params.arrivals then
    float_of_int (Dht.total_keys t.dht) /. float_of_int (max 1 t.n_active)
  else t.initial_mean

let sojourn_ledger t =
  List.sort compare
    (Hashtbl.fold (fun s c acc -> (s, c) :: acc) t.sojourn_hist [])

let advance_tick t = t.tick <- t.tick + 1

(* Visit, in ascending pid order, every machine whose decision logic
   could possibly act this tick; strategies keep their own active /
   can_decide / due guards on the visited machines.  Under a fault plan
   this is all machines (smart-query retries fire off the regular
   cadence, and only a fault plan can create them); otherwise only the
   machines passing [Decision.due] are visited — with a staggered
   cadence that is every [period]-th pid, so a tick costs O(n / period)
   instead of scanning the whole ring to discard the not-due
   majority. *)
let iter_decision_candidates t f =
  if Faults.enabled t.params.Params.faults then Array.iter f t.phys
  else begin
    let period = t.params.Params.decision_period in
    if t.params.Params.stagger_decisions then begin
      (* due_at: (tick + pid) mod period = 0  <=>  pid ≡ -tick (mod p). *)
      let start = (period - (t.tick mod period)) mod period in
      let n = Array.length t.phys in
      let pid = ref start in
      while !pid < n do
        f t.phys.(!pid);
        pid := !pid + period
      done
    end
    else if t.tick mod t.params.Params.decision_period = 0 then
      Array.iter f t.phys
  end

let note_failed_arc t pid arc =
  let p = t.phys.(pid) in
  (* Keep a small bounded memory; old failures age out as the list is
     truncated. *)
  p.failed_arcs <- take 8 (arc :: p.failed_arcs)

let arc_recently_failed t pid arc =
  List.exists
    (fun (a : Interval.t) ->
      Id.equal a.Interval.after arc.Interval.after
      && Id.equal a.Interval.upto arc.Interval.upto)
    t.phys.(pid).failed_arcs

(* --- Faults ------------------------------------------------------------
   All fault randomness lives on [t.frng]; nothing below ever touches the
   main stream, so a disabled plan leaves every simulation bit-identical.
   The oracle replays these draws in the same order (docs/TESTING.md). *)

let is_partitioned t pid =
  pid = t.partitioned
  && Faults.partition_active t.params.Params.faults ~tick:t.tick

(* Malicious machines run no honest balancing logic while their plan is
   active (their Sybils come from the injection path); outside the
   window — before it opens, or for a rejoined attacker after the crash
   — they behave like any other machine. *)
let can_decide t pid =
  (not (is_partitioned t pid))
  && not
       (t.phys.(pid).malicious
       && Attack.active t.params.Params.attack ~tick:t.tick)

(* One query round's replies, the single rule every strategy asks.  Per
   candidate in order: partitioned sender (no draw), else the drop
   bernoulli (a draw only when 0 < p < 1 — [Prng.bernoulli]
   short-circuits at the endpoints), else the straggler flag (no draw).
   [List.filter] visits every candidate even after a miss — the queries
   went out in parallel, so each reply takes its draw.  Charges
   [dropped] internally so callers cannot forget. *)
let heard t ~late_ok vnode candidates =
  let drop = t.params.Params.faults.Faults.drop in
  let m = Dht.messages t.dht in
  List.filter
    (fun c ->
      let pid = (vnode c : payload Dht.vnode).Dht.payload.owner in
      if is_partitioned t pid || Prng.bernoulli t.frng drop then begin
        m.Messages.dropped <- m.Messages.dropped + 1;
        false
      end
      else late_ok || not t.phys.(pid).straggler)
    candidates

let charge_retry t =
  let m = Dht.messages t.dht in
  m.Messages.retries <- m.Messages.retries + 1

(* Scheduled crash burst: [count] victims drawn without replacement from
   the machines active when the burst fires, in fault-stream draw order.
   The draws never depend on earlier victims' deaths (the pool is fixed
   up front), so collecting all victims first is bit-identical to the
   old draw-one-fail-one loop.  [Sample.indices] consumes the same
   draws and returns the same picks as the naive shrinking-list loop
   (which the oracle still runs as the reference) in O((n + k) log n)
   instead of O(n * k).  With [replicas = 0] each victim then dies via
   the assumed-reliable path in draw order (recovery traffic charged,
   last-key-holder protection applies); with [replicas > 0] the whole
   burst is ONE simultaneous crash event — a task is lost iff its owner
   and every replica holder died together, matching
   [Replication.loss_after_failure] on the pre-burst ring. *)
let apply_crash_bursts t =
  let count = Faults.burst_at t.params.Params.faults ~tick:t.tick in
  if count > 0 then begin
    let alive = Array.make (max 1 t.n_active) 0 in
    let m = ref 0 in
    Array.iter
      (fun p ->
        if p.active then begin
          alive.(!m) <- p.pid;
          incr m
        end)
      t.phys;
    fail_machines t
      (List.map
         (fun i -> alive.(i))
         (Sample.indices t.frng ~n:!m ~k:(min count !m)))
  end

(* Lazy replica repair ([replicas > 0] only): every [repair_lag] ticks,
   bring every dirty vnode's holder list back to its current successor
   list, in ascending id order.  Holders already enrolled carry over for
   free; each missing one costs a fresh copy of the vnode's current
   tasks ([replications] charges) and — under a [repl_drop] plan — one
   fault-stream bernoulli that can fail the enrolment for this pass; a
   vnode left short stays dirty for the next.  Draw order: vnodes
   ascending, then missing holders in successor-walk order.  Holders
   that fell out of the successor list (ring drift) are dropped.  A
   clean vnode has no missing holder and no drifted one, so the full
   walk the oracle runs draws, charges and changes nothing there; a
   dirty id that has left the ring is skipped. *)
let repair_replicas t =
  match t.repl with
  | None -> ()
  | Some r ->
    if t.tick mod t.params.Params.repair_lag = 0 && Hashtbl.length r.dirty > 0
    then begin
      let m = Dht.messages t.dht in
      let p = t.params.Params.faults.Faults.repl_drop in
      let ids = Hashtbl.fold (fun id () acc -> id :: acc) r.dirty [] in
      Hashtbl.clear r.dirty;
      List.iter
        (fun id ->
          match Dht.find t.dht id with
          | None -> ()
          | Some vn ->
            let current = holders r id in
            let hs =
              List.filter_map
                (fun s ->
                  let hid = s.Dht.id in
                  if List.exists (Id.equal hid) current then Some hid
                  else if Prng.bernoulli t.frng p then begin
                    mark r id;
                    None
                  end
                  else begin
                    m.Messages.replications <-
                      m.Messages.replications + Dht.load vn;
                    Some hid
                  end)
                (Dht.k_successors t.dht id t.params.Params.replicas)
            in
            set_holders r id hs)
        (List.sort Id.compare ids)
    end

(* Smart-neighbor retry bookkeeping.  A machine whose workload queries
   timed out waits [Faults.backoff] ticks between attempts; when the
   budget is exhausted it clears its state and the strategy falls back to
   the dumb estimate rule the same tick. *)

let retry_pending t pid = t.phys.(pid).retry_at >= 0
let retry_due t pid = t.phys.(pid).retry_at >= 0 && t.phys.(pid).retry_at <= t.tick
let smart_retry_attempts t pid = t.phys.(pid).retry_attempts

let clear_smart_retry t pid =
  let p = t.phys.(pid) in
  p.retry_attempts <- 0;
  p.retry_at <- -1

let note_query_timeout t pid =
  let f = t.params.Params.faults in
  let p = t.phys.(pid) in
  p.retry_attempts <- p.retry_attempts + 1;
  if p.retry_attempts > f.Faults.retry_budget then begin
    clear_smart_retry t pid;
    true
  end
  else begin
    p.retry_at <-
      t.tick
      + Faults.backoff ~base:f.Faults.backoff_base ~cap:f.Faults.backoff_cap
          ~attempt:(p.retry_attempts - 1);
    false
  end

let check_invariants t =
  Dht.check_invariants t.dht;
  (* Every vnode in the ring is listed by exactly one active machine and
     vice versa — and the machine holds the ring's OWN record (physical
     equality), never a stale copy. *)
  let listed = Hashtbl.create 64 in
  Array.iter
    (fun p ->
      if (not p.active) && p.vnodes <> [] then
        invalid_arg "State: waiting machine with vnodes";
      if p.active && p.vnodes = [] then
        invalid_arg "State: active machine with no ring presence";
      List.iter
        (fun (vn : payload Dht.vnode) ->
          let id = vn.Dht.id in
          (match Dht.find t.dht id with
          | Some vn' when vn' == vn -> ()
          | Some _ -> invalid_arg "State: machine holds a stale vnode record"
          | None ->
            invalid_arg "State: machine lists a vnode missing from the ring");
          if Hashtbl.mem listed id then invalid_arg "State: vnode listed twice";
          Hashtbl.replace listed id p.pid)
        p.vnodes)
    t.phys;
  Dht.iter
    (fun vn ->
      match Hashtbl.find_opt listed vn.Dht.id with
      | None -> invalid_arg "State: ring vnode not owned by any machine"
      | Some pid ->
        if vn.Dht.payload.owner <> pid then
          invalid_arg "State: payload owner mismatch")
    t.dht;
  if Hashtbl.length listed <> Dht.size t.dht then
    invalid_arg "State: machine lists a vnode missing from the ring";
  (* The cached active count is exactly the fold it replaced. *)
  let counted =
    Array.fold_left (fun acc p -> if p.active then acc + 1 else acc) 0 t.phys
  in
  if counted <> t.n_active then
    invalid_arg
      (Printf.sprintf "State: cached n_active %d but %d machines are active"
         t.n_active counted)

(* The full per-tick harness: structural invariants plus the conservation
   and accounting laws every refactor of the hot path must preserve.
   O(nodes + keys); run by the engine when [Params.check_requested]. *)
let check_tick_invariants t =
  check_invariants t;
  (* Key conservation, relaxed to conserved-or-accounted-lost: a task is
     either still stored, completed, or on the [tasks_lost] ledger
     because a crash wiped its whole replica group — it never silently
     vanishes or duplicates.  With [replicas = 0] the ledger is pinned
     to zero below, restoring the strict law. *)
  let m = Dht.messages t.dht in
  let remaining = remaining_tasks t in
  if
    t.work_done_total + remaining + m.Messages.tasks_lost
    <> t.initial_tasks + t.arrived_total
  then
    invalid_arg
      (Printf.sprintf
         "State: key conservation violated (done %d + remaining %d + lost %d \
          <> initial %d + arrived %d)"
         t.work_done_total remaining m.Messages.tasks_lost t.initial_tasks
         t.arrived_total);
  (* Arrival laws.  Open system: the birth table tracks exactly the live
     key population (every stored key has one open ledger entry; entries
     close on completion or accounted loss), and the sojourn histogram
     records exactly one settled sojourn per completed task.  Closed
     system: the arrival state must never move. *)
  if Arrivals.enabled t.params.Params.arrivals then begin
    if Hashtbl.length t.birth <> remaining then
      invalid_arg
        (Printf.sprintf
           "State: birth table tracks %d tasks but %d are stored"
           (Hashtbl.length t.birth) remaining);
    Dht.iter
      (fun vn ->
        Dht.iter_keys
          (fun k ->
            if not (Hashtbl.mem t.birth k) then
              invalid_arg "State: stored task with no birth record")
          vn)
      t.dht;
    let settled = Hashtbl.fold (fun _ c acc -> acc + c) t.sojourn_hist 0 in
    if settled <> t.work_done_total then
      invalid_arg
        (Printf.sprintf
           "State: %d sojourns settled but %d tasks completed" settled
           t.work_done_total)
  end
  else if
    t.arrived_total <> 0
    || Hashtbl.length t.birth <> 0
    || Hashtbl.length t.sojourn_hist <> 0
  then invalid_arg "State: arrival state moved without an arrival plan";
  (* Recovery-off laws: without live replication nothing is ever lost
     and no replication traffic flows. *)
  if not (Params.recovery_on t.params) then begin
    if m.Messages.tasks_lost <> 0 then
      invalid_arg "State: tasks lost with live replication off";
    if m.Messages.replications <> 0 then
      invalid_arg "State: replication traffic with live replication off"
  end;
  (* Holder-map structural laws: one entry per ring vnode; holders are
     live ring members, never the owner, never duplicated, at most
     [replicas] of them; and the reverse index is the exact inverse of
     the holder lists (the pruning fast path depends on it).  Then the
     clean-vnode law the repair pass rests on: a vnode outside the dirty
     set holds exactly its successor list, in order — a join copies a
     prefix of its donor's list, and recovery reads the first survivor. *)
  (match t.repl with
  | None -> ()
  | Some r ->
    if Hashtbl.length r.holders <> Dht.size t.dht then
      invalid_arg
        (Printf.sprintf "State: replica map has %d entries but the ring has %d"
           (Hashtbl.length r.holders) (Dht.size t.dht));
    let pairs = ref 0 in
    Hashtbl.iter
      (fun id hs ->
        if Dht.find t.dht id = None then
          invalid_arg "State: replica map entry for a vnode not in the ring";
        if List.length hs > t.params.Params.replicas then
          invalid_arg "State: holder list longer than the replication degree";
        let seen = Hashtbl.create 8 in
        List.iter
          (fun h ->
            if Id.equal h id then
              invalid_arg "State: vnode listed as its own replica holder";
            if Hashtbl.mem seen h then
              invalid_arg "State: duplicate replica holder";
            Hashtbl.replace seen h ();
            if Dht.find t.dht h = None then
              invalid_arg "State: replica holder not in the ring (stale entry)";
            incr pairs;
            match Hashtbl.find_opt r.backs h with
            | Some l when List.exists (Id.equal id) !l -> ()
            | _ ->
              invalid_arg
                "State: holder missing from the replica reverse index")
          hs)
      r.holders;
    let rev_pairs =
      Hashtbl.fold (fun _ l acc -> acc + List.length !l) r.backs 0
    in
    if rev_pairs <> !pairs then
      invalid_arg
        (Printf.sprintf
           "State: replica reverse index has %d pairs but holder lists have %d"
           rev_pairs !pairs);
    Dht.iter
      (fun vn ->
        let id = vn.Dht.id in
        if not (Hashtbl.mem r.dirty id) then begin
          let want =
            List.map
              (fun (s : payload Dht.vnode) -> s.Dht.id)
              (Dht.k_successors t.dht id t.params.Params.replicas)
          in
          if not (List.equal Id.equal (holders r id) want) then
            invalid_arg "State: clean vnode's holders differ from its successors"
        end)
      t.dht);
  (* Sybil caps: no machine exceeds max_sybils (homogeneous) or its
     strength (heterogeneous).  Malicious machines under an enabled
     attack plan are exempt — the adversarial injection path fabricates
     identities past the cap by design (that is the attack). *)
  let attack_on = Attack.enabled t.params.Params.attack in
  Array.iter
    (fun p ->
      if
        p.active
        && (not (p.malicious && attack_on))
        && sybil_count t p.pid > sybil_capacity t p.pid
      then
        invalid_arg
          (Printf.sprintf "State: machine %d runs %d Sybils over its cap %d"
             p.pid (sybil_count t p.pid) (sybil_capacity t p.pid)))
    t.phys;
  (* Attack laws: without a plan no machine is malicious and the attack
     ledger is pinned to zero; with one, every adversarial join was a
     join.  The [attackers] list and the per-machine flags must agree —
     honest-arc accounting rests on the flag being exact. *)
  if not attack_on then begin
    if m.Messages.attack_joins <> 0 then
      invalid_arg "State: attack_joins moved without an attack plan";
    if t.attackers <> [] then
      invalid_arg "State: attacker list nonempty without an attack plan"
  end;
  if m.Messages.attack_joins > m.Messages.joins then
    invalid_arg "State: more adversarial joins than joins";
  Array.iter
    (fun p ->
      if p.malicious <> List.mem p.pid t.attackers then
        invalid_arg
          (Printf.sprintf "State: machine %d malicious flag out of sync" p.pid))
    t.phys;
  (* Admission laws: with the defense off no puzzle ever starts and no
     slot exists; with it on, slots live only on active machines and
     their deadlines sit inside [request_tick, request_tick +
     puzzle_cost] — i.e. never past [tick + puzzle_cost], never
     negative.  (Due slots may linger within a tick between
     [process_admissions] and the check — but never across ticks, hence
     the lower bound of 0, not tick.) *)
  if t.params.Params.puzzle_cost = 0 then begin
    if m.Messages.puzzles <> 0 then
      invalid_arg "State: puzzles counted with the admission defense off";
    Array.iter
      (fun p ->
        if p.puzzle <> None then
          invalid_arg "State: admission slot with the defense off")
      t.phys
  end
  else
    Array.iter
      (fun p ->
        match p.puzzle with
        | None -> ()
        | Some a ->
          if not p.active then
            invalid_arg
              (Printf.sprintf "State: waiting machine %d holds an admission"
                 p.pid);
          if a.ready < 0 || a.ready > t.tick + t.params.Params.puzzle_cost then
            invalid_arg
              (Printf.sprintf
                 "State: machine %d admission deadline %d out of range (tick \
                  %d, cost %d)"
                 p.pid a.ready t.tick t.params.Params.puzzle_cost))
      t.phys;
  (* Ring-presence accounting: every machine vnode is in the ring exactly
     once, so the ring size is the sum of the per-machine lists.  (This
     fold and the holder-map walk above are O(nodes) by design — they
     run only in checked mode, never on the production tick path.) *)
  let total_vnodes =
    Array.fold_left (fun acc p -> acc + List.length p.vnodes) 0 t.phys
  in
  if total_vnodes <> Dht.size t.dht then
    invalid_arg
      (Printf.sprintf "State: machines list %d vnodes but the ring has %d"
         total_vnodes (Dht.size t.dht));
  (* Message accounting: every successful join and leave (crashes
     included) is charged, so the ring size is exactly their
     difference. *)
  if m.Messages.joins - m.Messages.leaves <> Dht.size t.dht then
    invalid_arg
      (Printf.sprintf
         "State: message accounting broken (joins %d - leaves %d <> ring %d)"
         m.Messages.joins m.Messages.leaves (Dht.size t.dht));
  (* Fault-mode laws: the diagnostic counters only move under an enabled
     plan, and retry bookkeeping stays inside the budget and only on
     active machines (a departure clears it). *)
  let f = t.params.Params.faults in
  if (not (Faults.enabled f)) && (m.Messages.dropped <> 0 || m.Messages.retries <> 0)
  then
    invalid_arg
      (Printf.sprintf
         "State: fault counters moved without a fault plan (dropped %d retries %d)"
         m.Messages.dropped m.Messages.retries);
  Array.iter
    (fun p ->
      if p.retry_at >= 0 && not p.active then
        invalid_arg
          (Printf.sprintf "State: waiting machine %d has a pending retry" p.pid);
      if p.retry_attempts < 0 || p.retry_attempts > f.Faults.retry_budget then
        invalid_arg
          (Printf.sprintf
             "State: machine %d retry attempts %d outside budget %d" p.pid
             p.retry_attempts f.Faults.retry_budget))
    t.phys

(* Deterministic hand-built states for edge-case tests: exact vnode ids
   and key placement instead of SHA-1 draws.  Not for simulations —
   [create] is the only entry point that reproduces the paper's setup
   (and its PRNG stream). *)
module For_testing = struct
  let build ~params ~machines ~keys =
    (match Params.validate params with
    | Ok () -> ()
    | Error msg -> invalid_arg ("State.For_testing.build: " ^ msg));
    let dht = Dht.create () in
    let phys =
      Array.mapi
        (fun pid (strength, ids) ->
          let original_id = match ids with id :: _ -> id | [] -> Id.zero in
          machine ~pid ~strength ~original_id
            (List.map
               (fun id ->
                 match Dht.join dht ~id ~payload:{ owner = pid } with
                 | Ok vn -> vn
                 | Error `Occupied ->
                   invalid_arg "State.For_testing.build: duplicate vnode id")
               ids))
        machines
    in
    (* Hand-built states skip every setup draw: no stragglers, no
       partition victim, no attackers, no hot centers.  Drop, burst and
       retry behavior still works. *)
    let seed = params.Params.seed in
    assemble params ~dht ~phys ~rng:(Prng.create seed)
      ~frng:(Faults.rng ~seed) ~arng:(Arrivals.rng ~seed)
      ~krng:(Attack.rng ~seed) ~partitioned:(-1) ~attackers:[]
      ~hot_centers:[||] (Array.of_list keys)

  let rewrite_holders ?(reindex = true) t id hs =
    match t.repl with
    | None -> invalid_arg "State.For_testing.rewrite_holders: replication is off"
    | Some r ->
      if reindex then set_holders r id hs else Hashtbl.replace r.holders id hs
end
