(* Simulation state: machines, Sybils, churn and consumption. *)

let mk ?(nodes = 50) ?(tasks = 500) ?(f = fun p -> p) () =
  State.create (f (Params.default ~nodes ~tasks))

let total_workload state =
  Array.fold_left
    (fun acc (p : State.phys) ->
      if p.State.active then acc + State.workload_of_phys state p.State.pid
      else acc)
    0 state.State.phys

let test_create () =
  let s = mk () in
  State.check_invariants s;
  Alcotest.(check int) "active" 50 (State.active_count s);
  Alcotest.(check int) "vnodes" 50 (State.vnode_count s);
  Alcotest.(check int) "waiting pool same size" 100 (Array.length s.State.phys);
  Alcotest.(check int) "tasks stored" 500 (State.remaining_tasks s);
  Alcotest.(check int) "workloads sum to tasks" 500 (total_workload s);
  Alcotest.(check (float 1e-9)) "initial mean" 10.0 s.State.initial_mean

let test_create_rejects () =
  Alcotest.(check bool) "invalid params raise" true
    (try
       ignore (State.create { (Params.default ~nodes:0 ~tasks:1) with Params.seed = 1 });
       false
     with Invalid_argument _ -> true)

let test_homogeneous_strengths () =
  let s = mk () in
  Array.iter
    (fun (p : State.phys) ->
      Alcotest.(check int) "strength 1" 1 p.State.strength)
    s.State.phys

let test_heterogeneous_strengths () =
  let s =
    mk ~f:(fun p -> { p with Params.heterogeneity = Params.Heterogeneous }) ()
  in
  let seen = Array.make 6 0 in
  Array.iter
    (fun (p : State.phys) ->
      let st = p.State.strength in
      if st < 1 || st > 5 then Alcotest.failf "strength %d out of [1,5]" st;
      seen.(st) <- seen.(st) + 1)
    s.State.phys;
  (* with 100 machines, every strength should appear *)
  for k = 1 to 5 do
    Alcotest.(check bool) (Printf.sprintf "strength %d present" k) true (seen.(k) > 0)
  done

let test_consume_tick () =
  let s = mk () in
  let before = State.remaining_tasks s in
  let done_ = State.consume_tick s in
  Alcotest.(check int) "conservation" before (State.remaining_tasks s + done_);
  (* every busy machine consumes exactly 1 (homogeneous task-per-tick) *)
  Alcotest.(check bool) "at most one per machine" true (done_ <= 50);
  Alcotest.(check bool) "someone worked" true (done_ > 0);
  State.check_invariants s

let test_capacity () =
  let s = mk () in
  Alcotest.(check int) "task mode" 1 (State.capacity_of_phys s 0);
  let s2 =
    mk
      ~f:(fun p ->
        {
          p with
          Params.heterogeneity = Params.Heterogeneous;
          work = Params.Strength_per_tick;
        })
      ()
  in
  Alcotest.(check int) "strength mode" s2.State.phys.(3).State.strength
    (State.capacity_of_phys s2 3)

let test_sybil_lifecycle () =
  let s = mk () in
  let rng = Prng.create 99 in
  Alcotest.(check int) "no sybils" 0 (State.sybil_count s 0);
  Alcotest.(check int) "cap homogeneous" 5 (State.sybil_capacity s 0);
  let created = State.create_sybil s 0 (Keygen.fresh_distinct rng Id_set.empty) in
  Alcotest.(check bool) "created" true created;
  Alcotest.(check int) "one sybil" 1 (State.sybil_count s 0);
  Alcotest.(check int) "ring grew" 51 (State.vnode_count s);
  State.check_invariants s;
  State.retire_sybils s 0;
  Alcotest.(check int) "retired" 0 (State.sybil_count s 0);
  Alcotest.(check int) "ring shrank" 50 (State.vnode_count s);
  Alcotest.(check int) "keys conserved" 500 (State.remaining_tasks s);
  State.check_invariants s

let test_sybil_cap_enforced () =
  let s = mk () in
  let rng = Prng.create 7 in
  for _ = 1 to 5 do
    Alcotest.(check bool) "under cap" true
      (State.create_sybil s 0 (Keygen.fresh rng))
  done;
  Alcotest.(check bool) "cap reached" false
    (State.create_sybil s 0 (Keygen.fresh rng))

let test_sybil_occupied_id () =
  let s = mk () in
  let taken = (List.hd s.State.phys.(1).State.vnodes).Dht.id in
  Alcotest.(check bool) "occupied id refused" false (State.create_sybil s 0 taken)

let test_churn_preserves_tasks () =
  let s = mk ~f:(fun p -> { p with Params.churn_rate = 0.3 }) () in
  for _ = 1 to 20 do
    State.apply_churn s;
    State.check_invariants s;
    Alcotest.(check int) "tasks survive churn" 500 (State.remaining_tasks s)
  done;
  (* with rate 0.3 over 20 ticks someone must have left and joined *)
  Alcotest.(check bool) "pool is in use" true
    (Array.exists (fun (p : State.phys) -> p.State.pid >= 50 && p.State.active)
       s.State.phys)

let test_failure_churn_conserves_and_charges () =
  let s = mk ~f:(fun p -> { p with Params.failure_rate = 0.3 }) () in
  let transfers_before =
    (Dht.messages s.State.dht).Messages.key_transfers
  in
  for _ = 1 to 15 do
    State.apply_churn s;
    State.check_invariants s;
    Alcotest.(check int) "tasks survive failures" 500 (State.remaining_tasks s)
  done;
  (* recovery traffic was charged *)
  Alcotest.(check bool) "recovery transfers charged" true
    ((Dht.messages s.State.dht).Messages.key_transfers > transfers_before)

let test_churn_rejoins_original_id () =
  let s =
    mk
      ~f:(fun p ->
        { p with Params.churn_rate = 0.5; rejoin_fresh_id = false })
      ()
  in
  for _ = 1 to 10 do
    State.apply_churn s
  done;
  Array.iter
    (fun (p : State.phys) ->
      if p.State.active then
        match p.State.vnodes with
        | primary :: _ ->
          Alcotest.check Testutil.check_id "pinned id" p.State.original_id
            primary.Dht.id
        | [] -> Alcotest.fail "active without vnode")
    s.State.phys

let test_snapshot () =
  let s = mk () in
  let w = State.workloads_snapshot s in
  Alcotest.(check int) "one entry per active machine" 50 (Array.length w);
  Alcotest.(check int) "sums to tasks" 500 (Array.fold_left ( + ) 0 w)

let test_strengths_of_initial () =
  let s = mk () in
  Alcotest.(check int) "length" 50 (Array.length (State.strengths_of_initial s))

(* Regression: the rejoin probability is churn + fail, which exceeds 1.0
   here (0.8 + 0.5 = 1.3).  Unclamped, this now trips Prng.bernoulli's
   range guard; clamped, churn must keep conserving tasks and cycling
   machines through the waiting pool. *)
let test_churn_plus_fail_above_one () =
  let s =
    mk ~f:(fun p -> { p with Params.churn_rate = 0.8; failure_rate = 0.5 }) ()
  in
  for _ = 1 to 20 do
    State.apply_churn s;
    State.check_invariants s;
    Alcotest.(check int) "tasks survive extreme churn" 500
      (State.remaining_tasks s)
  done;
  Alcotest.(check bool) "ring still populated" true (State.vnode_count s >= 1);
  Alcotest.(check bool) "waiting pool cycled in" true
    (Array.exists
       (fun (p : State.phys) -> p.State.pid >= 50 && p.State.active)
       s.State.phys)

(* ~200 ticks of everything at once: consumption, graceful leaves,
   failures, Sybil joins and retirements.  After every step the full
   cross-invariants must hold and keys must be conserved:
   remaining + work_done_total = tasks. *)
let test_randomized_ops_conserve_keys () =
  let tasks = 400 in
  let s =
    mk ~nodes:30 ~tasks
      ~f:(fun p ->
        { p with Params.churn_rate = 0.08; failure_rate = 0.04; seed = 9 })
      ()
  in
  let rng = Prng.create 4242 in
  for tick = 1 to 200 do
    (* A little strategy-like noise on top of the engine's own steps. *)
    let pid = Prng.int_below rng (Array.length s.State.phys) in
    if s.State.phys.(pid).State.active then begin
      if Prng.bernoulli rng 0.3 then
        ignore (State.create_sybil s pid (Keygen.fresh rng))
      else if Prng.bernoulli rng 0.1 then State.retire_sybils s pid
    end;
    ignore (State.consume_tick s);
    State.apply_churn s;
    State.advance_tick s;
    State.check_invariants s;
    let remaining = State.remaining_tasks s in
    if remaining + s.State.work_done_total <> tasks then
      Alcotest.failf "tick %d: remaining %d + done %d <> %d" tick remaining
        s.State.work_done_total tasks
  done;
  Alcotest.(check int) "tick advanced" 200 s.State.tick

let test_failed_arc_memory () =
  let s = mk () in
  let arc = Interval.make ~after:(Id.of_int 1) ~upto:(Id.of_int 2) in
  Alcotest.(check bool) "initially clear" false (State.arc_recently_failed s 0 arc);
  State.note_failed_arc s 0 arc;
  Alcotest.(check bool) "remembered" true (State.arc_recently_failed s 0 arc);
  (* bounded memory: 9 more pushes age the first one out *)
  for k = 1 to 9 do
    State.note_failed_arc s 0
      (Interval.make ~after:(Id.of_int (10 * k)) ~upto:(Id.of_int ((10 * k) + 1)))
  done;
  Alcotest.(check bool) "aged out" false (State.arc_recently_failed s 0 arc)

(* ---- message-accounting regressions (docs/TESTING.md) ------------ *)

let ids = List.map Id.of_int

let test_fail_last_node_charges_nothing () =
  (* The ring's last vnode refuses the departure: the
     machine survives and recovers nothing, so neither handover nor
     replica-recovery traffic may be charged. *)
  let params = Params.default ~nodes:1 ~tasks:3 in
  let s =
    State.For_testing.build ~params
      ~machines:[| (1, ids [ 100 ]) |]
      ~keys:(ids [ 1; 2; 3 ])
  in
  State.fail_phys s 0;
  let m = Dht.messages s.State.dht in
  Alcotest.(check bool) "still active" true s.State.phys.(0).State.active;
  Alcotest.(check int) "no recovery traffic" 0 m.Messages.key_transfers;
  Alcotest.(check int) "keys kept" 3 (State.remaining_tasks s);
  State.check_invariants s

let test_fail_charges_when_departed () =
  (* m0 owns the wrap arc (200, 100]: keys 90 and 95.  An actual death
     costs one handover transfer per key (Dht.leave) plus one recovery
     fetch per key (fail_phys). *)
  let params = Params.default ~nodes:2 ~tasks:4 in
  let s =
    State.For_testing.build ~params
      ~machines:[| (1, ids [ 100 ]); (1, ids [ 200 ]) |]
      ~keys:(ids [ 90; 95; 150; 160 ])
  in
  let w0 = State.workload_of_phys s 0 in
  Alcotest.(check int) "m0 holds the wrap keys" 2 w0;
  State.fail_phys s 0;
  let m = Dht.messages s.State.dht in
  Alcotest.(check bool) "departed" false s.State.phys.(0).State.active;
  Alcotest.(check int) "handover + recovery per lost key" (2 * w0)
    m.Messages.key_transfers;
  Alcotest.(check int) "keys conserved" 4 (State.remaining_tasks s);
  State.check_invariants s

let test_rejoin_occupied_charges_nothing () =
  (* Pinned identities: the waiting machine's original id (Id.zero for
     hand-built waiting machines) is already taken, so the rejoin is
     refused — and a refused rejoin is a free retry, not a billed
     lookup. *)
  let params =
    { (Params.default ~nodes:2 ~tasks:1) with Params.rejoin_fresh_id = false }
  in
  let s =
    State.For_testing.build ~params
      ~machines:[| (1, [ Id.zero ]); (1, []) |]
      ~keys:(ids [ 1 ])
  in
  State.join_phys s 1;
  let m = Dht.messages s.State.dht in
  Alcotest.(check bool) "still waiting" false s.State.phys.(1).State.active;
  Alcotest.(check int) "no hops billed" 0 m.Messages.lookup_hops;
  Alcotest.(check int) "no join recorded" 1 m.Messages.joins;
  State.check_invariants s

let test_rejoin_landed_charges_hops () =
  (* The id is free: the rejoin lands and is billed the expected hops at
     the pre-join ring size, exactly as before the fix. *)
  let params =
    { (Params.default ~nodes:2 ~tasks:1) with Params.rejoin_fresh_id = false }
  in
  let s =
    State.For_testing.build ~params
      ~machines:[| (1, ids [ 100 ]); (1, []) |]
      ~keys:(ids [ 1 ])
  in
  let expect = int_of_float (ceil (Routing.expected_hops 2)) in
  State.join_phys s 1;
  let m = Dht.messages s.State.dht in
  Alcotest.(check bool) "joined" true s.State.phys.(1).State.active;
  Alcotest.(check int) "hops billed once" expect m.Messages.lookup_hops;
  State.check_invariants s

let () =
  Alcotest.run "state"
    [
      ( "unit",
        [
          Alcotest.test_case "create" `Quick test_create;
          Alcotest.test_case "create rejects" `Quick test_create_rejects;
          Alcotest.test_case "homogeneous strengths" `Quick test_homogeneous_strengths;
          Alcotest.test_case "heterogeneous strengths" `Quick
            test_heterogeneous_strengths;
          Alcotest.test_case "consume tick" `Quick test_consume_tick;
          Alcotest.test_case "capacity" `Quick test_capacity;
          Alcotest.test_case "sybil lifecycle" `Quick test_sybil_lifecycle;
          Alcotest.test_case "sybil cap" `Quick test_sybil_cap_enforced;
          Alcotest.test_case "sybil occupied id" `Quick test_sybil_occupied_id;
          Alcotest.test_case "churn conserves tasks" `Quick test_churn_preserves_tasks;
          Alcotest.test_case "churn+fail above one" `Quick
            test_churn_plus_fail_above_one;
          Alcotest.test_case "randomized ops conserve keys" `Quick
            test_randomized_ops_conserve_keys;
          Alcotest.test_case "failure churn" `Quick
            test_failure_churn_conserves_and_charges;
          Alcotest.test_case "rejoin original id" `Quick test_churn_rejoins_original_id;
          Alcotest.test_case "snapshot" `Quick test_snapshot;
          Alcotest.test_case "initial strengths" `Quick test_strengths_of_initial;
          Alcotest.test_case "failed-arc memory" `Quick test_failed_arc_memory;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "fail: last node charges nothing" `Quick
            test_fail_last_node_charges_nothing;
          Alcotest.test_case "fail: departure charges recovery" `Quick
            test_fail_charges_when_departed;
          Alcotest.test_case "rejoin: occupied charges nothing" `Quick
            test_rejoin_occupied_charges_nothing;
          Alcotest.test_case "rejoin: landed charges hops" `Quick
            test_rejoin_landed_charges_hops;
        ] );
    ]
