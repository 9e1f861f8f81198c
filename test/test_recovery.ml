(* Live successor-replication and crash recovery (Params.replicas > 0).

   Four layers:

   1. GOLDEN PINS: with [replicas = 0] the engine must be bit-for-bit
      identical to the engine from before the recovery subsystem
      existed.  The expected values below were captured from the commit
      immediately before live replication landed, on three
      configurations spanning churn + failures, heterogeneous
      strength-per-tick work, and a full fault plan, for every
      strategy.  Any drift is a regression of the
      recovery-off-is-identical contract.

   2. NO-FAILURE EQUIVALENCE: with failures impossible (fail = 0, no
      crash bursts) a [replicas = 2] run must match the [replicas = 0]
      run on every observable except the [replications] counter —
      recovery bookkeeping never touches the main PRNG stream and
      [repl_drop = 0] repair passes never touch the fault stream.

   3. EXACT LOSS SEMANTICS: a crash burst's task loss must equal
      [Replication.loss_after_failure] evaluated on the pre-burst ring
      with the same victim set — the in-sim recovery rule IS the
      module's ground-truth predicate, including the full-replication
      edge and total wipeout.

   4. CONSERVATION-OR-LOST: with recovery on, every strategy under
      churn + failures + crash bursts satisfies
      [done + remaining + tasks_lost = initial] after every tick
      ([check_every_tick]), and the run still terminates.

   5. INITIAL ENROLMENT: both constructors back every vnode's initial
      tasks on exactly its [replicas] ring successors and charge one
      replication per task per holder.

   6. HOLDER-MAP TRIPWIRES: each holder-map law of the tick harness,
      broken alone on purpose, fails with its own message — the
      clean-vnode law the incremental repair pass rests on included. *)

(* ---- 1. golden pins: replicas = 0 == the pre-recovery engine ------ *)

type golden = {
  strat : Strategy.t;
  ticks : int; (* Finished tick *)
  factor : float;
  joins : int;
  leaves : int;
  key_transfers : int;
  workload_queries : int;
  invitations : int;
  lookup_hops : int;
  dropped : int;
  retries : int;
  vnodes : int;
  active : int;
}

let golden_r1 =
  (* nodes=20 tasks=400 churn=0.03 fail=0.03 seed=11 *)
  [
    { strat = Strategy.No_strategy; ticks = 53; factor = 2.6499999999999999;
      joins = 79; leaves = 58; key_transfers = 1042; workload_queries = 0;
      invitations = 0; lookup_hops = 154; dropped = 0; retries = 0;
      vnodes = 21; active = 21 };
    { strat = Strategy.Induced_churn; ticks = 53; factor = 2.6499999999999999;
      joins = 79; leaves = 58; key_transfers = 1042; workload_queries = 0;
      invitations = 0; lookup_hops = 154; dropped = 0; retries = 0;
      vnodes = 21; active = 21 };
    { strat = Strategy.Random_injection; ticks = 33; factor = 1.6499999999999999;
      joins = 128; leaves = 90; key_transfers = 784; workload_queries = 0;
      invitations = 0; lookup_hops = 324; dropped = 0; retries = 0;
      vnodes = 38; active = 21 };
    { strat = Strategy.Neighbor_injection; ticks = 30; factor = 1.5;
      joins = 110; leaves = 76; key_transfers = 784; workload_queries = 0;
      invitations = 0; lookup_hops = 268; dropped = 0; retries = 0;
      vnodes = 34; active = 19 };
    { strat = Strategy.Smart_neighbor_injection; ticks = 26; factor = 1.3;
      joins = 101; leaves = 61; key_transfers = 789; workload_queries = 245;
      invitations = 0; lookup_hops = 241; dropped = 0; retries = 0;
      vnodes = 40; active = 21 };
    { strat = Strategy.Invitation; ticks = 47; factor = 2.3500000000000001;
      joins = 77; leaves = 59; key_transfers = 675; workload_queries = 10;
      invitations = 10; lookup_hops = 160; dropped = 0; retries = 0;
      vnodes = 18; active = 18 };
    { strat = Strategy.Strength_aware_injection; ticks = 26; factor = 1.3;
      joins = 88; leaves = 56; key_transfers = 803; workload_queries = 195;
      invitations = 0; lookup_hops = 202; dropped = 0; retries = 0;
      vnodes = 32; active = 17 };
    { strat = Strategy.Static_virtual_nodes; ticks = 38; factor = 1.8999999999999999;
      joins = 327; leaves = 211; key_transfers = 1425; workload_queries = 0;
      invitations = 0; lookup_hops = 1176; dropped = 0; retries = 0;
      vnodes = 116; active = 21 };
  ]

let golden_r2 =
  (* nodes=10 tasks=150 churn=0.02 fail=0.05 heterogeneous
     strength-per-tick seed=5 *)
  [
    { strat = Strategy.No_strategy; ticks = 13; factor = 2.6000000000000001;
      joins = 17; leaves = 9; key_transfers = 76; workload_queries = 0;
      invitations = 0; lookup_hops = 14; dropped = 0; retries = 0;
      vnodes = 8; active = 8 };
    { strat = Strategy.Induced_churn; ticks = 13; factor = 2.6000000000000001;
      joins = 17; leaves = 9; key_transfers = 76; workload_queries = 0;
      invitations = 0; lookup_hops = 14; dropped = 0; retries = 0;
      vnodes = 8; active = 8 };
    { strat = Strategy.Random_injection; ticks = 9; factor = 1.8;
      joins = 26; leaves = 7; key_transfers = 65; workload_queries = 0;
      invitations = 0; lookup_hops = 37; dropped = 0; retries = 0;
      vnodes = 19; active = 12 };
    { strat = Strategy.Neighbor_injection; ticks = 9; factor = 1.8;
      joins = 22; leaves = 4; key_transfers = 69; workload_queries = 0;
      invitations = 0; lookup_hops = 28; dropped = 0; retries = 0;
      vnodes = 18; active = 10 };
    { strat = Strategy.Smart_neighbor_injection; ticks = 9; factor = 1.8;
      joins = 21; leaves = 8; key_transfers = 57; workload_queries = 40;
      invitations = 0; lookup_hops = 23; dropped = 0; retries = 0;
      vnodes = 13; active = 8 };
    { strat = Strategy.Invitation; ticks = 13; factor = 2.6000000000000001;
      joins = 17; leaves = 9; key_transfers = 76; workload_queries = 5;
      invitations = 5; lookup_hops = 14; dropped = 0; retries = 0;
      vnodes = 8; active = 8 };
    { strat = Strategy.Strength_aware_injection; ticks = 9; factor = 1.8;
      joins = 21; leaves = 6; key_transfers = 69; workload_queries = 35;
      invitations = 0; lookup_hops = 23; dropped = 0; retries = 0;
      vnodes = 15; active = 10 };
    { strat = Strategy.Static_virtual_nodes; ticks = 8; factor = 1.6000000000000001;
      joins = 44; leaves = 20; key_transfers = 247; workload_queries = 0;
      invitations = 0; lookup_hops = 95; dropped = 0; retries = 0;
      vnodes = 24; active = 8 };
  ]

let golden_r3 =
  (* nodes=16 tasks=300 churn=0.02 fail=0.01 seed=21 with a fault plan:
     drop=0.1,crash=4@5+3@12,straggle=2 — recovery off must leave even
     faulted runs untouched. *)
  [
    { strat = Strategy.No_strategy; ticks = 66; factor = 3.4736842105263159;
      joins = 55; leaves = 37; key_transfers = 1097; workload_queries = 0;
      invitations = 0; lookup_hops = 88; dropped = 0; retries = 0;
      vnodes = 18; active = 18 };
    { strat = Strategy.Induced_churn; ticks = 66; factor = 3.4736842105263159;
      joins = 55; leaves = 37; key_transfers = 1097; workload_queries = 0;
      invitations = 0; lookup_hops = 88; dropped = 0; retries = 0;
      vnodes = 18; active = 18 };
    { strat = Strategy.Random_injection; ticks = 35; factor = 1.8421052631578947;
      joins = 92; leaves = 61; key_transfers = 505; workload_queries = 0;
      invitations = 0; lookup_hops = 226; dropped = 0; retries = 0;
      vnodes = 31; active = 16 };
    { strat = Strategy.Neighbor_injection; ticks = 31; factor = 1.631578947368421;
      joins = 67; leaves = 40; key_transfers = 395; workload_queries = 0;
      invitations = 0; lookup_hops = 151; dropped = 0; retries = 0;
      vnodes = 27; active = 14 };
    { strat = Strategy.Smart_neighbor_injection; ticks = 28; factor = 1.4736842105263157;
      joins = 64; leaves = 34; key_transfers = 496; workload_queries = 290;
      invitations = 0; lookup_hops = 139; dropped = 30; retries = 25;
      vnodes = 30; active = 18 };
    { strat = Strategy.Invitation; ticks = 42; factor = 2.2105263157894739;
      joins = 41; leaves = 26; key_transfers = 486; workload_queries = 18;
      invitations = 20; lookup_hops = 59; dropped = 2; retries = 0;
      vnodes = 15; active = 15 };
    { strat = Strategy.Strength_aware_injection; ticks = 27; factor = 1.4210526315789473;
      joins = 62; leaves = 32; key_transfers = 460; workload_queries = 140;
      invitations = 0; lookup_hops = 132; dropped = 16; retries = 0;
      vnodes = 30; active = 18 };
    { strat = Strategy.Static_virtual_nodes; ticks = 42; factor = 2.2105263157894739;
      joins = 207; leaves = 127; key_transfers = 869; workload_queries = 0;
      invitations = 0; lookup_hops = 661; dropped = 0; retries = 0;
      vnodes = 80; active = 15 };
  ]

let check_golden params (g : golden) =
  let p = Strategy.default_params g.strat params in
  let r = Engine.run p (Strategy.make g.strat ()) in
  let name = Strategy.name g.strat in
  (match r.Engine.outcome with
  | Engine.Finished t -> Alcotest.(check int) (name ^ " ticks") g.ticks t
  | Engine.Aborted t | Engine.Timed_out t ->
    Alcotest.failf "%s aborted at %d" name t);
  Alcotest.(check (float 0.0)) (name ^ " factor") g.factor r.Engine.factor;
  let m = r.Engine.messages in
  Alcotest.(check int) (name ^ " joins") g.joins m.Messages.joins;
  Alcotest.(check int) (name ^ " leaves") g.leaves m.Messages.leaves;
  Alcotest.(check int) (name ^ " key_transfers") g.key_transfers
    m.Messages.key_transfers;
  Alcotest.(check int) (name ^ " workload_queries") g.workload_queries
    m.Messages.workload_queries;
  Alcotest.(check int) (name ^ " invitations") g.invitations
    m.Messages.invitations;
  Alcotest.(check int) (name ^ " lookup_hops") g.lookup_hops
    m.Messages.lookup_hops;
  Alcotest.(check int) (name ^ " maintenance") 0 m.Messages.maintenance;
  Alcotest.(check int) (name ^ " dropped") g.dropped m.Messages.dropped;
  Alcotest.(check int) (name ^ " retries") g.retries m.Messages.retries;
  (* With recovery off the new counters must not move at all. *)
  Alcotest.(check int) (name ^ " replications") 0 m.Messages.replications;
  Alcotest.(check int) (name ^ " tasks_lost") 0 m.Messages.tasks_lost;
  Alcotest.(check int) (name ^ " vnodes") g.vnodes r.Engine.final_vnodes;
  Alcotest.(check int) (name ^ " active") g.active r.Engine.final_active

let test_golden_r1 () =
  let params =
    {
      (Params.default ~nodes:20 ~tasks:400) with
      Params.churn_rate = 0.03;
      failure_rate = 0.03;
      seed = 11;
    }
  in
  List.iter (check_golden params) golden_r1

let test_golden_r2 () =
  let params =
    {
      (Params.default ~nodes:10 ~tasks:150) with
      Params.churn_rate = 0.02;
      failure_rate = 0.05;
      heterogeneity = Params.Heterogeneous;
      work = Params.Strength_per_tick;
      seed = 5;
    }
  in
  List.iter (check_golden params) golden_r2

let test_golden_r3 () =
  let faults =
    match Faults.of_string "drop=0.1,crash=4@5+3@12,straggle=2" with
    | Ok f -> f
    | Error e -> Alcotest.failf "fault spec rejected: %s" e
  in
  let params =
    {
      (Params.default ~nodes:16 ~tasks:300) with
      Params.churn_rate = 0.02;
      failure_rate = 0.01;
      seed = 21;
      faults;
    }
  in
  List.iter (check_golden params) golden_r3

(* ---- 2. no failures => replicas only add replication traffic ------ *)

let observables (r : Engine.result) =
  let m = r.Engine.messages in
  ( r.Engine.outcome,
    r.Engine.factor,
    r.Engine.final_vnodes,
    r.Engine.final_active,
    ( m.Messages.joins,
      m.Messages.leaves,
      m.Messages.key_transfers,
      m.Messages.workload_queries,
      m.Messages.invitations,
      m.Messages.lookup_hops,
      m.Messages.dropped,
      m.Messages.retries,
      m.Messages.tasks_lost ) )

let test_no_failure_equivalence () =
  let base =
    {
      (Params.default ~nodes:15 ~tasks:250) with
      Params.churn_rate = 0.04;
      failure_rate = 0.0;
      seed = 13;
    }
  in
  List.iter
    (fun strat ->
      let name = Strategy.name strat in
      let run replicas =
        let p = Strategy.default_params strat { base with Params.replicas } in
        Engine.run p (Strategy.make strat ())
      in
      let off = run 0 and on = run 2 in
      if observables off <> observables on then
        Alcotest.failf "%s: replicas=2 drifted from replicas=0 without failures"
          name;
      Alcotest.(check int)
        (name ^ " replicas=0 has no replication traffic")
        0 off.Engine.messages.Messages.replications;
      if on.Engine.messages.Messages.replications <= 0 then
        Alcotest.failf "%s: replicas=2 charged no replication traffic" name)
    Strategy.all

(* ---- 3. burst loss == Replication.loss_after_failure -------------- *)

(* Re-derive the burst's victim machines by replaying the fault stream:
   with no stragglers and no partition window the setup consumes zero
   draws, so the first draws are the burst's without-replacement picks
   over the active pids in ascending order. *)
let replay_victims ~seed ~nodes ~count =
  let frng = Faults.rng ~seed in
  let pool = ref (List.init nodes Fun.id) in
  let victims = ref [] in
  for _ = 1 to min count nodes do
    let i = Prng.int_below frng (List.length !pool) in
    victims := List.nth !pool i :: !victims;
    pool := List.filteri (fun j _ -> j <> i) !pool
  done;
  List.rev !victims

let burst_loss_case ~nodes ~tasks ~replicas ~count ~seed =
  let faults =
    { Faults.none with Faults.crash_bursts = [ { Faults.at = 0; count } ] }
  in
  let params =
    { (Params.default ~nodes ~tasks) with Params.replicas; seed; faults }
  in
  let state = State.create params in
  (* Pre-burst snapshot: the ring, every stored key, and the victims'
     workload (recovered-or-lost keys). *)
  let ring =
    Array.of_list (List.rev (Dht.fold (fun vn acc -> vn.Dht.id :: acc) state.State.dht []))
  in
  let keys =
    let acc = ref [] in
    Dht.iter (Dht.iter_keys (fun k -> acc := k :: !acc)) state.State.dht;
    Array.of_list (List.rev !acc)
  in
  let victims = replay_victims ~seed ~nodes ~count in
  let victim_ids =
    List.concat_map
      (fun pid ->
        List.map
          (fun (vn : State.payload Dht.vnode) -> vn.Dht.id)
          state.State.phys.(pid).State.vnodes)
      victims
  in
  let at_risk =
    List.fold_left
      (fun acc id -> acc + Dht.workload state.State.dht id)
      0 victim_ids
  in
  let failed id = List.exists (Id.equal id) victim_ids in
  let expected =
    Replication.loss_after_failure ~ring ~keys ~failed ~replicas
  in
  Alcotest.(check int) "predicate sees every stored key"
    state.State.initial_tasks expected.Replication.total_keys;
  State.apply_crash_bursts state;
  let m = Dht.messages state.State.dht in
  Alcotest.(check int)
    (Printf.sprintf "nodes=%d count=%d replicas=%d: tasks lost" nodes count
       replicas)
    expected.Replication.lost_keys m.Messages.tasks_lost;
  (* Everything the dead held that was not lost was fetched back from a
     surviving replica, one transfer per task. *)
  Alcotest.(check int) "recovered = at-risk - lost"
    (at_risk - expected.Replication.lost_keys)
    m.Messages.key_transfers;
  Alcotest.(check int) "survivors still store the rest"
    (state.State.initial_tasks - expected.Replication.lost_keys)
    (State.remaining_tasks state);
  State.check_tick_invariants state

let test_burst_loss_matches_predicate () =
  (* Sweep degrees and burst sizes, including r=1 with a majority burst
     (loss very likely) and the full-replication edge (loss impossible
     unless everyone dies). *)
  burst_loss_case ~nodes:12 ~tasks:240 ~replicas:1 ~count:6 ~seed:3;
  burst_loss_case ~nodes:12 ~tasks:240 ~replicas:1 ~count:9 ~seed:4;
  burst_loss_case ~nodes:12 ~tasks:240 ~replicas:2 ~count:9 ~seed:4;
  burst_loss_case ~nodes:8 ~tasks:160 ~replicas:3 ~count:5 ~seed:7;
  burst_loss_case ~nodes:6 ~tasks:90 ~replicas:5 ~count:5 ~seed:9;
  (* replicas = nodes - 1 (the Replication.is_full edge): killing all
     but one machine must lose nothing. *)
  burst_loss_case ~nodes:6 ~tasks:90 ~replicas:7 ~count:5 ~seed:9

let test_total_wipeout_loses_all () =
  let nodes = 5 in
  let faults =
    { Faults.none with
      Faults.crash_bursts = [ { Faults.at = 0; count = nodes } ] }
  in
  let params =
    { (Params.default ~nodes ~tasks:80) with Params.replicas = 2; seed = 17; faults }
  in
  let state = State.create params in
  let initial = state.State.initial_tasks in
  State.apply_crash_bursts state;
  let m = Dht.messages state.State.dht in
  Alcotest.(check int) "every task lost" initial m.Messages.tasks_lost;
  Alcotest.(check int) "ring empty" 0 (State.vnode_count state);
  Alcotest.(check int) "nothing remains" 0 (State.remaining_tasks state);
  State.check_tick_invariants state

(* ---- 4. conservation-or-lost under every strategy ----------------- *)

let test_conservation_or_lost () =
  let faults =
    {
      Faults.none with
      Faults.crash_bursts =
        [ { Faults.at = 4; count = 6 }; { Faults.at = 11; count = 4 } ];
      repl_drop = 0.3;
    }
  in
  let params =
    {
      (Params.default ~nodes:18 ~tasks:320) with
      Params.churn_rate = 0.04;
      failure_rate = 0.03;
      replicas = 2;
      repair_lag = 2;
      sybil_threshold = 1;
      check_every_tick = true;
      seed = 29;
      faults;
    }
  in
  List.iter
    (fun strat ->
      let p = Strategy.default_params strat params in
      let state = State.create p in
      let r = Engine.run_state state (Strategy.make strat ()) in
      (match r.Engine.outcome with
      | Engine.Finished _ -> ()
      | Engine.Aborted t | Engine.Timed_out t ->
        Alcotest.failf "%s hit the tick cap (%d) under recovery"
          (Strategy.name strat) t);
      let m = r.Engine.messages in
      Alcotest.(check int)
        (Strategy.name strat ^ " done + remaining + lost = initial")
        state.State.initial_tasks
        (state.State.work_done_total
        + State.remaining_tasks state
        + m.Messages.tasks_lost))
    Strategy.all

(* ---- 5. initial enrolment: one bulk pass for both constructors ---- *)

let check_enrolment name (s : State.t) =
  let dht = s.State.dht in
  let replicas = s.State.params.Params.replicas in
  let charged = ref 0 in
  Dht.iter
    (fun vn ->
      let id = vn.Dht.id in
      let holders = State.replica_holders s id in
      let successors =
        List.map
          (fun (h : State.payload Dht.vnode) -> h.Dht.id)
          (Dht.k_successors dht id replicas)
      in
      if not (List.equal Id.equal holders successors) then
        Alcotest.failf "%s: vnode %s is backed by [%s], its successors are [%s]"
          name (Id.to_hex id)
          (String.concat "; " (List.map Id.to_hex holders))
          (String.concat "; " (List.map Id.to_hex successors));
      charged := !charged + (List.length holders * Dht.load vn))
    dht;
  Alcotest.(check int)
    (name ^ ": replications = sum of holders x load")
    !charged (Dht.messages dht).Messages.replications

let test_initial_enrolment () =
  let f = Id.of_fraction in
  List.iter
    (fun replicas ->
      let params =
        { (Params.default ~nodes:30 ~tasks:600) with Params.replicas; seed = 3 }
      in
      let name what = Printf.sprintf "%s, replicas %d" what replicas in
      check_enrolment (name "create") (State.create params);
      (* Sybil vnodes, a waiting machine, the wrap past zero, and a
         two-vnode ring where [replicas] exceeds the other vnodes. *)
      check_enrolment (name "hand-built")
        (State.For_testing.build ~params
           ~machines:
             [|
               (1, [ f 0.1; f 0.5 ]);
               (1, [ f 0.2 ]);
               (3, [ f 0.35; f 0.7; f 0.9 ]);
               (1, []);
             |]
           ~keys:(List.init 40 (fun i -> f ((float_of_int i +. 0.5) /. 40.0))));
      check_enrolment (name "two-vnode")
        (State.For_testing.build ~params
           ~machines:[| (1, [ f 0.25 ]); (1, [ f 0.75 ]) |]
           ~keys:[ f 0.1; f 0.5; f 0.6; f 0.9 ]))
    [ 1; 2; 3 ]

(* ---- 6. holder-map tripwires: each law names its own breach ------ *)

let f = Id.of_fraction

(* Ring order of the tripwire state's five vnodes. *)
let ring_ids = [| f 0.1; f 0.2; f 0.35; f 0.5; f 0.7 |]

(* Four machines, one with a Sybil, [replicas = 2], every holder list
   freshly enrolled on its two ring successors. *)
let tripwire_state () =
  State.For_testing.build
    ~params:{ (Params.default ~nodes:4 ~tasks:40) with Params.replicas = 2 }
    ~machines:
      [|
        (1, [ ring_ids.(0); ring_ids.(3) ]);
        (1, [ ring_ids.(1) ]);
        (1, [ ring_ids.(2) ]);
        (1, [ ring_ids.(4) ]);
      |]
    ~keys:(List.init 20 (fun i -> f ((float_of_int i +. 0.5) /. 20.0)))

(* [breach] breaks one law of a state that passes them all; the tick
   harness must then refuse it with exactly [msg]. *)
let tripwire name msg breach =
  Alcotest.test_case name `Quick (fun () ->
      let s = tripwire_state () in
      State.check_tick_invariants s;
      breach s;
      match State.check_tick_invariants s with
      | () -> Alcotest.failf "the breach went unseen (expected %S)" msg
      | exception Invalid_argument got -> Alcotest.(check string) "law" msg got)

let rewrite i hs s = State.For_testing.rewrite_holders s ring_ids.(i) hs

let vnode s i = Option.get (Dht.find s.State.dht ring_ids.(i))

let flag ?(dirty = false) ?(departed = false) vn =
  State.For_testing.flag vn ~dirty ~departed

(* Machine 3 leaves gracefully: its vnode (ring position 4) is flagged
   departed while two holder lists still name it, and the repair queue
   holds its two predecessors and its successor. *)
let leave_last s =
  let vn = vnode s 4 in
  State.leave_phys s 3;
  vn

(* A vnode no membership change marked must hold exactly its
   successors, order included. *)
let clean_law = "State: clean vnode's holders differ from its successors"

(* A vnode is flagged dirty exactly while it sits in the repair queue. *)
let queue_law = "State: repair queue and dirty flags disagree"

let () =
  Alcotest.run "recovery"
    [
      ( "golden",
        [
          Alcotest.test_case "replicas=0 identical (churn+fail)" `Quick
            test_golden_r1;
          Alcotest.test_case "replicas=0 identical (hetero strength)" `Quick
            test_golden_r2;
          Alcotest.test_case "replicas=0 identical (fault plan)" `Quick
            test_golden_r3;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "no failures: only replications differ" `Quick
            test_no_failure_equivalence;
        ] );
      ( "loss",
        [
          Alcotest.test_case "burst loss matches the predicate" `Quick
            test_burst_loss_matches_predicate;
          Alcotest.test_case "total wipeout loses everything" `Quick
            test_total_wipeout_loses_all;
        ] );
      ( "conservation",
        [
          Alcotest.test_case "conserved-or-accounted-lost, all strategies"
            `Quick test_conservation_or_lost;
        ] );
      ( "enrolment",
        [
          Alcotest.test_case "holders = successors, both constructors" `Quick
            test_initial_enrolment;
        ] );
      ( "holder-map laws",
        [
          tripwire "clean list with two holders swapped" clean_law
            (rewrite 0 [ ring_ids.(2); ring_ids.(1) ]);
          tripwire "clean list one holder short" clean_law
            (rewrite 0 [ ring_ids.(1) ]);
          tripwire "list longer than replicas"
            "State: holder list longer than the replication degree"
            (rewrite 0 [ ring_ids.(1); ring_ids.(2); ring_ids.(3) ]);
          tripwire "own id as holder"
            "State: vnode listed as its own replica holder"
            (rewrite 0 [ ring_ids.(0); ring_ids.(1) ]);
          tripwire "duplicate holder" "State: duplicate replica holder"
            (rewrite 0 [ ring_ids.(1); ring_ids.(1) ]);
          tripwire "ring vnode flagged departed"
            "State: ring vnode flagged departed" (fun s ->
              flag ~departed:true (vnode s 0));
          tripwire "departed vnode not flagged"
            "State: vnode off the ring not flagged departed" (fun s ->
              flag (leave_last s));
          tripwire "dirty flag without a queue entry" queue_law (fun s ->
              flag ~dirty:true (vnode s 0));
          tripwire "queued vnode without its dirty flag" queue_law (fun s ->
              ignore (leave_last s);
              flag (vnode s 0));
        ] );
    ]
