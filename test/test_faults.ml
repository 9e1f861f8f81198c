(* Fault-injection battery (lib/faults + the fault-aware engine paths).

   Four layers:

   1. GOLDEN PINS: with [Faults.none] the engine must be bit-for-bit
      identical to the pre-fault engine.  The expected values below were
      captured from the commit immediately before faults existed, on two
      configurations spanning churn + failures and heterogeneous
      strength-per-tick work, for every strategy.  Any drift in
      outcome, factor, a message counter or the final ring is a
      regression of the faults-off-is-identical contract.

   2. PURE PLAN PROPERTIES: backoff schedule laws and the CLI spec
      round-trip.

   3. EXACT DEGRADED-MODE SEMANTICS: with [drop = 1.0] (deterministic,
      draw-free) the Smart Neighbor retry machine is fully predictable —
      exactly [retry_budget] retries, [(budget + 1) x candidates]
      workload queries, and a final same-tick fallback that picks the
      arc the dumb widest-arc rule picks.

   4. ROBUSTNESS: fault plans keep runs deterministic across domain
      counts, and crash bursts / drops / stragglers never violate key
      conservation (checked every tick via [check_every_tick]).

   5. THE REPLY ROUND: [State.heard], the one rule every strategy's
      query round goes through, takes exactly one drop draw per
      reachable candidate in order (a miss never skips the rest), drops
      a partitioned sender without a draw, and counts a straggler's
      late reply iff asked to. *)

(* ---- 1. golden pins: Faults.none == the pre-fault engine ---------- *)

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
  vnodes : int;
  active : int;
}

let golden_p1 =
  (* nodes=30 tasks=600 churn=0.05 fail=0.02 seed=7 *)
  [
    { strat = Strategy.No_strategy; ticks = 44; factor = 2.2000000000000002;
      joins = 117; leaves = 88; key_transfers = 1229; workload_queries = 0;
      invitations = 0; lookup_hops = 261; vnodes = 29; active = 29 };
    { strat = Strategy.Induced_churn; ticks = 44; factor = 2.2000000000000002;
      joins = 117; leaves = 88; key_transfers = 1229; workload_queries = 0;
      invitations = 0; lookup_hops = 261; vnodes = 29; active = 29 };
    { strat = Strategy.Random_injection; ticks = 41; factor = 2.0499999999999998;
      joins = 262; leaves = 203; key_transfers = 1491; workload_queries = 0;
      invitations = 0; lookup_hops = 733; vnodes = 59; active = 32 };
    { strat = Strategy.Neighbor_injection; ticks = 39; factor = 1.95;
      joins = 206; leaves = 167; key_transfers = 1507; workload_queries = 0;
      invitations = 0; lookup_hops = 528; vnodes = 39; active = 21 };
    { strat = Strategy.Smart_neighbor_injection; ticks = 33;
      factor = 1.6499999999999999; joins = 169; leaves = 117;
      key_transfers = 1588; workload_queries = 375; invitations = 0;
      lookup_hops = 417; vnodes = 52; active = 28 };
    { strat = Strategy.Invitation; ticks = 43; factor = 2.1499999999999999;
      joins = 117; leaves = 88; key_transfers = 1501; workload_queries = 30;
      invitations = 30; lookup_hops = 261; vnodes = 29; active = 29 };
    { strat = Strategy.Strength_aware_injection; ticks = 33;
      factor = 1.6499999999999999; joins = 164; leaves = 115;
      key_transfers = 1701; workload_queries = 360; invitations = 0;
      lookup_hops = 402; vnodes = 49; active = 28 };
    { strat = Strategy.Static_virtual_nodes; ticks = 35; factor = 1.75;
      joins = 471; leaves = 274; key_transfers = 1995; workload_queries = 0;
      invitations = 0; lookup_hops = 1729; vnodes = 197; active = 37 };
  ]

let golden_p2 =
  (* nodes=12 tasks=200 heterogeneous strength-per-tick seed=99 *)
  [
    { strat = Strategy.No_strategy; ticks = 12; factor = 2.0; joins = 12;
      leaves = 0; key_transfers = 0; workload_queries = 0; invitations = 0;
      lookup_hops = 0; vnodes = 12; active = 12 };
    { strat = Strategy.Induced_churn; ticks = 21; factor = 3.5; joins = 15;
      leaves = 3; key_transfers = 23; workload_queries = 0; invitations = 0;
      lookup_hops = 6; vnodes = 12; active = 12 };
    { strat = Strategy.Random_injection; ticks = 10;
      factor = 1.6666666666666667; joins = 20; leaves = 1; key_transfers = 23;
      workload_queries = 0; invitations = 0; lookup_hops = 19; vnodes = 19;
      active = 12 };
    { strat = Strategy.Neighbor_injection; ticks = 10;
      factor = 1.6666666666666667; joins = 20; leaves = 1; key_transfers = 21;
      workload_queries = 0; invitations = 0; lookup_hops = 19; vnodes = 19;
      active = 12 };
    { strat = Strategy.Smart_neighbor_injection; ticks = 10;
      factor = 1.6666666666666667; joins = 20; leaves = 1; key_transfers = 26;
      workload_queries = 40; invitations = 0; lookup_hops = 19; vnodes = 19;
      active = 12 };
    { strat = Strategy.Invitation; ticks = 12; factor = 2.0; joins = 12;
      leaves = 0; key_transfers = 0; workload_queries = 0; invitations = 0;
      lookup_hops = 0; vnodes = 12; active = 12 };
    { strat = Strategy.Strength_aware_injection; ticks = 9; factor = 1.5;
      joins = 18; leaves = 0; key_transfers = 32; workload_queries = 30;
      invitations = 0; lookup_hops = 13; vnodes = 18; active = 12 };
    { strat = Strategy.Static_virtual_nodes; ticks = 15; factor = 2.5;
      joins = 51; leaves = 0; key_transfers = 227; workload_queries = 0;
      invitations = 0; lookup_hops = 112; vnodes = 51; active = 12 };
  ]

let check_golden params (g : golden) =
  let p = Strategy.default_params g.strat params in
  let r = Engine.run p (Strategy.make g.strat ()) in
  let name = Strategy.name g.strat in
  (match r.Engine.outcome with
  | Engine.Finished t ->
    Alcotest.(check int) (name ^ " ticks") g.ticks t
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
  (* The diagnostics must not move at all without a plan. *)
  Alcotest.(check int) (name ^ " dropped") 0 m.Messages.dropped;
  Alcotest.(check int) (name ^ " retries") 0 m.Messages.retries;
  Alcotest.(check int) (name ^ " vnodes") g.vnodes r.Engine.final_vnodes;
  Alcotest.(check int) (name ^ " active") g.active r.Engine.final_active

let test_golden_p1 () =
  let params =
    {
      (Params.default ~nodes:30 ~tasks:600) with
      Params.churn_rate = 0.05;
      failure_rate = 0.02;
      seed = 7;
    }
  in
  List.iter (check_golden params) golden_p1

let test_golden_p2 () =
  let params =
    {
      (Params.default ~nodes:12 ~tasks:200) with
      Params.heterogeneity = Params.Heterogeneous;
      work = Params.Strength_per_tick;
      seed = 99;
    }
  in
  List.iter (check_golden params) golden_p2

(* ---- 2. pure plan properties -------------------------------------- *)

let prop_backoff_monotone_capped =
  let gen =
    QCheck.Gen.(
      let* base = int_range 1 5 in
      let* cap = int_range 1 100 in
      let* attempt = int_range 0 62 in
      return (base, cap, attempt))
  in
  let print (b, c, a) = Printf.sprintf "base=%d cap=%d attempt=%d" b c a in
  Testutil.prop ~count:500 "backoff is monotone, capped, positive"
    (QCheck.make ~print gen)
    (fun (base, cap, attempt) ->
      let b = Faults.backoff ~base ~cap ~attempt in
      let b' = Faults.backoff ~base ~cap ~attempt:(attempt + 1) in
      b >= min base cap && b <= cap && b' >= b)

(* The retry schedule a machine with budget [n] experiences: waits for
   attempts 0..n-1, each no shorter than the previous, none beyond cap,
   and exactly [n] of them — the state machine never retries more than
   [retry_budget] times (also enforced at runtime by the invariant
   harness's attempts-within-budget law). *)
let prop_retry_schedule =
  let gen =
    QCheck.Gen.(
      let* base = int_range 1 4 in
      let* cap = int_range 1 32 in
      let* budget = int_range 0 8 in
      return (base, cap, budget))
  in
  let print (b, c, n) = Printf.sprintf "base=%d cap=%d budget=%d" b c n in
  Testutil.prop ~count:300 "retry schedule has budget length, sorted, capped"
    (QCheck.make ~print gen)
    (fun (base, cap, budget) ->
      let waits = List.init budget (fun a -> Faults.backoff ~base ~cap ~attempt:a) in
      List.length waits = budget
      && List.for_all (fun w -> w >= 1 && w <= cap) waits
      && List.sort compare waits = waits)

let gen_plan =
  QCheck.Gen.(
    let* drop = oneofl [ 0.0; 0.05; 0.25; 0.5; 1.0 ] in
    let* stragglers = int_range 0 6 in
    let* straggle_delay = int_range 0 4 in
    let* retry_budget = int_range 0 5 in
    let* backoff_base = int_range 1 4 in
    let* backoff_cap = int_range 4 16 in
    let* crash_bursts =
      oneofl
        [
          [];
          [ { Faults.at = 10; count = 3 } ];
          [ { Faults.at = 5; count = 1 }; { Faults.at = 20; count = 4 } ];
        ]
    in
    let* partition = oneofl [ None; Some (10, 50) ] in
    let* repl_drop = oneofl [ 0.0; 0.1; 0.5; 1.0 ] in
    return
      {
        Faults.drop;
        crash_bursts;
        stragglers;
        straggle_delay;
        retry_budget;
        backoff_base;
        backoff_cap;
        partition;
        repl_drop;
      })

(* [to_string] is canonical: a disabled plan prints as "off" (knob
   values that cannot affect any run are dropped), and [straggle-delay]
   is only emitted when there are stragglers to delay.  Round-tripping
   therefore recovers the plan up to that normalization — which is
   exactly the equivalence class of runs the plan can produce. *)
let normalize_plan (p : Faults.t) =
  if not (Faults.enabled p) then Faults.none
  else if p.Faults.stragglers = 0 then
    { p with Faults.straggle_delay = Faults.none.Faults.straggle_delay }
  else p

let prop_spec_roundtrip =
  Testutil.prop ~count:300 "fault spec to_string/of_string round-trips"
    (QCheck.make ~print:Faults.to_string gen_plan)
    (fun plan ->
      match Faults.of_string (Faults.to_string plan) with
      | Ok plan' -> plan' = normalize_plan plan
      | Error e -> QCheck.Test.fail_reportf "spec did not parse back: %s" e)

(* A malformed --faults spec must be rejected with a pointed error, not
   silently last-writer-wins (duplicates) or ignored (unknown keys). *)
let test_spec_rejects_bad_keys () =
  let expect_error ~needle spec =
    match Faults.of_string spec with
    | Ok _ -> Alcotest.failf "%S parsed but should be rejected" spec
    | Error e ->
      let has sub s =
        let n = String.length sub and m = String.length s in
        let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      if not (has needle e) then
        Alcotest.failf "%S: error %S does not mention %S" spec e needle
  in
  expect_error ~needle:"duplicate fault key \"drop\"" "drop=0.1,drop=0.2";
  expect_error ~needle:"duplicate fault key \"crash\"" "crash=2@3,straggle=1,crash=1@9";
  expect_error ~needle:"duplicate fault key \"repl-drop\"" "repl-drop=0.1,repl-drop=0.1";
  expect_error ~needle:"unknown fault key \"bogus\"" "bogus=1";
  (* The unknown-key error lists every valid key so the user can fix the
     spec without reading the source. *)
  expect_error ~needle:"valid keys: drop, crash, straggle, straggle-delay, \
                        retry-budget, backoff, partition, repl-drop"
    "drop=0.1,typo=3";
  (match Faults.of_string "repl-drop=0.25" with
  | Ok p ->
    Alcotest.(check (float 0.0)) "repl-drop parses" 0.25 p.Faults.repl_drop
  | Error e -> Alcotest.failf "repl-drop spec rejected: %s" e)

(* ---- 3. exact degraded-mode semantics (drop = 1.0) ---------------- *)

(* Three machines; machine 0 is idle and smart-injects.  Its successor
   list shows two foreign arcs: m1's narrow arc (holding the most keys:
   the Smart pick if replies arrived) and m2's wide arc (the dumb
   widest-arc pick).  With drop = 1.0 no reply ever arrives, so after
   exactly [retry_budget] retries the fallback must place the Sybil at
   the WIDE arc's midpoint — the same arc the dumb rule picks.

   m2 holds a second key at 0.8 so that when the fallback Sybil (at the
   wide arc's midpoint, ~0.55) takes over key 0.5, m2 is not left idle:
   m2 is decision-due that very tick and would otherwise start its own
   query round, polluting machine 0's exact message accounting. *)
let test_smart_fallback_exact () =
  let budget = 2 in
  let faults =
    {
      Faults.none with
      Faults.drop = 1.0;
      retry_budget = budget;
      backoff_base = 1;
      backoff_cap = 8;
    }
  in
  let params =
    {
      (Params.default ~nodes:3 ~tasks:5) with
      Params.sybil_threshold = 0;
      seed = 5;
      faults;
    }
  in
  let id0 = Id.of_fraction 0.1
  and id1 = Id.of_fraction 0.2
  and id2 = Id.of_fraction 0.9 in
  let state =
    State.For_testing.build ~params
      ~machines:[| (1, [ id0 ]); (1, [ id1 ]); (1, [ id2 ]) |]
      ~keys:
        [
          (* three keys for m1 (heaviest), two for m2 (widest arc) *)
          Id.of_fraction 0.12;
          Id.of_fraction 0.15;
          Id.of_fraction 0.18;
          Id.of_fraction 0.5;
          Id.of_fraction 0.8;
        ]
  in
  let st = Neighbor_injection.strategy Neighbor_injection.Smart () in
  (* tick 0: m0 due, initial round times out, first retry scheduled at
     tick 1 (backoff 1); tick 1: retry 1 times out, next at tick 3
     (backoff 2); tick 2: waiting; tick 3: retry 2 times out, budget
     exhausted, same-tick fallback places the Sybil. *)
  for _ = 0 to 3 do
    st.Engine.decide state;
    State.advance_tick state
  done;
  let m = Dht.messages state.State.dht in
  let candidates = 2 in
  Alcotest.(check int) "retries = budget" budget m.Messages.retries;
  Alcotest.(check int) "queries = (budget+1) * candidates"
    ((budget + 1) * candidates)
    m.Messages.workload_queries;
  Alcotest.(check int) "dropped = (budget+1) * candidates"
    ((budget + 1) * candidates)
    m.Messages.dropped;
  (* Fallback landed on the dumb rule's arc: (id1, id2], not m1's. *)
  let expected =
    Interval.midpoint (Interval.make ~after:id1 ~upto:id2)
  in
  (match state.State.phys.(0).State.vnodes with
  | [ _; sybil ] ->
    Alcotest.(check bool) "sybil at the widest arc's midpoint" true
      (Id.equal sybil.Dht.id expected)
  | l -> Alcotest.failf "machine 0 has %d vnodes, wanted 2" (List.length l));
  (* Retry state fully cleared after the fallback. *)
  Alcotest.(check int) "attempts cleared" 0
    state.State.phys.(0).State.retry_attempts;
  Alcotest.(check int) "no retry pending" (-1) state.State.phys.(0).State.retry_at

(* With budget 0 the fallback is immediate: no retries at all, a single
   charged round, the dumb pick the same tick. *)
let test_smart_fallback_budget_zero () =
  let faults = { Faults.none with Faults.drop = 1.0; retry_budget = 0 } in
  let params =
    {
      (Params.default ~nodes:3 ~tasks:4) with
      Params.sybil_threshold = 0;
      seed = 5;
      faults;
    }
  in
  let id0 = Id.of_fraction 0.1
  and id1 = Id.of_fraction 0.2
  and id2 = Id.of_fraction 0.9 in
  let state =
    State.For_testing.build ~params
      ~machines:[| (1, [ id0 ]); (1, [ id1 ]); (1, [ id2 ]) |]
      ~keys:[ Id.of_fraction 0.15; Id.of_fraction 0.5 ]
  in
  let st = Neighbor_injection.strategy Neighbor_injection.Smart () in
  st.Engine.decide state;
  let m = Dht.messages state.State.dht in
  Alcotest.(check int) "no retries" 0 m.Messages.retries;
  Alcotest.(check int) "one round of queries" 2 m.Messages.workload_queries;
  Alcotest.(check int) "sybil placed immediately" 2
    (List.length state.State.phys.(0).State.vnodes)

(* ---- 4. robustness ------------------------------------------------ *)

let faulted_params =
  {
    (Params.default ~nodes:20 ~tasks:300) with
    Params.churn_rate = 0.05;
    failure_rate = 0.02;
    sybil_threshold = 1;
    seed = 11;
    faults =
      {
        Faults.drop = 0.2;
        crash_bursts = [ { Faults.at = 3; count = 5 } ];
        stragglers = 3;
        straggle_delay = 2;
        retry_budget = 2;
        backoff_base = 1;
        backoff_cap = 8;
        partition = Some (2, 10);
        repl_drop = 0.0;
      };
  }

(* Same seed + same plan => bit-identical aggregates on 1 and 4 domains
   (trials are independent; the fault stream is re-derived per trial). *)
let test_domains_deterministic () =
  List.iter
    (fun strat ->
      let p = Strategy.default_params strat faulted_params in
      let mk () = Strategy.make strat () in
      let a1 = Runner.run_trials ~trials:6 ~domains:1 p mk in
      let a4 = Runner.run_trials ~trials:6 ~domains:4 p mk in
      (* compare, not (<>): the batch aggregate NaNs its steady-state
         fields, and nan <> nan would fail spuriously *)
      if compare a1 a4 <> 0 then
        Alcotest.failf "%s: 1-domain and 4-domain aggregates differ"
          (Strategy.name strat))
    Strategy.all

(* Every strategy, full fault plan, invariants checked after every tick:
   crash bursts and dropped messages must never lose a task key, and the
   run must terminate (not hit the safety cap). *)
let test_conservation_under_faults () =
  let params = { faulted_params with Params.check_every_tick = true } in
  List.iter
    (fun strat ->
      let p = Strategy.default_params strat params in
      let r = Engine.run p (Strategy.make strat ()) in
      match r.Engine.outcome with
      | Engine.Finished _ -> ()
      | Engine.Aborted t | Engine.Timed_out t ->
        Alcotest.failf "%s hit the tick cap (%d) under faults"
          (Strategy.name strat) t)
    Strategy.all

(* Determinism of a single faulted run: identical field-for-field on
   repeat (the fault stream is derived from the seed, not global state). *)
let test_run_repeatable () =
  let p =
    Strategy.default_params Strategy.Smart_neighbor_injection faulted_params
  in
  let run () =
    let r =
      Engine.run p (Strategy.make Strategy.Smart_neighbor_injection ())
    in
    let m = r.Engine.messages in
    ( r.Engine.outcome,
      r.Engine.factor,
      r.Engine.final_vnodes,
      r.Engine.final_active,
      ( m.Messages.joins,
        m.Messages.leaves,
        m.Messages.key_transfers,
        m.Messages.workload_queries,
        m.Messages.dropped,
        m.Messages.retries ) )
  in
  if run () <> run () then Alcotest.fail "faulted run not repeatable"

(* ---- 5. the reply round ------------------------------------------ *)

let all_vnodes (s : State.t) =
  List.concat_map
    (fun (p : State.phys) -> p.State.vnodes)
    (Array.to_list s.State.phys)

let dropped (s : State.t) = (Dht.messages s.State.dht).Messages.dropped

(* A twin of the fault stream, advanced by one bernoulli per candidate,
   predicts every fate and must end where the state's stream ends.  The
   seed is one whose drops come early, so candidates after a drop are
   checked too. *)
let test_heard_draws_every_candidate () =
  let seed = 4 and drop = 0.5 in
  let params =
    {
      (Params.default ~nodes:6 ~tasks:6) with
      Params.seed;
      faults = { Faults.none with Faults.drop };
    }
  in
  let state =
    State.For_testing.build ~params
      ~machines:
        (Array.init 6 (fun i ->
             (1, [ Id.of_fraction (float_of_int i /. 6.0) ])))
      ~keys:[]
  in
  let candidates = all_vnodes state in
  let twin = Faults.rng ~seed in
  let fates = List.map (fun _ -> Prng.bernoulli twin drop) candidates in
  (match List.rev fates with
  | _ :: earlier when List.mem true earlier -> ()
  | _ -> Alcotest.fail "seed gives no drop before the last candidate");
  let heard = State.heard state ~late_ok:false Fun.id candidates in
  Alcotest.(check (list string))
    "heard = the candidates the twin did not drop"
    (List.filter_map
       (fun (vn, lost) -> if lost then None else Some (Id.to_hex vn.Dht.id))
       (List.combine candidates fates))
    (List.map (fun vn -> Id.to_hex vn.Dht.id) heard);
  Alcotest.(check bool) "one draw per candidate" true
    (Prng.state_equal (Prng.capture twin) (Prng.capture state.State.frng));
  Alcotest.(check int) "each loss charged"
    (List.length (List.filter Fun.id fates))
    (dropped state)

(* The partition victim's reply is lost with no draw, even at
   0 < drop < 1. *)
let test_heard_partitioned () =
  let params =
    {
      (Params.default ~nodes:6 ~tasks:60) with
      Params.seed = 9;
      faults = { Faults.none with Faults.drop = 0.5; partition = Some (0, 10) };
    }
  in
  let state = State.create params in
  let victim = state.State.phys.(state.State.partitioned).State.vnodes in
  let before = Prng.capture state.State.frng in
  Alcotest.(check int) "victim unheard" 0
    (List.length (State.heard state ~late_ok:true Fun.id victim));
  Alcotest.(check bool) "no draw" true
    (Prng.state_equal before (Prng.capture state.State.frng));
  Alcotest.(check int) "loss charged" 1 (dropped state)

(* With a reliable network a straggler's reply is only late: it counts
   iff [late_ok], and no fate draws anything. *)
let test_heard_stragglers () =
  let params =
    {
      (Params.default ~nodes:8 ~tasks:80) with
      Params.seed = 2;
      faults = { Faults.none with Faults.stragglers = 8 };
    }
  in
  let state = State.create params in
  let candidates = all_vnodes state in
  let straggles (vn : State.payload Dht.vnode) =
    state.State.phys.(vn.Dht.payload.State.owner).State.straggler
  in
  if List.for_all straggles candidates || not (List.exists straggles candidates)
  then Alcotest.fail "seed gives no mix of stragglers and prompt machines";
  let before = Prng.capture state.State.frng in
  let ids =
    List.map (fun (vn : State.payload Dht.vnode) -> Id.to_hex vn.Dht.id)
  in
  Alcotest.(check (list string)) "late replies count" (ids candidates)
    (ids (State.heard state ~late_ok:true Fun.id candidates));
  Alcotest.(check (list string)) "late replies miss"
    (ids (List.filter (fun vn -> not (straggles vn)) candidates))
    (ids (State.heard state ~late_ok:false Fun.id candidates));
  Alcotest.(check bool) "no draw" true
    (Prng.state_equal before (Prng.capture state.State.frng));
  Alcotest.(check int) "nothing lost" 0 (dropped state)

let () =
  Alcotest.run "faults"
    [
      ( "golden",
        [
          Alcotest.test_case "faults-off identical (churn+fail)" `Quick
            test_golden_p1;
          Alcotest.test_case "faults-off identical (hetero strength)" `Quick
            test_golden_p2;
        ] );
      ( "plan",
        [
          prop_backoff_monotone_capped;
          prop_retry_schedule;
          prop_spec_roundtrip;
          Alcotest.test_case "spec rejects duplicate/unknown keys" `Quick
            test_spec_rejects_bad_keys;
        ] );
      ( "degraded",
        [
          Alcotest.test_case "smart fallback exact accounting" `Quick
            test_smart_fallback_exact;
          Alcotest.test_case "smart fallback budget zero" `Quick
            test_smart_fallback_budget_zero;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "1 vs 4 domains bit-identical" `Quick
            test_domains_deterministic;
          Alcotest.test_case "conservation under crash bursts" `Quick
            test_conservation_under_faults;
          Alcotest.test_case "faulted run repeatable" `Quick test_run_repeatable;
        ] );
      ( "reply round",
        [
          Alcotest.test_case "one draw per candidate, even after a drop"
            `Quick test_heard_draws_every_candidate;
          Alcotest.test_case "partitioned sender dropped without a draw"
            `Quick test_heard_partitioned;
          Alcotest.test_case "late reply counts iff late_ok" `Quick
            test_heard_stragglers;
        ] );
    ]
