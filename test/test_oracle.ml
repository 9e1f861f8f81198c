(* Differential testing of the engine against naive reference models.

   Two oracles, increasing in scope:

   - a closed-form brute-force runtime for the strategy-free fragment
     (assignment determines everything), kept from the original suite;

   - [Oracle.run] (lib/oracle): a full naive re-implementation of the
     simulation — sorted lists, linear scans, no structure sharing —
     that consumes the same PRNG stream as the engine and replays every
     strategy's decision rule.  Engine and oracle must agree
     bit-for-bit on the outcome, every per-tick trace point, the
     runtime factor and all seven message counters, across generated
     scenarios spanning all strategies, churn, failures, heterogeneous
     strengths, clustered keys and every ablation toggle.

   Scenario generation shrinks: a divergence minimises toward fewer
   nodes/tasks, no churn, homogeneous strengths, and prints the full
   reproducing configuration (including the simulation seed).
   DHTLB_ORACLE_CASES overrides the total number of generated scenarios
   (default 512, split evenly across strategies). *)

(* ---- brute-force closed-form oracle (strategy-free) -------------- *)

(* Reference: assign each key to the first node id >= it (wrapping),
   then runtime = max over nodes of ceil(keys / capacity). *)
let reference_runtime ~node_ids ~task_keys ~capacities =
  let n = Array.length node_ids in
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> Id.compare node_ids.(a) node_ids.(b)) order;
  let sorted_ids = Array.map (fun i -> node_ids.(i)) order in
  let counts = Array.make n 0 in
  Array.iter
    (fun key ->
      (* linear scan: the naive owner rule *)
      let rec find i = if i >= n then 0 else if Id.compare sorted_ids.(i) key >= 0 then i else find (i + 1) in
      let o = find 0 in
      counts.(o) <- counts.(o) + 1)
    task_keys;
  let worst = ref 0 in
  Array.iteri
    (fun i c ->
      let cap = capacities.(order.(i)) in
      let ticks = (c + cap - 1) / cap in
      if ticks > !worst then worst := ticks)
    counts;
  !worst

let engine_runtime params =
  let r = Engine.run params Engine.no_strategy in
  match r.Engine.outcome with Engine.Finished t | Engine.Aborted t | Engine.Timed_out t -> t

(* Rebuild the same ids/keys the engine draws, by replaying its seeding
   discipline (State.create draws 2n node ids then the task keys). *)
let draws (params : Params.t) =
  let rng = Prng.create params.Params.seed in
  let all_ids = Keygen.node_ids rng (2 * params.Params.nodes) in
  (* heterogeneous strength draws happen during phys-array construction *)
  let strengths =
    Array.init (2 * params.Params.nodes) (fun _ ->
        match params.Params.heterogeneity with
        | Params.Homogeneous -> 1
        | Params.Heterogeneous -> Prng.int_in rng ~lo:1 ~hi:params.Params.max_sybils)
  in
  let keys = Keygen.task_keys rng params.Params.tasks in
  let node_ids = Array.sub all_ids 0 params.Params.nodes in
  let strengths = Array.sub strengths 0 params.Params.nodes in
  (node_ids, strengths, keys)

let prop_engine_matches_reference =
  let gen =
    QCheck.Gen.(
      let* nodes = int_range 5 80 in
      let* tasks = int_range 0 2000 in
      let* hetero = bool in
      let* strength_work = bool in
      let* seed = int_bound 100_000 in
      return (nodes, tasks, hetero, strength_work, seed))
  in
  let print (n, t, h, sw, s) =
    Printf.sprintf "nodes=%d tasks=%d hetero=%b sw=%b seed=%d" n t h sw s
  in
  Testutil.prop ~count:120 "engine = brute-force reference (no strategy)"
    (QCheck.make ~print gen)
    (fun (nodes, tasks, hetero, strength_work, seed) ->
      let params =
        {
          (Params.default ~nodes ~tasks) with
          Params.heterogeneity =
            (if hetero then Params.Heterogeneous else Params.Homogeneous);
          work =
            (if strength_work then Params.Strength_per_tick else Params.Task_per_tick);
          seed;
        }
      in
      let node_ids, strengths, keys = draws params in
      let capacities =
        match params.Params.work with
        | Params.Task_per_tick -> Array.make nodes 1
        | Params.Strength_per_tick -> strengths
      in
      let expect = reference_runtime ~node_ids ~task_keys:keys ~capacities in
      engine_runtime params = expect)

let test_known_case () =
  (* hand-checkable: 2 nodes, keys placed by construction *)
  let params = Params.default ~nodes:3 ~tasks:30 in
  let node_ids, _, keys = draws params in
  let expect =
    reference_runtime ~node_ids ~task_keys:keys ~capacities:(Array.make 3 1)
  in
  Alcotest.(check int) "engine agrees" expect (engine_runtime params)

(* ---- full-strategy differential oracle --------------------------- *)

type scenario = {
  nodes : int;
  tasks : int;
  churn : float;
  fail : float;
  hetero : bool;
  strength_work : bool;
  clustered : bool;
  sybil_threshold : int;
  period : int;
  stagger : bool;
  rejoin_fresh : bool;
  split_median : bool;
  avoid_repeats : bool;
  max_ticks_factor : int;
  seed : int;
  faults : Faults.t;
  replicas : int;
  repair_lag : int;
  arrivals : Arrivals.t;
  attack : Attack.t;
  puzzle_cost : int;
}

let params_of (s : scenario) =
  {
    (Params.default ~nodes:s.nodes ~tasks:s.tasks) with
    Params.faults = s.faults;
    replicas = s.replicas;
    repair_lag = s.repair_lag;
    arrivals = s.arrivals;
    attack = s.attack;
    puzzle_cost = s.puzzle_cost;
    churn_rate = s.churn;
    failure_rate = s.fail;
    heterogeneity = (if s.hetero then Params.Heterogeneous else Params.Homogeneous);
    work = (if s.strength_work then Params.Strength_per_tick else Params.Task_per_tick);
    keys =
      (if s.clustered then
         Params.Clustered { hotspots = 3; spread = 0.1; zipf_s = 1.0 }
       else Params.Uniform_sha1);
    sybil_threshold = s.sybil_threshold;
    decision_period = s.period;
    stagger_decisions = s.stagger;
    rejoin_fresh_id = s.rejoin_fresh;
    split_at_median = s.split_median;
    avoid_repeats = s.avoid_repeats;
    max_ticks_factor = s.max_ticks_factor;
    seed = s.seed;
  }

let print_scenario strat s =
  Printf.sprintf
    "strategy=%s nodes=%d tasks=%d churn=%g fail=%g hetero=%b strength_work=%b \
     clustered=%b threshold=%d period=%d stagger=%b rejoin_fresh=%b \
     split_median=%b avoid_repeats=%b max_ticks_factor=%d Params.seed=%d \
     faults=%s replicas=%d repair_lag=%d arrivals=%s attack=%s puzzle_cost=%d"
    (Strategy.name strat) s.nodes s.tasks s.churn s.fail s.hetero
    s.strength_work s.clustered s.sybil_threshold s.period s.stagger
    s.rejoin_fresh s.split_median s.avoid_repeats s.max_ticks_factor s.seed
    (Faults.to_string s.faults) s.replicas s.repair_lag
    (Arrivals.to_string s.arrivals) (Attack.to_string s.attack) s.puzzle_cost

let gen_scenario =
  QCheck.Gen.(
    let* nodes = int_range 2 25 in
    let* tasks = int_range 0 300 in
    let* churn = oneofl [ 0.0; 0.0; 0.05; 0.2 ] in
    let* fail = oneofl [ 0.0; 0.0; 0.05; 0.1 ] in
    let* hetero = bool in
    let* strength_work = bool in
    let* clustered = frequency [ (3, return false); (1, return true) ] in
    let* sybil_threshold = int_range 0 3 in
    let* period = int_range 1 6 in
    let* stagger = bool in
    let* rejoin_fresh = bool in
    let* split_median = bool in
    let* avoid_repeats = bool in
    let* max_ticks_factor = int_range 5 10 in
    let* seed = int_bound 1_000_000 in
    (* Half the scenarios run fault-free (the plan must stay invisible);
       the rest mix every fault axis, including the deterministic drop
       endpoints 0 and 1 (no fault-stream draw either way). *)
    let* faults =
      frequency
        [
          (1, return Faults.none);
          ( 1,
            let* drop = oneofl [ 0.0; 0.1; 0.3; 1.0 ] in
            let* stragglers = int_range 0 4 in
            let* straggle_delay = oneofl [ 0; 2 ] in
            let* retry_budget = int_range 0 3 in
            let* backoff_base = int_range 1 2 in
            let* crash_bursts =
              oneofl
                [
                  [];
                  [ { Faults.at = 3; count = 2 } ];
                  [ { Faults.at = 2; count = 1 }; { Faults.at = 6; count = 3 } ];
                ]
            in
            let* partition = oneofl [ None; Some (2, 12) ] in
            let* repl_drop = oneofl [ 0.0; 0.0; 0.3; 1.0 ] in
            return
              {
                Faults.none with
                Faults.drop;
                stragglers;
                straggle_delay;
                retry_budget;
                backoff_base;
                crash_bursts;
                partition;
                repl_drop;
              } );
        ]
    in
    (* Half the scenarios keep live replication off (the subsystem must
       stay invisible at replicas = 0); the rest sweep the degree and a
       lagged repair. *)
    let* replicas = frequency [ (1, return 0); (1, int_range 1 3) ] in
    let* repair_lag = int_range 1 3 in
    (* Half the scenarios stay batch (arrivals must be invisible when
       off); the rest sweep every profile shape, the zero-rate edge (an
       open-system run that never draws an arrival), hot keys, and short
       horizons that keep the naive oracle fast. *)
    let* arrivals =
      frequency
        [
          (1, return Arrivals.none);
          ( 1,
            let* profile =
              oneof
                [
                  (let* rate = oneofl [ 0.0; 0.5; 2.0; 8.0 ] in
                   return (Arrivals.Poisson { rate }));
                  (let* on = int_range 1 4 in
                   let* off = int_range 1 4 in
                   return
                     (Arrivals.Bursty { rate = 0.5; burst_rate = 6.0; on; off }));
                  (let* period = int_range 2 10 in
                   return
                     (Arrivals.Diurnal { rate = 3.0; amplitude = 2.0; period }));
                ]
            in
            let* keys =
              frequency
                [
                  (2, return Arrivals.Uniform);
                  ( 1,
                    let* hotspots = int_range 1 4 in
                    return
                      (Arrivals.Hot { hotspots; spread = 0.05; zipf_s = 1.1 })
                  );
                ]
            in
            let* horizon = int_range 5 40 in
            let* window = int_range 2 10 in
            return { Arrivals.profile = Some profile; keys; horizon; window } );
        ]
    in
    (* Half the scenarios run attack-free (the adversary must stay
       invisible when off); the rest sweep strength, the attacker count,
       the target arc, windowed vs. always-on plans (a window exercises
       the coordinated crash), and the puzzle defense. *)
    let* attack =
      frequency
        [
          (1, return Attack.none);
          ( 1,
            let* strength = int_range 1 3 in
            let* machines = int_range 1 3 in
            let* target = oneofl [ 0.0; 0.25; 0.7 ] in
            let* width = oneofl [ 0.05; 0.2 ] in
            let* window = oneofl [ None; Some (2, 8); Some (0, 5) ] in
            return { Attack.strength; machines; target; width; window } );
        ]
    in
    let* puzzle_cost =
      frequency [ (2, return 0); (1, int_range 1 3) ]
    in
    return
      {
        nodes;
        tasks;
        churn;
        fail;
        hetero;
        strength_work;
        clustered;
        sybil_threshold;
        period;
        stagger;
        rejoin_fresh;
        split_median;
        avoid_repeats;
        max_ticks_factor;
        seed;
        faults;
        replicas;
        repair_lag;
        arrivals;
        attack;
        puzzle_cost;
      })

(* A divergence shrinks toward the boring end of every axis: fewer
   machines and tasks, no churn/failures, homogeneous strengths, uniform
   keys, every ablation toggle off.  The simulation seed is never
   shrunk — it is part of the scenario's identity. *)
let shrink_scenario (s : scenario) yield =
  if s.tasks > 0 then begin
    yield { s with tasks = s.tasks / 2 };
    yield { s with tasks = s.tasks - 1 }
  end;
  if s.nodes > 2 then begin
    yield { s with nodes = max 2 (s.nodes / 2) };
    yield { s with nodes = s.nodes - 1 }
  end;
  if s.churn > 0.0 then yield { s with churn = 0.0 };
  if s.fail > 0.0 then yield { s with fail = 0.0 };
  if s.hetero then yield { s with hetero = false };
  if s.strength_work then yield { s with strength_work = false };
  if s.clustered then yield { s with clustered = false };
  if s.sybil_threshold > 0 then yield { s with sybil_threshold = 0 };
  if s.period > 1 then yield { s with period = 1 };
  if s.stagger then yield { s with stagger = false };
  if not s.rejoin_fresh then yield { s with rejoin_fresh = true };
  if s.split_median then yield { s with split_median = false };
  if s.avoid_repeats then yield { s with avoid_repeats = false };
  if s.max_ticks_factor > 5 then yield { s with max_ticks_factor = 5 };
  (* Faults shrink one axis at a time, then all the way off, so a
     divergence pinpoints the responsible fault kind. *)
  if Faults.enabled s.faults then begin
    yield { s with faults = Faults.none };
    let f = s.faults in
    if f.Faults.drop > 0.0 then
      yield { s with faults = { f with Faults.drop = 0.0 } };
    if f.Faults.crash_bursts <> [] then
      yield { s with faults = { f with Faults.crash_bursts = [] } };
    if f.Faults.stragglers > 0 then
      yield { s with faults = { f with Faults.stragglers = 0 } };
    if f.Faults.partition <> None then
      yield { s with faults = { f with Faults.partition = None } };
    if f.Faults.repl_drop > 0.0 then
      yield { s with faults = { f with Faults.repl_drop = 0.0 } }
  end;
  (* Recovery shrinks toward off, then toward a thinner degree and an
     eager repair. *)
  if s.replicas > 0 then begin
    yield { s with replicas = 0 };
    if s.replicas > 1 then yield { s with replicas = s.replicas - 1 }
  end;
  if s.repair_lag > 1 then yield { s with repair_lag = 1 };
  (* Arrivals shrink toward off, then toward a shorter horizon, uniform
     keys and the plainest profile, so a divergence pinpoints the
     responsible arrival axis. *)
  if Arrivals.enabled s.arrivals then begin
    yield { s with arrivals = Arrivals.none };
    let a = s.arrivals in
    if a.Arrivals.horizon > 5 then
      yield
        { s with arrivals = { a with Arrivals.horizon = a.Arrivals.horizon / 2 } };
    if a.Arrivals.keys <> Arrivals.Uniform then
      yield { s with arrivals = { a with Arrivals.keys = Arrivals.Uniform } };
    match a.Arrivals.profile with
    | None | Some (Arrivals.Poisson _) -> ()
    | Some (Arrivals.Bursty { rate; _ } | Arrivals.Diurnal { rate; _ }) ->
      yield
        {
          s with
          arrivals = { a with Arrivals.profile = Some (Arrivals.Poisson { rate }) };
        }
  end;
  (* The adversary shrinks toward off, then toward one weak attacker on
     an always-on plan (no coordinated crash), so a divergence pinpoints
     the responsible attack axis; the defense shrinks toward off. *)
  if Attack.enabled s.attack then begin
    yield { s with attack = Attack.none };
    let a = s.attack in
    if a.Attack.strength > 1 then
      yield { s with attack = { a with Attack.strength = 1 } };
    if a.Attack.machines > 1 then
      yield { s with attack = { a with Attack.machines = 1 } };
    if a.Attack.window <> None then
      yield { s with attack = { a with Attack.window = None } }
  end;
  if s.puzzle_cost > 0 then begin
    yield { s with puzzle_cost = 0 };
    if s.puzzle_cost > 1 then yield { s with puzzle_cost = 1 }
  end

let arb_scenario strat =
  QCheck.make ~print:(print_scenario strat) ~shrink:shrink_scenario gen_scenario

(* Run both implementations and report the FIRST divergence in full —
   qcheck then shrinks the scenario and prints the reproducing line. *)
let compare_runs (strat : Strategy.t) (s : scenario) =
  let params = Strategy.default_params strat (params_of s) in
  let er = Engine.run params (Strategy.make strat ()) in
  let orr = Oracle.run params strat in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let outcome_str = function
    | `E (Engine.Finished t) | `O (Oracle.Finished t) ->
      Printf.sprintf "Finished %d" t
    | `E (Engine.Aborted t) | `O (Oracle.Aborted t) ->
      Printf.sprintf "Aborted %d" t
    | `E (Engine.Timed_out t) -> Printf.sprintf "Timed_out %d" t
  in
  let ( let* ) r f = match r with Error _ as e -> e | Ok () -> f () in
  let* () =
    match (er.Engine.outcome, orr.Oracle.outcome) with
    | Engine.Finished a, Oracle.Finished b when a = b -> Ok ()
    | Engine.Aborted a, Oracle.Aborted b when a = b -> Ok ()
    | e, o ->
      fail "outcome: engine %s, oracle %s"
        (outcome_str (`E e)) (outcome_str (`O o))
  in
  let* () =
    if er.Engine.ideal = orr.Oracle.ideal then Ok ()
    else fail "ideal: engine %d, oracle %d" er.Engine.ideal orr.Oracle.ideal
  in
  let* () =
    if er.Engine.factor = orr.Oracle.factor then Ok ()
    else fail "factor: engine %g, oracle %g" er.Engine.factor orr.Oracle.factor
  in
  let ep = Trace.points er.Engine.trace in
  let op = orr.Oracle.points in
  (* The engine may run under a bounded or streaming sink (the ci oracle
     smoke sets DHTLB_TRACE_OUT=ring:N): compare the total recorded
     count, then match whatever window the sink retained against the
     corresponding tail of the oracle's full series. *)
  let* () =
    if Trace.recorded er.Engine.trace = Array.length op then Ok ()
    else
      fail "trace length: engine %d points, oracle %d"
        (Trace.recorded er.Engine.trace)
        (Array.length op)
  in
  let off = Array.length op - Array.length ep in
  let* () =
    let bad = ref (Ok ()) in
    (try
       Array.iteri
         (fun i (e : Trace.point) ->
           let o = op.(off + i) in
           if
             e.Trace.tick <> o.Oracle.tick
             || e.Trace.work_done <> o.Oracle.work_done
             || e.Trace.remaining <> o.Oracle.remaining
             || e.Trace.active_nodes <> o.Oracle.active_nodes
             || e.Trace.vnodes <> o.Oracle.vnodes
           then begin
             bad :=
               fail
                 "tick %d: engine {work=%d rem=%d active=%d vnodes=%d}, oracle \
                  {work=%d rem=%d active=%d vnodes=%d}"
                 e.Trace.tick e.Trace.work_done e.Trace.remaining
                 e.Trace.active_nodes e.Trace.vnodes o.Oracle.work_done
                 o.Oracle.remaining o.Oracle.active_nodes o.Oracle.vnodes;
             raise Exit
           end)
         ep
     with Exit -> ());
    !bad
  in
  let em = er.Engine.messages and om = orr.Oracle.msgs in
  let* () =
    let pairs =
      [
        ("joins", em.Messages.joins, om.Oracle.joins);
        ("leaves", em.Messages.leaves, om.Oracle.leaves);
        ("key_transfers", em.Messages.key_transfers, om.Oracle.key_transfers);
        ("workload_queries", em.Messages.workload_queries, om.Oracle.workload_queries);
        ("invitations", em.Messages.invitations, om.Oracle.invitations);
        ("lookup_hops", em.Messages.lookup_hops, om.Oracle.lookup_hops);
        ("maintenance", em.Messages.maintenance, om.Oracle.maintenance);
        ("replications", em.Messages.replications, om.Oracle.replications);
        ("dropped", em.Messages.dropped, om.Oracle.dropped);
        ("retries", em.Messages.retries, om.Oracle.retries);
        ("tasks_lost", em.Messages.tasks_lost, om.Oracle.tasks_lost);
        ("attack_joins", em.Messages.attack_joins, om.Oracle.attack_joins);
        ("puzzles", em.Messages.puzzles, om.Oracle.puzzles);
        ("work_transfers", em.Messages.work_transfers, om.Oracle.work_transfers);
      ]
    in
    match List.find_opt (fun (_, a, b) -> a <> b) pairs with
    | None -> Ok ()
    | Some (name, a, b) -> fail "messages.%s: engine %d, oracle %d" name a b
  in
  let* () =
    if er.Engine.final_vnodes = orr.Oracle.final_vnodes then Ok ()
    else
      fail "final_vnodes: engine %d, oracle %d" er.Engine.final_vnodes
        orr.Oracle.final_vnodes
  in
  let* () =
    if er.Engine.final_active = orr.Oracle.final_active then Ok ()
    else
      fail "final_active: engine %d, oracle %d" er.Engine.final_active
        orr.Oracle.final_active
  in
  (* Open-system ledgers (both sides hold 0 / [] for batch runs). *)
  let* () =
    if er.Engine.arrived_total = orr.Oracle.arrived_total then Ok ()
    else
      fail "arrived_total: engine %d, oracle %d" er.Engine.arrived_total
        orr.Oracle.arrived_total
  in
  if er.Engine.sojourn_ledger = orr.Oracle.sojourn_ledger then Ok ()
  else
    let ledger l =
      "["
      ^ String.concat "; "
          (List.map (fun (s, c) -> Printf.sprintf "%d:%d" s c) l)
      ^ "]"
    in
    fail "sojourn_ledger: engine %s, oracle %s"
      (ledger er.Engine.sojourn_ledger)
      (ledger orr.Oracle.sojourn_ledger)

(* Total generated scenarios across all strategies; DHTLB_ORACLE_CASES
   overrides (CI smoke uses a smaller pool, nightly a larger one). *)
let total_cases =
  match Sys.getenv_opt "DHTLB_ORACLE_CASES" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> n
    | _ -> invalid_arg "DHTLB_ORACLE_CASES must be a positive integer")
  | None -> 512

let per_strategy_count =
  max 1 (total_cases / List.length Strategy.all)

let prop_oracle strat =
  Testutil.prop ~count:per_strategy_count
    (Printf.sprintf "engine = full oracle (%s)" (Strategy.name strat))
    (arb_scenario strat)
    (fun s ->
      match compare_runs strat s with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_reportf "engine/oracle diverged: %s" msg)

let oracle_props = List.map prop_oracle Strategy.all

(* Deterministic spot checks: one stressed configuration per strategy,
   churn + failures + heterogeneous strengths + strength-per-tick work,
   so the suite exercises every replayed code path even at count=1. *)
let test_oracle_stressed strat () =
  let s =
    {
      nodes = 12;
      tasks = 180;
      churn = 0.1;
      fail = 0.05;
      hetero = true;
      strength_work = true;
      clustered = false;
      sybil_threshold = 1;
      period = 3;
      stagger = true;
      rejoin_fresh = true;
      split_median = false;
      avoid_repeats = true;
      max_ticks_factor = 8;
      seed = 1234;
      faults = Faults.none;
      replicas = 0;
      repair_lag = 1;
      arrivals = Arrivals.none;
      attack = Attack.none;
      puzzle_cost = 0;
    }
  in
  match compare_runs strat s with
  | Ok () -> ()
  | Error msg ->
    Alcotest.failf "engine/oracle diverged on %s: %s" (print_scenario strat s) msg

(* Regression for the message-accounting fixes: a 2-machine network with
   aggressive churn and failures repeatedly trips the last-node
   protection (a refused departure must charge no [key_transfers]) and,
   with pinned identities, refused [`Occupied] rejoins (which must
   charge no lookup hops).  The bit-for-bit counter comparison fails if
   either side regresses to charging on the no-op path. *)
let test_oracle_accounting_edges () =
  let s =
    {
      nodes = 2;
      tasks = 40;
      churn = 0.25;
      fail = 0.3;
      hetero = false;
      strength_work = false;
      clustered = false;
      sybil_threshold = 1;
      period = 1;
      stagger = false;
      rejoin_fresh = false;
      split_median = false;
      avoid_repeats = false;
      max_ticks_factor = 8;
      seed = 42;
      faults = Faults.none;
      replicas = 0;
      repair_lag = 1;
      arrivals = Arrivals.none;
      attack = Attack.none;
      puzzle_cost = 0;
    }
  in
  List.iter
    (fun strat ->
      match compare_runs strat s with
      | Ok () -> ()
      | Error msg ->
        Alcotest.failf "engine/oracle diverged on %s: %s"
          (print_scenario strat s) msg)
    Strategy.all

(* Deterministic fault-mode scenarios, every strategy: the oracle must
   replay the fault stream draw for draw.  One scenario per dominant
   fault kind — drop-heavy (exercises query_round misses, retries and
   the dumb-rule fallback), straggler-heavy (delayed replies missing
   and, with delay 0, making the window), and crash-burst (mass
   ungraceful failures interleaved with churn), plus a partition
   window. *)
let fault_base =
  {
    nodes = 12;
    tasks = 180;
    churn = 0.05;
    fail = 0.02;
    hetero = true;
    strength_work = true;
    clustered = false;
    sybil_threshold = 1;
    period = 3;
    stagger = true;
    rejoin_fresh = true;
    split_median = false;
    avoid_repeats = true;
    max_ticks_factor = 8;
    seed = 4321;
    faults = Faults.none;
    replicas = 0;
    repair_lag = 1;
    arrivals = Arrivals.none;
    attack = Attack.none;
    puzzle_cost = 0;
  }

let fault_scenarios =
  [
    ( "drop-heavy",
      { fault_base with
        faults = { Faults.none with Faults.drop = 0.3; retry_budget = 2 } } );
    ( "drop-certain",
      { fault_base with
        faults = { Faults.none with Faults.drop = 1.0; retry_budget = 1 } } );
    ( "straggler-heavy",
      { fault_base with
        faults =
          { Faults.none with Faults.stragglers = 8; straggle_delay = 2 } } );
    ( "straggler-instant",
      { fault_base with
        faults =
          { Faults.none with Faults.stragglers = 8; straggle_delay = 0 } } );
    ( "crash-burst",
      { fault_base with
        faults =
          {
            Faults.none with
            Faults.crash_bursts =
              [ { Faults.at = 4; count = 4 }; { Faults.at = 9; count = 3 } ];
          } } );
    ( "partitioned",
      { fault_base with
        faults = { Faults.none with Faults.partition = Some (2, 14) } } );
    ( "everything",
      { fault_base with
        faults =
          {
            Faults.drop = 0.2;
            crash_bursts = [ { Faults.at = 5; count = 3 } ];
            stragglers = 4;
            straggle_delay = 2;
            retry_budget = 2;
            backoff_base = 1;
            backoff_cap = 4;
            partition = Some (3, 12);
            repl_drop = 0.0;
          } } );
    (* Live replication on: the oracle must mirror crash recovery (the
       lost-or-recovered predicate and its key_transfers/tasks_lost
       charges) and the repair pass's enrolment draws bit-for-bit. *)
    ( "recovery-crash",
      { fault_base with
        replicas = 2;
        faults =
          {
            Faults.none with
            Faults.crash_bursts =
              [ { Faults.at = 4; count = 4 }; { Faults.at = 9; count = 3 } ];
          } } );
    ( "recovery-lossy-repair",
      { fault_base with
        replicas = 1;
        repair_lag = 2;
        faults =
          {
            Faults.none with
            Faults.repl_drop = 0.5;
            crash_bursts =
              [ { Faults.at = 3; count = 3 }; { Faults.at = 7; count = 3 } ];
          } } );
    ( "recovery-near-wipeout",
      { fault_base with
        replicas = 1;
        faults =
          { Faults.none with
            Faults.crash_bursts = [ { Faults.at = 4; count = 10 } ] } } );
    (* Live replication off, two machines, no initial tasks: a failure
       must not take the ring's last vnode with it, even a keyless one.
       When it did, the ring emptied and the next burst of arrivals was
       charged to tasks_lost. *)
    ( "recovery-off-last-vnode",
      { fault_base with
        nodes = 2;
        tasks = 0;
        churn = 0.0;
        fail = 0.1;
        hetero = false;
        strength_work = false;
        sybil_threshold = 0;
        period = 1;
        stagger = false;
        avoid_repeats = false;
        max_ticks_factor = 5;
        seed = 403588;
        arrivals =
          { Arrivals.none with
            Arrivals.profile =
              Some
                (Arrivals.Bursty
                   { rate = 0.5; burst_rate = 6.0; on = 1; off = 3 });
            horizon = 9;
            window = 8 } } );
  ]

(* Deterministic open-system scenarios, every strategy: the oracle must
   replay the arrival stream draw for draw and settle the identical
   sojourn ledger.  One scenario per arrival shape, one with hot keys
   (exercising the zipf + offset draws and door-dropped duplicates), one
   from an empty task pool (every task is stream-born), and the full
   stack — arrivals x faults x live replication — where crash losses
   must leave both birth ledgers in lockstep. *)
let arrival_scenarios =
  [
    ( "poisson-steady",
      { fault_base with
        arrivals =
          { Arrivals.none with
            Arrivals.profile = Some (Arrivals.Poisson { rate = 4.0 });
            horizon = 30;
            window = 10 } } );
    ( "bursty",
      { fault_base with
        arrivals =
          { Arrivals.none with
            Arrivals.profile =
              Some
                (Arrivals.Bursty
                   { rate = 0.5; burst_rate = 8.0; on = 3; off = 5 });
            horizon = 32;
            window = 8 } } );
    ( "diurnal",
      { fault_base with
        arrivals =
          { Arrivals.none with
            Arrivals.profile =
              Some (Arrivals.Diurnal { rate = 3.0; amplitude = 2.5; period = 8 });
            horizon = 32;
            window = 8 } } );
    ( "hot-keys",
      { fault_base with
        arrivals =
          { Arrivals.profile = Some (Arrivals.Poisson { rate = 6.0 });
            keys = Arrivals.Hot { hotspots = 2; spread = 0.02; zipf_s = 1.2 };
            horizon = 30;
            window = 10 } } );
    ( "stream-born",
      { fault_base with
        tasks = 0;
        arrivals =
          { Arrivals.none with
            Arrivals.profile = Some (Arrivals.Poisson { rate = 5.0 });
            horizon = 25;
            window = 5 } } );
    ( "high-rate",
      { fault_base with
        arrivals =
          { Arrivals.none with
            Arrivals.profile = Some (Arrivals.Poisson { rate = 1500.0 });
            horizon = 2;
            window = 1 } } );
    ( "zero-rate",
      { fault_base with
        arrivals =
          { Arrivals.none with
            Arrivals.profile = Some (Arrivals.Poisson { rate = 0.0 });
            horizon = 20;
            window = 5 } } );
    ( "full-stack",
      { fault_base with
        replicas = 2;
        repair_lag = 2;
        faults =
          {
            Faults.none with
            Faults.drop = 0.2;
            stragglers = 4;
            straggle_delay = 2;
            crash_bursts =
              [ { Faults.at = 5; count = 4 }; { Faults.at = 12; count = 3 } ];
            repl_drop = 0.3;
          };
        arrivals =
          { Arrivals.profile = Some (Arrivals.Poisson { rate = 4.0 });
            keys = Arrivals.Hot { hotspots = 3; spread = 0.05; zipf_s = 1.0 };
            horizon = 30;
            window = 6 } } );
  ]

(* Deterministic adversarial scenarios, every strategy: the oracle must
   replay the attack stream draw for draw and agree on the attack_joins
   and puzzles ledgers.  One scenario per regime — an always-on eclipse,
   a windowed attack whose close crashes the attackers (with and without
   live replication, exercising both recovery paths), the puzzle
   defense throttling the same plan, defense-only (benign admissions,
   no adversary), and the full stack. *)
let attack_scenarios =
  [
    ( "eclipse-always-on",
      { fault_base with
        attack =
          { Attack.strength = 2; machines = 3; target = 0.25; width = 0.1;
            window = None } } );
    ( "windowed-crash",
      { fault_base with
        attack =
          { Attack.strength = 3; machines = 3; target = 0.7; width = 0.05;
            window = Some (2, 9) } } );
    ( "windowed-crash-recovery",
      { fault_base with
        replicas = 2;
        attack =
          { Attack.strength = 3; machines = 3; target = 0.7; width = 0.05;
            window = Some (2, 9) } } );
    ( "defended",
      { fault_base with
        puzzle_cost = 2;
        attack =
          { Attack.strength = 3; machines = 3; target = 0.25; width = 0.1;
            window = Some (2, 9) } } );
    ( "defense-only",
      { fault_base with puzzle_cost = 2 } );
    ( "attack-full-stack",
      { fault_base with
        replicas = 2;
        repair_lag = 2;
        puzzle_cost = 1;
        faults =
          {
            Faults.none with
            Faults.drop = 0.2;
            stragglers = 4;
            straggle_delay = 2;
            crash_bursts = [ { Faults.at = 5; count = 3 } ];
            repl_drop = 0.3;
          };
        arrivals =
          { Arrivals.profile = Some (Arrivals.Poisson { rate = 4.0 });
            keys = Arrivals.Hot { hotspots = 3; spread = 0.05; zipf_s = 1.0 };
            horizon = 30;
            window = 6 };
        attack =
          { Attack.strength = 2; machines = 2; target = 0.5; width = 0.1;
            window = Some (3, 14) } } );
  ]

(* Deterministic transfer/reassignment edge scenarios, every strategy
   (the non-transfer strategies pin work_transfers to zero on both
   sides).  A 2-node ring collapses successor and predecessor into one
   candidate (the dedup arm) and regularly leaves a machine with no
   foreign neighbor at all; an empty task pool under arrivals makes
   empty-source and empty-destination transfers routine; crash bursts
   landing just after the first transfers park out-of-arc keys on a
   crashing machine, so recovery must restore keys a vnode never owned;
   clustered keys concentrate load so range reassignment actually finds
   an overloaded inviter and relocates helpers mid-churn. *)
let transfer_scenarios =
  [
    ( "transfer-tiny-ring",
      { fault_base with nodes = 2; tasks = 40; churn = 0.1; fail = 0.05 } );
    ( "transfer-empty-pool",
      { fault_base with
        tasks = 0;
        faults = { Faults.none with Faults.drop = 0.3 };
        arrivals =
          { Arrivals.profile = Some (Arrivals.Poisson { rate = 3.0 });
            keys = Arrivals.Uniform;
            horizon = 25;
            window = 5 } } );
    ( "transfer-into-crash",
      { fault_base with
        replicas = 2;
        faults =
          {
            Faults.none with
            Faults.crash_bursts =
              [ { Faults.at = 2; count = 3 }; { Faults.at = 4; count = 4 } ];
          } } );
    ( "transfer-clustered-overload",
      { fault_base with clustered = true; sybil_threshold = 2; churn = 0.08 } );
    (* Two hotspots 1e-15 of the ring wide: arrivals repeat keys, and a
       repeat of a key a transfer moved off its owner's arc is still a
       duplicate. *)
    ( "transfer-duplicate-arrival",
      { fault_base with
        arrivals =
          { Arrivals.profile = Some (Arrivals.Poisson { rate = 20.0 });
            keys = Arrivals.Hot { hotspots = 2; spread = 1e-15; zipf_s = 1.1 };
            horizon = 60;
            window = 10 } } );
  ]

let test_oracle_faulted (label, s) () =
  List.iter
    (fun strat ->
      match compare_runs strat s with
      | Ok () -> ()
      | Error msg ->
        Alcotest.failf "engine/oracle diverged (%s) on %s: %s" label
          (print_scenario strat s) msg)
    Strategy.all

let faulted_cases =
  List.map
    (fun (label, s) ->
      Alcotest.test_case
        (Printf.sprintf "faulted %s" label)
        `Quick
        (test_oracle_faulted (label, s)))
    fault_scenarios

let arrival_cases =
  List.map
    (fun (label, s) ->
      Alcotest.test_case
        (Printf.sprintf "open-system %s" label)
        `Quick
        (test_oracle_faulted (label, s)))
    arrival_scenarios

let attack_cases =
  List.map
    (fun (label, s) ->
      Alcotest.test_case
        (Printf.sprintf "adversarial %s" label)
        `Quick
        (test_oracle_faulted (label, s)))
    attack_scenarios

let transfer_cases =
  List.map
    (fun (label, s) ->
      Alcotest.test_case
        (Printf.sprintf "edge %s" label)
        `Quick
        (test_oracle_faulted (label, s)))
    transfer_scenarios

let stressed_cases =
  List.map
    (fun strat ->
      Alcotest.test_case
        (Printf.sprintf "stressed %s" (Strategy.name strat))
        `Quick (test_oracle_stressed strat))
    Strategy.all

let () =
  Alcotest.run "oracle"
    [
      ( "differential",
        Alcotest.test_case "known case" `Quick test_known_case
        :: Alcotest.test_case "accounting edges" `Quick
             test_oracle_accounting_edges
        :: (stressed_cases @ faulted_cases @ arrival_cases @ attack_cases
           @ transfer_cases) );
      ("properties", prop_engine_matches_reference :: oracle_props);
    ]
