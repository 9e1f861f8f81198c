(* The ledger's four named workloads.  All are closed loop: one
   simulation runs as fast as it can, with no wall-clock schedule, and
   each stresses a different engine step (see README.md for the layer
   map).  Plans are kept as the CLI spec strings a user would type, so
   the README and the output can quote them verbatim. *)

type t = {
  name : string;
  why : string;
  strategy : Strategy.t;
  nodes : int;
  tasks : int;
  churn : float;
  failures : float;
  replicas : int;
  faults : string;
  arrivals : string;
  attack : string;
  puzzle_cost : int;
}

let base name why strategy ~nodes ~tasks =
  {
    name;
    why;
    strategy;
    nodes;
    tasks;
    churn = 0.0;
    failures = 0.0;
    replicas = 0;
    faults = "off";
    arrivals = "off";
    attack = "off";
    puzzle_cost = 0;
  }

let all =
  [
    base "batch-scale"
      "population-scale Sybil injection: decide (keygen + ring join/leave) \
       dominates, no churn, faults or arrivals"
      Strategy.Random_injection ~nodes:100_000 ~tasks:1_000_000;
    {
      (base "stream-open"
         "open system: the only workload with arrivals, the birth ledger, \
          sojourn settlement and the steady collector on the clock"
         Strategy.Random_injection ~nodes:10_000 ~tasks:100_000)
      with
      churn = 0.01;
      (* 700 keeps [exp (-rate)] a normal float, so [Arrivals.poisson_count]
         draws a true Poisson count (it underflows above about 708). *)
      arrivals = "poisson=700,horizon=300,window=50";
    };
    {
      (base "hostile"
         "faults, smart-query retries, the full-scan decision path, \
          admission puzzles and the adversary; consume is heaviest"
         Strategy.Smart_neighbor_injection ~nodes:10_000 ~tasks:1_000_000)
      with
      churn = 0.01;
      faults = "drop=0.1";
      attack = "strength=2,machines=50,target=0.25,width=0.05,window=10:80";
      puzzle_cost = 2;
    };
    {
      (base "churn-replicated"
         "the ring as a write workload: replica repair, churn and crash \
          restore dominate; decide is small, the control for decide-side \
          changes"
         Strategy.Invitation ~nodes:10_000 ~tasks:500_000)
      with
      churn = 0.02;
      failures = 0.01;
      replicas = 2;
      faults = "crash=500@20+500@60";
    };
  ]

let names = List.map (fun w -> w.name) all
let find name = List.find_opt (fun w -> String.equal w.name name) all

let parse what of_string spec =
  match of_string spec with
  | Ok v -> v
  | Error e -> invalid_arg (Printf.sprintf "ledger: bad %s spec %S: %s" what spec e)

(* [scale] divides every size in the workload — machines, tasks, arrival
   rate, crash-burst and attacker counts — so the smoke test exercises
   the same code paths at about 1/scale of the cost. *)
let params ?(scale = 1) ~seed w =
  let div n = max 1 (n / scale) in
  let faults = parse "fault" Faults.of_string w.faults in
  let faults =
    {
      faults with
      Faults.crash_bursts =
        List.map
          (fun b -> { b with Faults.count = div b.Faults.count })
          faults.Faults.crash_bursts;
    }
  in
  let arrivals = parse "arrival" Arrivals.of_string w.arrivals in
  let arrivals =
    match arrivals.Arrivals.profile with
    | Some (Arrivals.Poisson { rate }) ->
      {
        arrivals with
        Arrivals.profile =
          Some (Arrivals.Poisson { rate = rate /. float_of_int scale });
      }
    | _ -> arrivals
  in
  let attack = parse "attack" Attack.of_string w.attack in
  let attack =
    if Attack.enabled attack then
      { attack with Attack.machines = div attack.Attack.machines }
    else attack
  in
  {
    (Params.default ~nodes:(div w.nodes) ~tasks:(div w.tasks)) with
    Params.seed;
    churn_rate = w.churn;
    failure_rate = w.failures;
    replicas = w.replicas;
    faults;
    arrivals;
    attack;
    puzzle_cost = w.puzzle_cost;
  }

(* The equivalent [dhtlb simulate] / [dhtlb stream] command line. *)
let cli w =
  let opt flag v default = if v = default then [] else [ flag; v ] in
  String.concat " "
    ([
       "dhtlb";
       (if w.arrivals = "off" then "simulate" else "stream");
       "--nodes";
       string_of_int w.nodes;
       "--tasks";
       string_of_int w.tasks;
       "--strategy";
       Strategy.name w.strategy;
     ]
    @ opt "--churn" (Printf.sprintf "%g" w.churn) "0"
    @ opt "--failures" (Printf.sprintf "%g" w.failures) "0"
    @ opt "--replicas" (string_of_int w.replicas) "0"
    @ opt "--faults" w.faults "off"
    @ opt "--arrivals" w.arrivals "off"
    @ opt "--attack" w.attack "off"
    @ opt "--puzzle-cost" (string_of_int w.puzzle_cost) "0")
