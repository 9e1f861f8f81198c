type work_measurement = Task_per_tick | Strength_per_tick
type heterogeneity = Homogeneous | Heterogeneous

type key_distribution =
  | Uniform_sha1
  | Clustered of { hotspots : int; spread : float; zipf_s : float }

type t = {
  nodes : int;
  tasks : int;
  churn_rate : float;
  failure_rate : float;
  max_sybils : int;
  sybil_threshold : int;
  num_successors : int;
  heterogeneity : heterogeneity;
  work : work_measurement;
  keys : key_distribution;
  decision_period : int;
  stagger_decisions : bool;
  invite_factor : float;
  rejoin_fresh_id : bool;
  split_at_median : bool;
  avoid_repeats : bool;
  seed : int;
  max_ticks_factor : int;
  check_every_tick : bool;
  faults : Faults.t;
  replicas : int;
  repair_lag : int;
  arrivals : Arrivals.t;
  attack : Attack.t;
  puzzle_cost : int;
}

let default ~nodes ~tasks =
  {
    nodes;
    tasks;
    churn_rate = 0.0;
    failure_rate = 0.0;
    max_sybils = 5;
    sybil_threshold = 0;
    num_successors = 5;
    heterogeneity = Homogeneous;
    work = Task_per_tick;
    keys = Uniform_sha1;
    decision_period = 5;
    stagger_decisions = true;
    invite_factor = 2.0;
    rejoin_fresh_id = true;
    split_at_median = false;
    avoid_repeats = false;
    seed = 42;
    max_ticks_factor = 50;
    check_every_tick = false;
    faults = Faults.none;
    replicas = 0;
    repair_lag = 1;
    arrivals = Arrivals.none;
    attack = Attack.none;
    puzzle_cost = 0;
  }

let recovery_on t = t.replicas > 0

(* DHTLB_CHECK=1 switches the invariant harness on for every run in the
   process without threading a flag through callers — CI uses it to run
   the whole battery in checked mode.  Read once, at startup, as a plain
   value: trials on several domains consult it, and a lazy value forced
   from two domains at once raises [Lazy.Undefined]. *)
let env_check =
  match Sys.getenv_opt "DHTLB_CHECK" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let check_requested t = t.check_every_tick || env_check

let ideal_runtime t ~strengths =
  let capacity =
    match t.work with
    | Task_per_tick -> t.nodes
    | Strength_per_tick -> Array.fold_left ( + ) 0 strengths
  in
  (t.tasks + capacity - 1) / capacity

let validate t =
  if t.nodes < 1 then Error "nodes must be >= 1"
  else if t.tasks < 0 then Error "tasks must be >= 0"
  else if not (t.churn_rate >= 0.0 && t.churn_rate <= 1.0) then
    Error "churn_rate must be in [0, 1]"
  else if not (t.failure_rate >= 0.0 && t.failure_rate <= 1.0) then
    Error "failure_rate must be in [0, 1]"
  else if t.max_sybils < 1 then Error "max_sybils must be >= 1"
  else if t.sybil_threshold < 0 then Error "sybil_threshold must be >= 0"
  else if t.num_successors < 1 then Error "num_successors must be >= 1"
  else if t.decision_period < 1 then Error "decision_period must be >= 1"
  else if not (Float.is_finite t.invite_factor && t.invite_factor > 0.0) then
    Error "invite_factor must be finite and > 0"
  else if t.max_ticks_factor < 1 then Error "max_ticks_factor must be >= 1"
  else if t.replicas < 0 then Error "replicas must be >= 0"
  else if t.repair_lag < 1 then Error "repair_lag must be >= 1"
  else if t.puzzle_cost < 0 then Error "puzzle_cost must be >= 0"
  else
    match Faults.validate t.faults with
    | Error e -> Error ("faults: " ^ e)
    | Ok () -> (
      match Attack.validate t.attack with
      | Error e -> Error ("attack: " ^ e)
      | Ok () -> (
      match Arrivals.validate t.arrivals with
      | Error e -> Error ("arrivals: " ^ e)
      | Ok () -> (
        match t.keys with
        | Uniform_sha1 -> Ok ()
        | Clustered { hotspots; spread; zipf_s } ->
          if hotspots < 1 then Error "clustered keys need hotspots >= 1"
          else if not (spread > 0.0 && spread <= 1.0) then
            Error "clustered spread must be in (0, 1]"
          else if not (Float.is_finite zipf_s && zipf_s >= 0.0) then
            Error "zipf_s must be finite and >= 0"
          else Ok ())))

let pp ppf t =
  let het =
    match t.heterogeneity with
    | Homogeneous -> "homogeneous"
    | Heterogeneous -> "heterogeneous"
  in
  let work =
    match t.work with
    | Task_per_tick -> "task/tick"
    | Strength_per_tick -> "strength/tick"
  in
  Format.fprintf ppf
    "nodes=%d tasks=%d churn=%g fail=%g maxSybils=%d sybilThreshold=%d successors=%d \
     %s %s period=%d seed=%d"
    t.nodes t.tasks t.churn_rate t.failure_rate t.max_sybils t.sybil_threshold
    t.num_successors het work t.decision_period t.seed;
  if recovery_on t then
    Format.fprintf ppf " replicas=%d repair-lag=%d" t.replicas t.repair_lag;
  if Faults.enabled t.faults then
    Format.fprintf ppf " faults=%a" Faults.pp t.faults;
  if Arrivals.enabled t.arrivals then
    Format.fprintf ppf " arrivals=%a" Arrivals.pp t.arrivals;
  if Attack.enabled t.attack then
    Format.fprintf ppf " attack=%a" Attack.pp t.attack;
  if t.puzzle_cost > 0 then Format.fprintf ppf " puzzle-cost=%d" t.puzzle_cost
