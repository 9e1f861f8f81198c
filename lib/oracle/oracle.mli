(** Differential oracle: a naive reference model of the whole simulation.

    [run params strat] replays the exact run [Engine.run params
    (Strategy.make strat ())] would perform — same PRNG stream, same
    decision rules, same churn — but on deliberately naive data
    structures: the ring is a sorted association list, key sets are
    sorted lists, every lookup is a linear scan.  Nothing is shared with
    the engine's [Ring]/[Id_set]/[Dht] except the randomness
    ({!Prng}/{!Keygen}), the hop model ({!Routing.expected_hops}) and the
    pure decision rules exported by the strategy modules — so the two
    implementations can only agree if both are correct.

    Engine and oracle must match {e bit-for-bit} on: the outcome
    (finished tick or abort cap), every per-tick trace point
    ([work_done]/[remaining]/[active_nodes]/[vnodes]), the runtime
    factor, and all message counters — including the [dropped] and
    [retries] diagnostics when a fault plan ({!Faults.t}) is active,
    and the [replications] and [tasks_lost] counters when live
    replication ([Params.replicas > 0]) is on; fault randomness is
    replayed on the same dedicated stream the engine uses
    ({!Faults.rng}).  Open-system runs (an enabled {!Arrivals.t} plan)
    additionally match on [arrived_total] and the complete sojourn
    ledger, with arrival randomness replayed on its dedicated third
    stream ({!Arrivals.rng}).  Adversarial runs (an enabled {!Attack.t}
    plan, with or without the [Params.puzzle_cost] admission defense)
    match on the [attack_joins] and [puzzles] counters too, with attack
    randomness replayed on its dedicated fourth stream ({!Attack.rng}).
    [test/test_oracle.ml] enforces this over qcheck-generated scenarios
    spanning every strategy; see [docs/TESTING.md] for the PRNG
    draw-order contract that keeps the two sides in lockstep.

    The oracle re-checks its own invariants (key conservation, arc
    ownership, Sybil caps, message accounting) after every tick,
    unconditionally — it is cheap at oracle scales. *)

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
(** Mirrors {!Messages.t} field for field, including the live-replication
    counters ([replications], [tasks_lost]), the adversary/defense
    diagnostics ([attack_joins], [puzzles]), and the diffusive-balancing
    traffic ([work_transfers]). *)

type point = {
  tick : int;
  work_done : int;
  remaining : int;
  active_nodes : int;
  vnodes : int;
}
(** Mirrors {!Trace.point} field for field. *)

type outcome = Finished of int | Aborted of int
(** Mirrors {!Engine.outcome}. *)

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
      (** tasks accepted by the arrival process (0 for batch runs) —
          mirrors [Engine.result.arrived_total] *)
  sojourn_ledger : (int * int) list;
      (** sorted [(sojourn, completions)] histogram — mirrors
          [Engine.result.sojourn_ledger]; [[]] for batch runs *)
}

val run : Params.t -> Strategy.t -> result
(** Run the reference model to completion.  Callers comparing against
    the engine must apply {!Strategy.default_params} to [params] first
    (or to neither side), exactly as the runner does.
    @raise Invalid_argument on invalid params or an internal invariant
    violation — the latter is always a bug worth a report. *)

val zipf_scan : Prng.t -> n:int -> s:float -> int
(** The oracle's own Zipf draw over ranks [1..n]: one
    {!Prng.float_unit} draw, then a linear scan of the truncated
    harmonic weights, O([n]) per draw.  Exported as the reference that
    [Keygen.zipf]'s table must match rank for rank and draw for draw. *)
