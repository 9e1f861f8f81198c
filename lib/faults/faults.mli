(** Deterministic fault plans for the simulation engine.

    The paper evaluates every strategy over a perfectly reliable message
    layer; this module describes the unreliable one.  A fault plan is a
    {e pure description} — which control-plane messages are lost, which
    machines straggle, when crash bursts and partitions happen — and all
    fault randomness is drawn from a {e dedicated PRNG stream}
    ({!rng}) split from the simulation seed, never from the main
    simulation stream.  Consequence (enforced by the differential
    oracle and pinned by [test/test_faults.ml]): a run with {!none} is
    bit-for-bit identical to a run of the engine before faults existed,
    and any two runs with the same seed and the same plan are
    bit-identical regardless of instrumentation or domain count.

    Scope: most faults apply to the {e control plane} — workload
    queries, invitation announces and their replies; join handovers and
    key transfers are modelled as reliable.  Since live replication
    exists ([Params.replicas > 0]) the plan also carries one data-plane
    knob, {!field-repl_drop}: backup {e enrolments} can fail (and are
    retried at the next repair pass), and the crash path itself loses
    the tasks whose whole replica group died — accounted in
    [Messages.tasks_lost], never silent (the invariant harness checks
    the conserved-or-accounted-lost law under crash bursts like under
    any other churn).  With [replicas = 0] the data plane behaves
    exactly as before: failures teleport keys reliably and nothing is
    ever lost. *)

type burst = { at : int;  (** tick at which the burst fires *) count : int }
(** [count] active machines die ungracefully at tick [at]. *)

type t = {
  drop : float;
      (** probability that a control message (workload query /
          invitation announce) is lost in transit; [0] = reliable *)
  crash_bursts : burst list;
      (** scheduled mass failures, e.g. a rack power loss *)
  stragglers : int;
      (** number of machines (drawn from the fault stream at setup)
          whose replies are delayed {!field-straggle_delay} ticks *)
  straggle_delay : int;
      (** reply delay of a straggler in ticks; [>= 1] means the reply
          misses the decision that asked for it *)
  retry_budget : int;
      (** Smart Neighbor re-sends a timed-out query round up to this
          many times before falling back to the zero-message dumb rule *)
  backoff_base : int;  (** first retry waits this many ticks *)
  backoff_cap : int;  (** exponential backoff never exceeds this *)
  partition : (int * int) option;
      (** one-arc partition window [[start, stop)): one machine (drawn
          from the fault stream at setup) is unreachable — messages to
          it are lost and it makes no decisions — but keeps consuming
          its own tasks *)
  repl_drop : float;
      (** probability that one backup enrolment (copying a vnode's tasks
          to a new replica holder during a repair pass) fails that pass;
          the holder stays missing and is retried at the next pass.
          Only consulted when [Params.replicas > 0]; [0] = reliable *)
}

val none : t
(** The empty plan: reliable network, no stragglers, no bursts, no
    partition.  [retry_budget = 2], [backoff_base = 1],
    [backoff_cap = 8], [straggle_delay = 2] are the defaults used when
    a plan enables the corresponding fault. *)

val enabled : t -> bool
(** [true] iff the plan can ever inject a fault (drop > 0, a burst, a
    straggler, a partition window, or repl_drop > 0). *)

val validate : t -> (unit, string) result

val backoff : base:int -> cap:int -> attempt:int -> int
(** Ticks to wait before retry number [attempt] (0-based):
    [min cap (base * 2^attempt)].  Monotone non-decreasing in
    [attempt], bounded by [cap], never below [min base cap].
    Pinned by property tests in [test/test_faults.ml]. *)

val burst_at : t -> tick:int -> int
(** Total machines scheduled to crash at [tick] (bursts may stack). *)

val partition_active : t -> tick:int -> bool
(** Whether [tick] falls inside the partition window. *)

val rng : seed:int -> Prng.t
(** The dedicated fault stream for a simulation seed: split from the
    same integer seed as the main stream but sharing no state with it,
    so fault draws never perturb the main stream (and vice versa). *)

val of_string : string -> (t, string) result
(** Parse a CLI fault spec by {!Spec}'s grammar.  Keys: [drop=0.1],
    [crash=5@200] (several bursts: [crash=5@200+3@400]), [straggle=3],
    [straggle-delay=2], [retry-budget=3], [backoff=1:8] (BASE:CAP),
    [partition=100-250] (window [[100, 250))), [repl-drop=0.2]. *)

val to_string : t -> string
(** Canonical spec string ({!of_string} round-trips); ["off"] for
    {!none}. *)

val pp : Format.formatter -> t -> unit
