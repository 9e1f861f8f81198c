(** Open-system arrival plans for the simulation engine.

    The paper's experiments drain a fixed task pool to zero — a batch,
    judged by makespan.  An arrival plan turns the engine into an
    {e open system}: new tasks are injected into the live ring at the
    start of every tick, the run lasts exactly {!field-horizon} ticks,
    and the interesting measurement is steady-state queueing behaviour
    (windowed queue-length and sojourn percentiles) rather than time to
    drain.

    Like a fault plan, an arrival plan is a {e pure description}; all
    arrival randomness — the per-tick Poisson counts and the injected
    task keys — is drawn from a {e dedicated PRNG stream} ({!rng})
    split from the simulation seed, never from the main simulation
    stream.  Consequence (enforced by the differential oracle and
    pinned by [test/test_arrivals.ml]): a run with {!none} is
    bit-for-bit identical to a run of the engine before arrivals
    existed. *)

type profile =
  | Poisson of { rate : float }
      (** homogeneous Poisson process: [rate] expected arrivals/tick *)
  | Bursty of { rate : float; burst_rate : float; on : int; off : int }
      (** on/off (interrupted Poisson) process: [burst_rate] for [on]
          ticks, then [rate] for [off] ticks, repeating from tick 0 *)
  | Diurnal of { rate : float; amplitude : float; period : int }
      (** sinusoidal rate [rate + amplitude * sin (2π tick / period)] —
          a day/night load curve *)

type keys =
  | Uniform  (** fresh SHA-1 ids, uniform on the ring ([Keygen.fresh]) *)
  | Hot of { hotspots : int; spread : float; zipf_s : float }
      (** Zipf-skewed hot keys: [hotspots] centers are drawn from the
          arrival stream at setup; each arriving task picks a center
          with Zipf([zipf_s]) frequency ([Keygen.zipf]) and lands a
          uniform offset in [[0, spread)) clockwise of it — the same
          construction as [Params.Clustered] batch keys *)

type t = {
  profile : profile option;  (** [None] = batch engine, bit-for-bit *)
  keys : keys;
  horizon : int;
      (** exact run length in ticks; an open-system run never terminates
          by draining (arrivals keep coming) and ignores [max_ticks] *)
  window : int;  (** steady-state measurement window length, in ticks *)
}

val none : t
(** The empty plan: no arrivals, batch semantics.  [horizon = 200],
    [window = 25], [keys = Uniform] are the defaults used when a plan
    enables a profile without spelling them. *)

val enabled : t -> bool
(** [true] iff the plan injects arrivals (a profile is set). *)

val validate : t -> (unit, string) result

val rate_at : t -> tick:int -> float
(** Expected arrivals at [tick] under the plan's profile; [0] when
    disabled.  Pure — both the engine and the oracle price every tick
    through this one function.  Never negative (validation bounds
    diurnal amplitude by the mean rate). *)

val poisson_count : Prng.t -> float -> int
(** [poisson_count rng lambda] draws one Poisson(lambda) variate by
    Knuth's product-of-uniforms inversion: multiply [Prng.float_unit]
    draws until the product falls to [exp (-. lambda)].  Draw-order
    contract: exactly [k + 1] draws for a count of [k], and [lambda <=
    0] returns [0] {e without drawing} (like [Prng.bernoulli] at p = 0).
    Above [lambda = 700], where [exp (-. lambda)] would underflow, the
    count is the sum of [m = ceil (lambda / 700)] such draws at rate
    [lambda / m] each ([k + m] draws in all).  The differential oracle
    re-implements this naively; [test/test_arrivals.ml] pins the
    equivalence on a shared stream. *)

val rng : seed:int -> Prng.t
(** The dedicated arrival stream for a simulation seed: the {e second}
    split off a throwaway parent seeded identically (the first split is
    the fault stream, [Faults.rng]).  Shares no state with either, so a
    disabled plan leaves both other streams untouched. *)

val of_string : string -> (t, string) result
(** Parse a CLI arrival spec by {!Spec}'s grammar.  Keys: exactly one
    rate profile among [poisson=8.5], [burst=2:40:10:50] (LO:HI:ON:OFF)
    and [diurnal=10:6:100] (MEAN:AMP:PERIOD); [hot=16:0.05:1.1]
    (HOTSPOTS:SPREAD:ZIPF_S), [horizon=500], [window=50]. *)

val to_string : t -> string
(** Canonical spec string ({!of_string} round-trips); ["off"] for
    {!none}. *)

val pp : Format.formatter -> t -> unit
