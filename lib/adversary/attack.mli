(** Adversarial Sybil attack plans.

    The paper uses the Sybil attack {e for good}; this is its dark twin
    (de Moura Netto et al.'s eclipse-style attacker, SybilControl's
    admission-puzzle defense).  A plan names a set of {e malicious}
    machines drawn from the initial network that, while the plan is
    {!active}, stop doing honest work (starvation), stop participating
    in the load-balancing decision rules, and instead inject Sybil
    vnodes into a targeted arc of the ring (eclipse) — hoarding the keys
    routed there without ever completing them.  When a windowed plan's
    window closes the attackers abandon the network in one simultaneous
    crash ({!crash_tick}), turning the eclipse into data loss unless the
    recovery plane ([Params.replicas]) saved the hostage tasks.

    Like a fault or arrival plan, an attack plan is a {e pure
    description}; all attack randomness — the choice of malicious
    machines at setup and every injected vnode id — draws from a
    {e dedicated PRNG stream} ({!rng}) split from the simulation seed.
    Consequence (enforced by the differential oracle and pinned by
    [test/test_attack.ml]): a run with {!none} is bit-for-bit identical
    to a run of the engine before the adversary existed.

    The defense is priced separately: [Params.puzzle_cost] taxes
    {e every} Sybil admission (benign ones too) with a computational
    puzzle solved over that many ticks — see [State.create_sybil]. *)

type t = {
  strength : int;
      (** Sybil injection attempts per malicious machine per active
          tick; [0] disables the plan *)
  machines : int;
      (** malicious machines, drawn without replacement from the
          initially active machines at setup (capped at [nodes]) *)
  target : float;  (** start of the eclipsed arc, as a ring fraction in [0, 1) *)
  width : float;  (** width of the eclipsed arc, as a ring fraction in (0, 1] *)
  window : (int * int) option;
      (** active ticks [[start, stop)); [None] = the whole run, and the
          attackers never retreat *)
}

val none : t
(** The empty plan: no attacker, pre-attack engine bit-for-bit.
    [target = 0], [width = 0.1] are the defaults used when a plan
    enables an attacker without spelling them. *)

val enabled : t -> bool
(** [true] iff the plan fields an attacker ([strength] and [machines]
    both positive). *)

val active : t -> tick:int -> bool
(** The attacker is acting at [tick]: enabled, and inside the window
    (or unwindowed). *)

val crash_tick : t -> int option
(** The tick at which every still-active malicious machine crashes —
    [Some stop] for an enabled windowed plan, [None] otherwise. *)

val validate : t -> (unit, string) result

val inject_id : Prng.t -> t -> Id.t
(** One eclipse placement: [target + u * width] on the ring, [u] a
    single [Prng.float_unit] draw.  Draw-order contract: exactly one
    draw per call, always on the attack stream. *)

val rng : seed:int -> Prng.t
(** The dedicated attack stream for a simulation seed: the {e third}
    split off a throwaway parent seeded identically (first = fault
    stream, second = arrival stream), i.e. the fourth stream overall
    after the main one.  Shares no state with any of them, so a
    disabled plan leaves every other stream untouched. *)

val of_string : string -> (t, string) result
(** Parse a CLI attack spec by {!Spec}'s grammar.  Keys: [strength=2],
    [machines=5], [target=0.25], [width=0.1], [window=10:40]
    (START:STOP). *)

val to_string : t -> string
(** Canonical spec string ({!of_string} round-trips); ["off"] for
    {!none}. *)

val pp : Format.formatter -> t -> unit
