type t = {
  strength : int;
  machines : int;
  target : float;
  width : float;
  window : (int * int) option;
}

let none =
  { strength = 0; machines = 0; target = 0.0; width = 0.1; window = None }

let enabled t = t.strength > 0 && t.machines > 0

let active t ~tick =
  enabled t
  &&
  match t.window with
  | None -> true
  | Some (start, stop) -> tick >= start && tick < stop

(* The attackers abandon the network when their window closes: the tick
   at which every still-active malicious machine crashes (an open-ended
   plan never retreats). *)
let crash_tick t =
  if not (enabled t) then None
  else match t.window with None -> None | Some (_, stop) -> Some stop

let validate t =
  if t.strength < 0 then Error "strength must be >= 0"
  else if t.machines < 0 then Error "machines must be >= 0"
  else if (t.strength > 0) <> (t.machines > 0) then
    Error "strength and machines must be enabled together"
  else if not (t.target >= 0.0 && t.target < 1.0) then
    Error "target must be in [0, 1)"
  else if not (t.width > 0.0 && t.width <= 1.0) then
    Error "width must be in (0, 1]"
  else
    match t.window with
    | None -> Ok ()
    | Some (start, stop) ->
      if start < 0 then Error "window start must be >= 0"
      else if stop <= start then Error "window must be non-empty"
      else Ok ()

(* One eclipse placement: a uniform offset within the targeted arc,
   clockwise of its start.  Exactly one [float_unit] draw — the
   attack-stream draw-order contract (docs/TESTING.md) counts on it. *)
let inject_id rng t =
  Id.add (Id.of_fraction t.target)
    (Id.of_fraction (Prng.float_unit rng *. t.width))

(* Split from the same integer seed as the main stream: a throwaway
   parent seeded identically feeds its THIRD SplitMix64-mixed child —
   the first is the fault stream ([Faults.rng]), the second the arrival
   stream ([Arrivals.rng]) — making this the fourth stream overall
   after the main one.  The child shares no state with any of them, so
   attack draws never perturb the main, fault, or arrival streams — a
   disabled plan never draws at all, and attack-off runs are
   bit-identical to the pre-attack engine. *)
let rng ~seed =
  let parent = Prng.create seed in
  let (_ : Prng.t) = Prng.split parent in
  let (_ : Prng.t) = Prng.split parent in
  Prng.split parent

(* ---- CLI spec ---------------------------------------------------- *)

let to_string t =
  if not (enabled t) then "off"
  else
    Spec.print
      [
        Spec.emit true "strength=%d" t.strength;
        Spec.emit true "machines=%d" t.machines;
        Spec.emit (t.target <> none.target) "target=%g" t.target;
        Spec.emit (t.width <> none.width) "width=%g" t.width;
        Option.map (fun (start, stop) -> Printf.sprintf "window=%d:%d" start stop) t.window;
      ]

let pp ppf t = Format.pp_print_string ppf (to_string t)

let of_string =
  Spec.parse ~what:"attack" ~none ~check:validate
    [
      Spec.key "strength" Spec.int (fun t strength -> { t with strength });
      Spec.key "machines" Spec.int (fun t machines -> { t with machines });
      Spec.key "target" Spec.float (fun t target -> { t with target });
      Spec.key "width" Spec.float (fun t width -> { t with width });
      Spec.key "window"
        (Spec.split ':' ("START", "STOP"))
        (fun t window -> { t with window = Some window });
    ]
