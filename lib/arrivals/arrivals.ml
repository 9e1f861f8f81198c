type profile =
  | Poisson of { rate : float }
  | Bursty of { rate : float; burst_rate : float; on : int; off : int }
  | Diurnal of { rate : float; amplitude : float; period : int }

type keys =
  | Uniform
  | Hot of { hotspots : int; spread : float; zipf_s : float }

type t = {
  profile : profile option;
  keys : keys;
  horizon : int;
  window : int;
}

let none = { profile = None; keys = Uniform; horizon = 200; window = 25 }
let enabled t = t.profile <> None

(* A mean of 10k arrivals in one tick is already far past anything the
   consume side can drain; beyond it Knuth's inversion loop (one draw
   per arrival) stops being a sane way to sample. *)
let max_rate = 10_000.0

let valid_rate r = Float.is_finite r && r >= 0.0 && r <= max_rate

let validate t =
  let profile_ok =
    match t.profile with
    | None -> Ok ()
    | Some (Poisson { rate }) ->
      if not (valid_rate rate) then
        Error (Printf.sprintf "poisson rate must be in [0, %g]" max_rate)
      else Ok ()
    | Some (Bursty { rate; burst_rate; on; off }) ->
      if not (valid_rate rate) then
        Error (Printf.sprintf "burst base rate must be in [0, %g]" max_rate)
      else if not (valid_rate burst_rate) then
        Error (Printf.sprintf "burst high rate must be in [0, %g]" max_rate)
      else if on < 1 then Error "burst on-phase must be >= 1 tick"
      else if off < 1 then Error "burst off-phase must be >= 1 tick"
      else Ok ()
    | Some (Diurnal { rate; amplitude; period }) ->
      if not (valid_rate rate) then
        Error (Printf.sprintf "diurnal mean rate must be in [0, %g]" max_rate)
      else if not (Float.is_finite amplitude) || amplitude < 0.0 then
        Error "diurnal amplitude must be >= 0"
      else if amplitude > rate then
        Error "diurnal amplitude must not exceed the mean rate"
      else if period < 1 then Error "diurnal period must be >= 1 tick"
      else Ok ()
  in
  match profile_ok with
  | Error _ as e -> e
  | Ok () -> (
    let keys_ok =
      match t.keys with
      | Uniform -> Ok ()
      | Hot { hotspots; spread; zipf_s } ->
        if hotspots < 1 then Error "hot spots must be >= 1"
        else if not (Float.is_finite spread) || spread < 0.0 || spread > 1.0
        then Error "hot spread must be in [0, 1]"
        else if not (Float.is_finite zipf_s) || zipf_s < 0.0 then
          Error "hot zipf exponent must be >= 0"
        else Ok ()
    in
    match keys_ok with
    | Error _ as e -> e
    | Ok () ->
      if t.horizon < 1 then Error "horizon must be >= 1 tick"
      else if t.window < 1 then Error "window must be >= 1 tick"
      else Ok ())

let two_pi = 8.0 *. atan 1.0

let rate_at t ~tick =
  match t.profile with
  | None -> 0.0
  | Some (Poisson { rate }) -> rate
  | Some (Bursty { rate; burst_rate; on; off }) ->
    if tick mod (on + off) < on then burst_rate else rate
  | Some (Diurnal { rate; amplitude; period }) ->
    rate
    +. amplitude *. sin (two_pi *. float_of_int tick /. float_of_int period)

(* Knuth's inversion by product of uniforms: k+1 [float_unit] draws for
   a count of k.  The zero-rate guard draws nothing, mirroring
   [Prng.bernoulli]'s p = 0 short-circuit — a profile that is quiet this
   tick must leave the arrival stream untouched.  [exp (-. lambda)]
   underflows above lambda ~ 708 (every count would then be ~745), so a
   larger rate is split into ceil (lambda / 700) equal parts whose
   counts are summed: exact, as Poisson variates add.  At or below 700
   there is one part, drawn exactly as before.  The differential oracle
   duplicates this naively; keep them in lockstep. *)
let poisson_count rng lambda =
  if lambda <= 0.0 then 0
  else begin
    let parts = Float.to_int (Float.ceil (lambda /. 700.0)) in
    let l = exp (-.(lambda /. float_of_int parts)) in
    let rec go k p =
      let p = p *. Prng.float_unit rng in
      if p <= l then k else go (k + 1) p
    in
    let total = ref 0 in
    for _ = 1 to parts do
      total := !total + go 0 1.0
    done;
    !total
  end

(* The SECOND split off a throwaway parent seeded identically: the
   first split is the fault stream ([Faults.rng]), and the main stream
   is [Prng.create seed] itself.  The three streams share no state, so
   a disabled plan never consumes a draw and leaves the run
   bit-identical to an engine without [lib/arrivals] at all. *)
let rng ~seed =
  let parent = Prng.create seed in
  let (_ : Prng.t) = Prng.split parent in
  Prng.split parent

(* ---- CLI spec ---------------------------------------------------- *)

let to_string t =
  if not (enabled t) then "off"
  else
    Spec.print
      [
        Option.map
          (function
            | Poisson { rate } -> Printf.sprintf "poisson=%s" (Spec.number rate)
            | Bursty { rate; burst_rate; on; off } ->
              Printf.sprintf "burst=%s:%s:%d:%d" (Spec.number rate)
                (Spec.number burst_rate) on off
            | Diurnal { rate; amplitude; period } ->
              Printf.sprintf "diurnal=%s:%s:%d" (Spec.number rate)
                (Spec.number amplitude) period)
          t.profile;
        (match t.keys with
        | Uniform -> None
        | Hot { hotspots; spread; zipf_s } ->
          Some
            (Printf.sprintf "hot=%d:%s:%s" hotspots (Spec.number spread)
               (Spec.number zipf_s)));
        Spec.emit (t.horizon <> none.horizon) "horizon=%d" t.horizon;
        Spec.emit (t.window <> none.window) "window=%d" t.window;
      ]

let pp ppf t = Format.pp_print_string ppf (to_string t)

let of_string =
  let ( let* ) = Result.bind in
  let profile p t =
    if t.profile <> None then
      Error "at most one rate profile (poisson, burst or diurnal) per plan"
    else Ok { t with profile = Some p }
  in
  let check t =
    if t.profile = None then
      Error "arrival plan needs a rate profile (poisson, burst or diurnal)"
    else validate t
  in
  Spec.parse ~what:"arrival" ~none ~check
    [
      ( "poisson",
        fun v t ->
          let* rate = Spec.float "poisson" v in
          profile (Poisson { rate }) t );
      ( "burst",
        fun v t ->
          let* p = Spec.fields [ "LO"; "HI"; "ON"; "OFF" ] "burst" v in
          let* rate = Spec.float "burst base rate" p.(0) in
          let* burst_rate = Spec.float "burst high rate" p.(1) in
          let* on = Spec.int "burst on-phase" p.(2) in
          let* off = Spec.int "burst off-phase" p.(3) in
          profile (Bursty { rate; burst_rate; on; off }) t );
      ( "diurnal",
        fun v t ->
          let* p = Spec.fields [ "MEAN"; "AMP"; "PERIOD" ] "diurnal" v in
          let* rate = Spec.float "diurnal mean rate" p.(0) in
          let* amplitude = Spec.float "diurnal amplitude" p.(1) in
          let* period = Spec.int "diurnal period" p.(2) in
          profile (Diurnal { rate; amplitude; period }) t );
      ( "hot",
        fun v t ->
          let* p = Spec.fields [ "HOTSPOTS"; "SPREAD"; "ZIPF_S" ] "hot" v in
          let* hotspots = Spec.int "hot spots" p.(0) in
          let* spread = Spec.float "hot spread" p.(1) in
          let* zipf_s = Spec.float "hot zipf exponent" p.(2) in
          Ok { t with keys = Hot { hotspots; spread; zipf_s } } );
      Spec.key "horizon" Spec.int (fun t horizon -> { t with horizon });
      Spec.key "window" Spec.int (fun t window -> { t with window });
    ]
