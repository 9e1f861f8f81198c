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
  else begin
    let buf = Buffer.create 64 in
    let add fmt =
      Printf.ksprintf
        (fun s ->
          if Buffer.length buf > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf s)
        fmt
    in
    (match t.profile with
    | None -> ()
    | Some (Poisson { rate }) -> add "poisson=%g" rate
    | Some (Bursty { rate; burst_rate; on; off }) ->
      add "burst=%g:%g:%d:%d" rate burst_rate on off
    | Some (Diurnal { rate; amplitude; period }) ->
      add "diurnal=%g:%g:%d" rate amplitude period);
    (match t.keys with
    | Uniform -> ()
    | Hot { hotspots; spread; zipf_s } ->
      add "hot=%d:%g:%g" hotspots spread zipf_s);
    if t.horizon <> none.horizon then add "horizon=%d" t.horizon;
    if t.window <> none.window then add "window=%d" t.window;
    Buffer.contents buf
  end

let pp ppf t = Format.pp_print_string ppf (to_string t)

let of_string s =
  let s = String.trim s in
  if s = "" || String.lowercase_ascii s = "off" then Ok none
  else begin
    let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v in
    let int_of name v =
      match int_of_string_opt v with
      | Some n -> Ok n
      | None -> Error (Printf.sprintf "%s: expected an integer, got %S" name v)
    in
    let float_of name v =
      match float_of_string_opt v with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "%s: expected a number, got %S" name v)
    in
    let fields name expect v =
      let parts = String.split_on_char ':' v in
      if List.length parts <> List.length expect then
        Error
          (Printf.sprintf "%s: expected %s, got %S" name
             (String.concat ":" expect) v)
      else Ok parts
    in
    let valid_keys = "poisson, burst, diurnal, hot, horizon, window" in
    (* One clause per key, like fault specs: duplicates are almost
       always a typo'd plan, so reject them. *)
    let parse_pair acc pair =
      let* acc, seen = acc in
      match String.index_opt pair '=' with
      | None -> Error (Printf.sprintf "expected key=value, got %S" pair)
      | Some i ->
        let key = String.lowercase_ascii (String.sub pair 0 i) in
        let v = String.sub pair (i + 1) (String.length pair - i - 1) in
        let* acc =
          if List.mem key seen then
            Error
              (Printf.sprintf
                 "duplicate arrival key %S (each key at most once)" key)
          else Ok acc
        in
        let* acc =
          let set_profile p =
            match acc.profile with
            | Some _ ->
              Error
                "at most one rate profile (poisson, burst or diurnal) per \
                 plan"
            | None -> Ok { acc with profile = Some p }
          in
          match key with
          | "poisson" ->
            let* rate = float_of "poisson" v in
            set_profile (Poisson { rate })
          | "burst" ->
            let* parts = fields "burst" [ "LO"; "HI"; "ON"; "OFF" ] v in
            (match parts with
            | [ lo; hi; on; off ] ->
              let* rate = float_of "burst base rate" lo in
              let* burst_rate = float_of "burst high rate" hi in
              let* on = int_of "burst on-phase" on in
              let* off = int_of "burst off-phase" off in
              set_profile (Bursty { rate; burst_rate; on; off })
            | _ -> assert false)
          | "diurnal" ->
            let* parts = fields "diurnal" [ "MEAN"; "AMP"; "PERIOD" ] v in
            (match parts with
            | [ mean; amp; period ] ->
              let* rate = float_of "diurnal mean rate" mean in
              let* amplitude = float_of "diurnal amplitude" amp in
              let* period = int_of "diurnal period" period in
              set_profile (Diurnal { rate; amplitude; period })
            | _ -> assert false)
          | "hot" ->
            let* parts = fields "hot" [ "HOTSPOTS"; "SPREAD"; "ZIPF_S" ] v in
            (match parts with
            | [ h; sp; z ] ->
              let* hotspots = int_of "hot spots" h in
              let* spread = float_of "hot spread" sp in
              let* zipf_s = float_of "hot zipf exponent" z in
              Ok { acc with keys = Hot { hotspots; spread; zipf_s } }
            | _ -> assert false)
          | "horizon" ->
            let* n = int_of "horizon" v in
            Ok { acc with horizon = n }
          | "window" ->
            let* n = int_of "window" v in
            Ok { acc with window = n }
          | _ ->
            Error
              (Printf.sprintf "unknown arrival key %S (valid keys: %s)" key
                 valid_keys)
        in
        Ok (acc, key :: seen)
    in
    let* plan, _ =
      List.fold_left parse_pair (Ok (none, [])) (String.split_on_char ',' s)
    in
    let* () =
      if plan.profile = None then
        Error "arrival plan needs a rate profile (poisson, burst or diurnal)"
      else Ok ()
    in
    let* () = validate plan in
    Ok plan
  end
