type burst = { at : int; count : int }

type t = {
  drop : float;
  crash_bursts : burst list;
  stragglers : int;
  straggle_delay : int;
  retry_budget : int;
  backoff_base : int;
  backoff_cap : int;
  partition : (int * int) option;
  repl_drop : float;
}

let none =
  {
    drop = 0.0;
    crash_bursts = [];
    stragglers = 0;
    straggle_delay = 2;
    retry_budget = 2;
    backoff_base = 1;
    backoff_cap = 8;
    partition = None;
    repl_drop = 0.0;
  }

let enabled t =
  t.drop > 0.0 || t.crash_bursts <> [] || t.stragglers > 0
  || t.partition <> None || t.repl_drop > 0.0

let validate t =
  if not (t.drop >= 0.0 && t.drop <= 1.0) then Error "drop must be in [0, 1]"
  else if List.exists (fun b -> b.at < 0) t.crash_bursts then
    Error "crash burst tick must be >= 0"
  else if List.exists (fun b -> b.count < 1) t.crash_bursts then
    Error "crash burst count must be >= 1"
  else if t.stragglers < 0 then Error "stragglers must be >= 0"
  else if t.straggle_delay < 0 then Error "straggle_delay must be >= 0"
  else if t.retry_budget < 0 then Error "retry_budget must be >= 0"
  else if t.backoff_base < 1 then Error "backoff_base must be >= 1"
  else if t.backoff_cap < t.backoff_base then
    Error "backoff_cap must be >= backoff_base"
  else if not (t.repl_drop >= 0.0 && t.repl_drop <= 1.0) then
    Error "repl_drop must be in [0, 1]"
  else
    match t.partition with
    | None -> Ok ()
    | Some (start, stop) ->
      if start < 0 then Error "partition start must be >= 0"
      else if stop <= start then Error "partition window must be non-empty"
      else Ok ()

(* [1 lsl attempt] overflows past 62; by then the product long exceeded
   any sane cap, so saturate the shift instead of the caller's cap. *)
let backoff ~base ~cap ~attempt =
  if attempt >= 30 then cap else min cap (base * (1 lsl max 0 attempt))

let burst_at t ~tick =
  List.fold_left
    (fun acc b -> if b.at = tick then acc + b.count else acc)
    0 t.crash_bursts

let partition_active t ~tick =
  match t.partition with
  | None -> false
  | Some (start, stop) -> tick >= start && tick < stop

(* Split from the same integer seed as the main stream: a throwaway
   parent seeded identically feeds one SplitMix64-mixed child.  The
   child shares no state with the simulation's own [Prng.create seed],
   so fault draws never perturb the main stream. *)
let rng ~seed = Prng.split (Prng.create seed)

(* ---- CLI spec ---------------------------------------------------- *)

let to_string t =
  if not (enabled t) then "off"
  else
    let burst b = Printf.sprintf "%d@%d" b.count b.at in
    Spec.print
      [
        Spec.emit (t.drop > 0.0) "drop=%g" t.drop;
        Spec.emit (t.crash_bursts <> []) "crash=%s"
          (String.concat "+" (List.map burst t.crash_bursts));
        Spec.emit (t.stragglers > 0) "straggle=%d" t.stragglers;
        Spec.emit
          (t.stragglers > 0 && t.straggle_delay <> none.straggle_delay)
          "straggle-delay=%d" t.straggle_delay;
        Spec.emit (t.retry_budget <> none.retry_budget) "retry-budget=%d"
          t.retry_budget;
        Spec.emit
          (t.backoff_base <> none.backoff_base || t.backoff_cap <> none.backoff_cap)
          "backoff=%d:%d" t.backoff_base t.backoff_cap;
        Option.map (fun (start, stop) -> Printf.sprintf "partition=%d-%d" start stop)
          t.partition;
        Spec.emit (t.repl_drop > 0.0) "repl-drop=%g" t.repl_drop;
      ]

let pp ppf t = Format.pp_print_string ppf (to_string t)

(* Several crash bursts share the one [crash] clause a key allows,
   joined by [+]. *)
let rec bursts name = function
  | [] -> Ok []
  | b :: rest ->
    Result.bind (Spec.split '@' ("COUNT", "TICK") name b) (fun (count, at) ->
        Result.map (List.cons { at; count }) (bursts name rest))

let of_string =
  Spec.parse ~what:"fault" ~none ~check:validate
    [
      Spec.key "drop" Spec.float (fun t drop -> { t with drop });
      Spec.key "crash"
        (fun name v -> bursts name (String.split_on_char '+' v))
        (fun t crash_bursts -> { t with crash_bursts });
      Spec.key "straggle" Spec.int (fun t stragglers -> { t with stragglers });
      Spec.key "straggle-delay" Spec.int (fun t straggle_delay -> { t with straggle_delay });
      Spec.key "retry-budget" Spec.int (fun t retry_budget -> { t with retry_budget });
      Spec.key "backoff"
        (Spec.split ':' ("BASE", "CAP"))
        (fun t (backoff_base, backoff_cap) -> { t with backoff_base; backoff_cap });
      Spec.key "partition"
        (Spec.split '-' ("START", "STOP"))
        (fun t window -> { t with partition = Some window });
      Spec.key "repl-drop" Spec.float (fun t repl_drop -> { t with repl_drop });
    ]
