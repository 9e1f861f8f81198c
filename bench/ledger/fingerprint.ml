(* The result digest that gates every repetition: SHA-1 over a canonical
   encoding of everything a run decides — outcome and ticks, the
   makespan ratios as exact bits, every message counter, the final ring
   shape and the open-system ledger.  Two runs with equal digests did
   the same simulation, whatever their timings. *)

type t = {
  outcome : Engine.outcome;
  factor : float;
  work_per_tick : float;
  messages : Messages.t;
  final_vnodes : int;
  final_active : int;
  arrived_total : int;
  sojourn_ledger : (int * int) list;
}

let of_result (r : Engine.result) =
  {
    outcome = r.Engine.outcome;
    factor = r.Engine.factor;
    work_per_tick = r.Engine.work_per_tick;
    messages = r.Engine.messages;
    final_vnodes = r.Engine.final_vnodes;
    final_active = r.Engine.final_active;
    arrived_total = r.Engine.arrived_total;
    sojourn_ledger = r.Engine.sojourn_ledger;
  }

let outcome_name = function
  | Engine.Finished _ -> "finished"
  | Engine.Aborted _ -> "aborted"
  | Engine.Timed_out _ -> "timed_out"

let ticks t =
  match t.outcome with Engine.Finished n | Engine.Aborted n | Engine.Timed_out n -> n

let encode t =
  let b = Buffer.create 512 in
  let field k v = Printf.bprintf b "%s=%s;" k v in
  field "outcome" (Printf.sprintf "%s:%d" (outcome_name t.outcome) (ticks t));
  field "factor" (Printf.sprintf "%Lx" (Int64.bits_of_float t.factor));
  field "work_per_tick" (Printf.sprintf "%Lx" (Int64.bits_of_float t.work_per_tick));
  (* Every field of the counter record, whatever fields it has: a
     counter added to [Messages] is in the digest without a list here to
     update.  A record of ints marshals to the same bytes on every run. *)
  field "messages" (Marshal.to_string t.messages []);
  field "final_vnodes" (string_of_int t.final_vnodes);
  field "final_active" (string_of_int t.final_active);
  field "arrived_total" (string_of_int t.arrived_total);
  field "sojourns"
    (String.concat ","
       (List.map (fun (s, n) -> Printf.sprintf "%d:%d" s n) t.sojourn_ledger));
  Buffer.contents b

let hex t = Sha1.hex_of_digest (Sha1.digest_string (encode t))

(* The library's own invariant harness on the final state — ring and
   machine cross-consistency, key conservation, the arrival, fault and
   attack accounting laws — so a repetition is checked even for a seed
   with no committed golden.  [None] when every law holds. *)
let invariant_violation (s : State.t) =
  match State.check_tick_invariants s with
  | () -> None
  | exception (Invalid_argument e | Failure e) -> Some e
