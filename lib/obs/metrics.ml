type phase = Arrive | Decide | Consume | Churn | Check | Trace

type t = {
  enabled : bool;
  mutable ticks : int;
  mutable arrive_s : float;
  mutable decide_s : float;
  mutable consume_s : float;
  mutable churn_s : float;
  mutable check_s : float;
  mutable trace_s : float;
  created_at : float;
  gc0_minor_words : float;
  gc0_major_words : float;
  gc0_promoted_words : float;
  gc0_minor_collections : int;
  gc0_major_collections : int;
}

type report = {
  enabled : bool;
  ticks : int;
  wall_s : float;
  arrive_s : float;
  decide_s : float;
  consume_s : float;
  churn_s : float;
  check_s : float;
  trace_s : float;
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

(* DHTLB_METRICS=1 turns phase timing on for every run in the process,
   mirroring DHTLB_CHECK's pattern: read once, at startup, so trials on
   several domains never force a shared lazy value at once. *)
let env_enabled =
  match Sys.getenv_opt "DHTLB_METRICS" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let enabled_by_env () = env_enabled

let now () = Unix.gettimeofday ()

let create ~enabled () =
  if not enabled then
    {
      enabled = false;
      ticks = 0;
      arrive_s = 0.0;
      decide_s = 0.0;
      consume_s = 0.0;
      churn_s = 0.0;
      check_s = 0.0;
      trace_s = 0.0;
      created_at = 0.0;
      gc0_minor_words = 0.0;
      gc0_major_words = 0.0;
      gc0_promoted_words = 0.0;
      gc0_minor_collections = 0;
      gc0_major_collections = 0;
    }
  else
    let g = Gc.quick_stat () in
    {
      enabled = true;
      ticks = 0;
      arrive_s = 0.0;
      decide_s = 0.0;
      consume_s = 0.0;
      churn_s = 0.0;
      check_s = 0.0;
      trace_s = 0.0;
      created_at = now ();
      gc0_minor_words = g.Gc.minor_words;
      gc0_major_words = g.Gc.major_words;
      gc0_promoted_words = g.Gc.promoted_words;
      gc0_minor_collections = g.Gc.minor_collections;
      gc0_major_collections = g.Gc.major_collections;
    }

let enabled (t : t) = t.enabled

let add (t : t) phase dt =
  match phase with
  | Arrive -> t.arrive_s <- t.arrive_s +. dt
  | Decide -> t.decide_s <- t.decide_s +. dt
  | Consume -> t.consume_s <- t.consume_s +. dt
  | Churn -> t.churn_s <- t.churn_s +. dt
  | Check -> t.check_s <- t.check_s +. dt
  | Trace -> t.trace_s <- t.trace_s +. dt

(* The engine's hot-loop pattern: [start] opens a timing chain, each
   [lap] charges the elapsed time since the previous mark to a phase and
   returns a fresh mark.  When disabled both are branch-only — no clock
   syscall, no allocation. *)
let start (t : t) = if t.enabled then now () else 0.0

let lap (t : t) phase mark =
  if t.enabled then begin
    let n = now () in
    add t phase (n -. mark);
    n
  end
  else 0.0

let tick (t : t) = if t.enabled then t.ticks <- t.ticks + 1

let report (t : t) : report =
  if not t.enabled then
    {
      enabled = false;
      ticks = t.ticks;
      wall_s = 0.0;
      arrive_s = 0.0;
      decide_s = 0.0;
      consume_s = 0.0;
      churn_s = 0.0;
      check_s = 0.0;
      trace_s = 0.0;
      minor_words = 0.0;
      major_words = 0.0;
      promoted_words = 0.0;
      minor_collections = 0;
      major_collections = 0;
    }
  else
    let g = Gc.quick_stat () in
    {
      enabled = true;
      ticks = t.ticks;
      wall_s = now () -. t.created_at;
      arrive_s = t.arrive_s;
      decide_s = t.decide_s;
      consume_s = t.consume_s;
      churn_s = t.churn_s;
      check_s = t.check_s;
      trace_s = t.trace_s;
      minor_words = g.Gc.minor_words -. t.gc0_minor_words;
      major_words = g.Gc.major_words -. t.gc0_major_words;
      promoted_words = g.Gc.promoted_words -. t.gc0_promoted_words;
      minor_collections = g.Gc.minor_collections - t.gc0_minor_collections;
      major_collections = g.Gc.major_collections - t.gc0_major_collections;
    }

let pp_report ppf (r : report) =
  if not r.enabled then Format.fprintf ppf "metrics disabled"
  else
    Format.fprintf ppf
      "ticks=%d wall=%.3fs arrive=%.3fs decide=%.3fs consume=%.3fs \
       churn=%.3fs check=%.3fs trace=%.3fs gc_minor=%.0fw gc_major=%.0fw \
       collections=%d/%d"
      r.ticks r.wall_s r.arrive_s r.decide_s r.consume_s r.churn_s r.check_s
      r.trace_s
      r.minor_words r.major_words r.minor_collections r.major_collections
