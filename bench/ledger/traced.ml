(* The traced copy of the engine.  Splitting the tick's time by step
   without editing the engine means re-running the engine's tick from
   the public step functions, in the order engine.mli documents, and
   timing each call.  The copy advances one tick per [tick] call, so a
   caller can run it in step with the engine.  Its result is
   fingerprinted like an engine run: if the engine's loop ever changes
   and this copy does not follow, the digests differ and the per-layer
   numbers are reported stale. *)

let step_names =
  [|
    "arrive"; "admit"; "attack"; "decide"; "consume"; "churn"; "crash";
    "repair"; "record"; "steady";
  |]

let arrive = 0
and admit = 1
and attack = 2
and decide = 3
and consume = 4
and churn = 5
and crash = 6
and repair = 7
and record = 8
and steady = 9

let n_steps = Array.length step_names

(* Per-layer metric name of a step's self-time. *)
let metric_of_step i =
  if i = steady then "obs.steady_s" else Printf.sprintf "engine.%s_s" step_names.(i)

let now () = Int64.to_int (Monotonic_clock.now ())
let copy (m : Messages.t) = { m with Messages.joins = m.Messages.joins }

(* Spans live in preallocated arrays sized for the longest possible run,
   so recording costs two clock reads and two small counter copies per
   call.  Step [-1] is the tick span, the parent of that tick's step
   spans.  Steps are leaves, so a step span's duration is its
   self-time. *)
type spans = {
  mutable n : int;
  tick : int array;
  step : int array;
  start : int array;  (** ns since the copy started *)
  dur : int array;
  parent : int array;
  before : Messages.t array;  (** counters when the span opened *)
  after : Messages.t array;  (** counters when it closed *)
}

let spans_create capacity =
  let zero = Messages.create () in
  {
    n = 0;
    tick = Array.make capacity 0;
    step = Array.make capacity 0;
    start = Array.make capacity 0;
    dur = Array.make capacity 0;
    parent = Array.make capacity 0;
    before = Array.make capacity zero;
    after = Array.make capacity zero;
  }

(* The counter deltas a span records: the ones the per-unit ratios are
   taken over, and the total traffic. *)
let span_counters =
  [
    ("joins", fun (c : Messages.t) -> c.Messages.joins);
    ("leaves", fun c -> c.Messages.leaves);
    ("replications", fun c -> c.Messages.replications);
    ("total", Messages.total);
  ]

let deltas sp i =
  List.filter_map
    (fun (k, count) ->
      match count sp.after.(i) - count sp.before.(i) with
      | 0 -> None
      | d -> Some (k, Json_out.Int d))
    span_counters

let write_jsonl path sp =
  let oc = open_out path in
  for i = 0 to sp.n - 1 do
    let json =
      Json_out.Obj
        [
          ("span", Json_out.Int i);
          ("tick", Json_out.Int sp.tick.(i));
          ( "step",
            Json_out.String (if sp.step.(i) < 0 then "tick" else step_names.(sp.step.(i)))
          );
          ("start_ns", Json_out.Int sp.start.(i));
          ("dur_ns", Json_out.Int sp.dur.(i));
          ("parent", if sp.parent.(i) < 0 then Json_out.Null else Json_out.Int sp.parent.(i));
          ("messages", Json_out.Obj (if sp.step.(i) < 0 then [] else deltas sp i));
        ]
    in
    output_string oc (Json_out.to_string json);
    output_char oc '\n'
  done;
  close_out oc

type t = {
  state : State.t;
  strategy : Engine.strategy;
  ideal : int;
  cap : int;
  horizon : int option;  (** [Some] for an open system *)
  trace : Trace.t;
  collector : Steady.t option;
  sp : spans;
  t_origin : int;
}

let start (state : State.t) (strategy : Engine.strategy) =
  let params = state.State.params in
  let ideal =
    Params.ideal_runtime params ~strengths:(State.strengths_of_initial state)
  in
  let cap = max 1 (params.Params.max_ticks_factor * max 1 ideal) in
  let arrivals = params.Params.arrivals in
  let horizon =
    if Arrivals.enabled arrivals then Some arrivals.Arrivals.horizon else None
  in
  (* One tick span plus up to [n_steps + 1] step spans per tick: [record]
     is timed twice, around the snapshot before decide and around the
     tick advance and trace point after repair. *)
  {
    state;
    strategy;
    ideal;
    cap;
    horizon;
    trace = Trace.create ~sink:Trace.Memory ~snapshot_at:[] ();
    collector = Option.map (fun _ -> Steady.create ~window:arrivals.Arrivals.window) horizon;
    sp = spans_create (Option.value ~default:cap horizon * (n_steps + 2));
    t_origin = now ();
  }

(* [Some outcome] once the engine's loop would stop. *)
let outcome t =
  let s = t.state in
  match t.horizon with
  | Some h -> if s.State.tick >= h then Some (Engine.Finished h) else None
  | None ->
    if State.remaining_tasks s = 0 then Some (Engine.Finished s.State.tick)
    else if s.State.tick >= t.cap then Some (Engine.Aborted t.cap)
    else None

let tick t =
  let state = t.state and sp = t.sp in
  let m = Dht.messages state.State.dht in
  let tick_no = state.State.tick in
  let push ~step ~parent ~t0 ~t1 =
    let i = sp.n in
    sp.tick.(i) <- tick_no;
    sp.step.(i) <- step;
    sp.start.(i) <- t0 - t.t_origin;
    sp.dur.(i) <- t1 - t0;
    sp.parent.(i) <- parent;
    sp.n <- i + 1;
    i
  in
  let t0 = now () in
  let parent = push ~step:(-1) ~parent:(-1) ~t0 ~t1:t0 in
  let timed step f =
    let before = copy m in
    let t0 = now () in
    let r = f () in
    let t1 = now () in
    let i = push ~step ~parent ~t0 ~t1 in
    sp.before.(i) <- before;
    sp.after.(i) <- copy m;
    r
  in
  let arrived = timed arrive (fun () -> State.apply_arrivals state) in
  timed admit (fun () -> State.process_admissions state);
  timed attack (fun () -> State.apply_attack state);
  timed record (fun () -> Trace.maybe_snapshot t.trace state);
  timed decide (fun () -> t.strategy.Engine.decide state);
  let work_done = timed consume (fun () -> State.consume_tick state) in
  timed churn (fun () -> State.apply_churn state);
  timed crash (fun () -> State.apply_crash_bursts state);
  timed repair (fun () -> State.repair_replicas state);
  timed record (fun () ->
      State.advance_tick state;
      Trace.record t.trace
        {
          Trace.tick = state.State.tick - 1;
          work_done;
          remaining = State.remaining_tasks state;
          active_nodes = State.active_count state;
          vnodes = State.vnode_count state;
        });
  Option.iter
    (fun sc ->
      timed steady (fun () ->
          Steady.note sc ~arrivals:arrived ~completions:work_done
            ~queue:(State.remaining_tasks state)
            ~sybils:(State.vnode_count state - State.active_count state)
            ~sojourns:state.State.tick_sojourns))
    t.collector;
  sp.dur.(parent) <- now () - t0

type report = {
  fingerprint : Fingerprint.t;
  loop_wall_s : float;  (** the sum of the tick spans *)
  step_s : float array;  (** self-time per step, indexed like [step_names] *)
  tick_ms : float array;  (** wall time of each tick *)
  decide_member_ops : int;  (** joins + leaves charged inside decide *)
  churn_member_ops : int;  (** joins + leaves charged inside churn *)
  consumed : int;  (** tasks completed by consume *)
  arrived : int;  (** tasks accepted by arrive *)
  replications : int;  (** replications charged inside repair *)
  admissions : int;  (** joins landed inside admit *)
}

(* Runs the copy to its end, then reads the spans. *)
let finish ?trace_out t =
  let rec loop () = match outcome t with Some o -> o | None -> tick t; loop () in
  let outcome = loop () in
  let state = t.state and sp = t.sp in
  let ticks = match outcome with Engine.Finished n | Engine.Aborted n | Engine.Timed_out n -> n in
  let fingerprint =
    {
      Fingerprint.outcome;
      factor = float_of_int ticks /. float_of_int (max 1 t.ideal);
      work_per_tick = Trace.work_per_tick_mean t.trace;
      messages = Dht.messages state.State.dht;
      final_vnodes = State.vnode_count state;
      final_active = State.active_count state;
      arrived_total = state.State.arrived_total;
      sojourn_ledger = State.sojourn_ledger state;
    }
  in
  Option.iter (fun path -> write_jsonl path sp) trace_out;
  let step_ns = Array.make n_steps 0 and tick_ms = ref [] and loop_ns = ref 0 in
  for i = sp.n - 1 downto 0 do
    let s = sp.step.(i) in
    if s < 0 then begin
      tick_ms := (float_of_int sp.dur.(i) /. 1e6) :: !tick_ms;
      loop_ns := !loop_ns + sp.dur.(i)
    end
    else step_ns.(s) <- step_ns.(s) + sp.dur.(i)
  done;
  let sum_delta step count =
    let acc = ref 0 in
    for i = 0 to sp.n - 1 do
      if sp.step.(i) = step then acc := !acc + count sp.after.(i) - count sp.before.(i)
    done;
    !acc
  in
  let member_ops (c : Messages.t) = c.Messages.joins + c.Messages.leaves in
  {
    fingerprint;
    loop_wall_s = float_of_int !loop_ns /. 1e9;
    step_s = Array.map (fun ns -> float_of_int ns /. 1e9) step_ns;
    tick_ms = Array.of_list !tick_ms;
    decide_member_ops = sum_delta decide member_ops;
    churn_member_ops = sum_delta churn member_ops;
    consumed = state.State.work_done_total;
    arrived = state.State.arrived_total;
    replications = sum_delta repair (fun c -> c.Messages.replications);
    admissions = sum_delta admit (fun c -> c.Messages.joins);
  }
