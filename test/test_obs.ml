(* Observability primitives: the bounded ring buffer and phase metrics. *)

let test_ring_basic () =
  let rb = Ring_buffer.create ~capacity:3 in
  Alcotest.(check int) "empty" 0 (Ring_buffer.length rb);
  Ring_buffer.push rb 1;
  Ring_buffer.push rb 2;
  Alcotest.(check bool) "partial fill" true (Ring_buffer.to_array rb = [| 1; 2 |]);
  Ring_buffer.push rb 3;
  Ring_buffer.push rb 4;
  (* oldest evicted, order preserved *)
  Alcotest.(check bool) "window" true (Ring_buffer.to_array rb = [| 2; 3; 4 |]);
  Alcotest.(check int) "length capped" 3 (Ring_buffer.length rb);
  Alcotest.(check int) "total pushes" 4 (Ring_buffer.pushed rb);
  Alcotest.(check int) "capacity" 3 (Ring_buffer.capacity rb)

let test_ring_wraparound () =
  let rb = Ring_buffer.create ~capacity:5 in
  for i = 1 to 1000 do
    Ring_buffer.push rb i
  done;
  Alcotest.(check bool) "last five" true
    (Ring_buffer.to_array rb = [| 996; 997; 998; 999; 1000 |]);
  let seen = ref [] in
  Ring_buffer.iter (fun x -> seen := x :: !seen) rb;
  Alcotest.(check bool) "iter oldest first" true
    (List.rev !seen = [ 996; 997; 998; 999; 1000 ])

let test_ring_rejects () =
  Alcotest.(check bool) "capacity 0 rejected" true
    (try
       ignore (Ring_buffer.create ~capacity:0);
       false
     with Invalid_argument _ -> true)

let test_metrics_disabled_is_inert () =
  let m = Metrics.create ~enabled:false () in
  Alcotest.(check bool) "disabled" false (Metrics.enabled m);
  let mark = Metrics.start m in
  Alcotest.(check (float 0.0)) "start returns 0" 0.0 mark;
  let mark = Metrics.lap m Metrics.Decide mark in
  Alcotest.(check (float 0.0)) "lap returns 0" 0.0 mark;
  Metrics.tick m;
  let r = Metrics.report m in
  Alcotest.(check bool) "report disabled" false r.Metrics.enabled;
  Alcotest.(check (float 0.0)) "no wall time" 0.0 r.Metrics.wall_s;
  Alcotest.(check (float 0.0)) "no decide time" 0.0 r.Metrics.decide_s

let test_metrics_accumulates () =
  let m = Metrics.create ~enabled:true () in
  Metrics.add m Metrics.Decide 0.5;
  Metrics.add m Metrics.Decide 0.25;
  Metrics.add m Metrics.Churn 1.0;
  Metrics.tick m;
  Metrics.tick m;
  let r = Metrics.report m in
  Alcotest.(check bool) "enabled" true r.Metrics.enabled;
  Alcotest.(check int) "ticks" 2 r.Metrics.ticks;
  Alcotest.(check (float 1e-9)) "decide summed" 0.75 r.Metrics.decide_s;
  Alcotest.(check (float 1e-9)) "churn" 1.0 r.Metrics.churn_s;
  Alcotest.(check (float 1e-9)) "consume untouched" 0.0 r.Metrics.consume_s;
  Alcotest.(check bool) "wall clock moved" true (r.Metrics.wall_s >= 0.0)

(* ---- steady-state collector edges -------------------------------- *)

(* A trailing partial window must divide its rates by the ticks it
   actually saw, not the nominal window length — otherwise a horizon
   that is not a multiple of the window under-reports the tail's
   throughput. *)
let test_steady_partial_window_rates () =
  let sc = Steady.create ~window:4 in
  (* 6 ticks at 3 arrivals / 2 completions each: one full window, then
     a 2-tick tail. *)
  for _ = 1 to 6 do
    Steady.note sc ~arrivals:3 ~completions:2 ~queue:5 ~sybils:1 ~sojourns:[ 1 ]
  done;
  let w = Steady.windows sc in
  Alcotest.(check int) "full + partial" 2 (Array.length w);
  Alcotest.(check int) "tail saw 2 ticks" 2 w.(1).Steady.ticks;
  Alcotest.(check int) "tail starts after the full window" 4
    w.(1).Steady.start_tick;
  Alcotest.(check (float 1e-9)) "tail arrival rate over 2 ticks" 3.0
    w.(1).Steady.arrival_rate;
  Alcotest.(check (float 1e-9)) "tail completion rate over 2 ticks" 2.0
    w.(1).Steady.completion_rate;
  Alcotest.(check (float 1e-9)) "tail sybil mean over 2 ticks" 1.0
    w.(1).Steady.sybil_mean

(* The fold over per-tick Sybil samples starts at (max_int, min_int);
   a window with no ticks recorded yet must clamp both to 0, not leak
   the sentinels. *)
let test_steady_empty_sybil_extremes () =
  let sc = Steady.create ~window:3 in
  Steady.note sc ~arrivals:0 ~completions:0 ~queue:0 ~sybils:0 ~sojourns:[];
  let w = Steady.windows sc in
  Alcotest.(check int) "one partial window" 1 (Array.length w);
  Alcotest.(check int) "sybil_min clamped" 0 w.(0).Steady.sybil_min;
  Alcotest.(check int) "sybil_max clamped" 0 w.(0).Steady.sybil_max

(* A run whose every window saw no completion has all-NaN sojourn
   percentiles; Runner's steady aggregation must skip them and report
   NaN rather than raise or average garbage. *)
let test_steady_all_nan_survives_runner () =
  let params =
    {
      (Params.default ~nodes:10 ~tasks:0) with
      Params.arrivals =
        {
          Arrivals.profile = Some (Arrivals.Poisson { rate = 0.0 });
          keys = Arrivals.Uniform;
          horizon = 8;
          window = 3;
        };
    }
  in
  let a = Runner.run_trials ~trials:2 params (Strategy.make Strategy.No_strategy) in
  Alcotest.(check bool) "open system" true a.Runner.open_system;
  Alcotest.(check (float 1e-9)) "nothing arrived" 0.0 a.Runner.mean_arrived;
  Alcotest.(check bool) "sojourn p50 stays NaN" true
    (Float.is_nan a.Runner.steady_sojourn_p50);
  Alcotest.(check bool) "sojourn p99 stays NaN" true
    (Float.is_nan a.Runner.steady_sojourn_p99);
  (* Queue percentiles still aggregate: the queue was observed (empty)
     every tick, so they are real zeros, not NaN. *)
  Alcotest.(check (float 1e-9)) "queue p95 is a real 0" 0.0
    a.Runner.steady_queue_p95

(* ---- steady windows against the float formula --------------------- *)

type tick = {
  arrivals : int;
  completions : int;
  queue : int;
  sybils : int;
  sojourns : int list;
}

(* A window summarized the way the collector first did it: the samples
   copied into float arrays, percentiles and the mean from
   [Descriptive].  The collector must reproduce it bit for bit. *)
let reference_window ~index ~start_tick ticks =
  let n = List.length ticks in
  let floats f = Array.of_list (List.map float_of_int (List.concat_map f ticks)) in
  let queues = floats (fun t -> [ t.queue ]) and sojourns = floats (fun t -> t.sojourns) in
  let pct a p = if Array.length a = 0 then Float.nan else Descriptive.percentile a p in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 ticks in
  let rate total = float_of_int total /. float_of_int n in
  let sybils = List.map (fun t -> t.sybils) ticks in
  {
    Steady.index;
    start_tick;
    ticks = n;
    arrivals = sum (fun t -> t.arrivals);
    completions = sum (fun t -> t.completions);
    arrival_rate = rate (sum (fun t -> t.arrivals));
    completion_rate = rate (sum (fun t -> t.completions));
    queue_p50 = pct queues 50.0;
    queue_p95 = pct queues 95.0;
    queue_p99 = pct queues 99.0;
    sojourn_p50 = pct sojourns 50.0;
    sojourn_p95 = pct sojourns 95.0;
    sojourn_p99 = pct sojourns 99.0;
    sojourn_mean =
      (if Array.length sojourns = 0 then Float.nan else Descriptive.mean sojourns);
    sybil_min = List.fold_left min max_int sybils;
    sybil_max = List.fold_left max min_int sybils;
    sybil_mean = rate (List.fold_left ( + ) 0 sybils);
  }

(* The windows of [ticks] cut every [window] ticks, a partial tail
   included. *)
let reference_windows ~window ticks =
  let rec cut index start_tick ticks acc =
    if ticks = [] then List.rev acc
    else
      let here = List.filteri (fun i _ -> i < window) ticks in
      let rest = List.filteri (fun i _ -> i >= window) ticks in
      cut (index + 1) (start_tick + window) rest
        (reference_window ~index ~start_tick here :: acc)
  in
  Array.of_list (cut 0 0 ticks [])

(* Every field, floats by their bits, so that NaN and -0 compare too. *)
let window_fields (w : Steady.window) =
  let b x = Printf.sprintf "%Lx" (Int64.bits_of_float x) in
  [
    ("index", string_of_int w.index);
    ("start_tick", string_of_int w.start_tick);
    ("ticks", string_of_int w.ticks);
    ("arrivals", string_of_int w.arrivals);
    ("completions", string_of_int w.completions);
    ("arrival_rate", b w.arrival_rate);
    ("completion_rate", b w.completion_rate);
    ("queue_p50", b w.queue_p50);
    ("queue_p95", b w.queue_p95);
    ("queue_p99", b w.queue_p99);
    ("sojourn_p50", b w.sojourn_p50);
    ("sojourn_p95", b w.sojourn_p95);
    ("sojourn_p99", b w.sojourn_p99);
    ("sojourn_mean", b w.sojourn_mean);
    ("sybil_min", string_of_int w.sybil_min);
    ("sybil_max", string_of_int w.sybil_max);
    ("sybil_mean", b w.sybil_mean);
  ]

(* Random ticks through [note]; after every tick, [windows] (read-only,
   so callable mid-run) must equal the reference windows of the ticks so
   far, field by field. *)
let prop_steady_matches_reference =
  let gen =
    QCheck.Gen.(
      let sojourns =
        frequency [ (1, return []); (3, list_size (int_range 1 6) (int_bound 40)) ]
      in
      let tick =
        let* arrivals = int_bound 50
        and* completions = int_bound 50
        and* queue = int_bound 1000
        and* sybils = int_bound 20
        and* sojourns = sojourns in
        return { arrivals; completions; queue; sybils; sojourns }
      in
      pair (int_range 1 8) (list_size (int_bound 40) tick))
  in
  let print (window, ticks) =
    Printf.sprintf "window %d, %d ticks: %s" window (List.length ticks)
      (String.concat " | "
         (List.map
            (fun t ->
              Printf.sprintf "a%d c%d q%d s%d [%s]" t.arrivals t.completions t.queue
                t.sybils
                (String.concat ";" (List.map string_of_int t.sojourns)))
            ticks))
  in
  Testutil.prop ~count:300 "windows = float formula, bit for bit"
    (QCheck.make ~print gen) (fun (window, ticks) ->
      let sc = Steady.create ~window in
      List.iteri
        (fun i t ->
          Steady.note sc ~arrivals:t.arrivals ~completions:t.completions ~queue:t.queue
            ~sybils:t.sybils ~sojourns:t.sojourns;
          let want =
            reference_windows ~window (List.filteri (fun j _ -> j <= i) ticks)
          in
          let got = Steady.windows sc in
          if Array.map window_fields got <> Array.map window_fields want then
            QCheck.Test.fail_reportf "after tick %d: windows differ" i)
        ticks;
      true)

let test_metrics_lap_chain () =
  let m = Metrics.create ~enabled:true () in
  let t0 = Metrics.start m in
  Alcotest.(check bool) "start is a timestamp" true (t0 > 0.0);
  let t1 = Metrics.lap m Metrics.Consume t0 in
  Alcotest.(check bool) "fresh mark" true (t1 >= t0);
  let r = Metrics.report m in
  Alcotest.(check bool) "charged" true (r.Metrics.consume_s >= 0.0)

let () =
  Alcotest.run "obs"
    [
      ( "ring-buffer",
        [
          Alcotest.test_case "basic" `Quick test_ring_basic;
          Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "rejects" `Quick test_ring_rejects;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "disabled inert" `Quick test_metrics_disabled_is_inert;
          Alcotest.test_case "accumulates" `Quick test_metrics_accumulates;
          Alcotest.test_case "lap chain" `Quick test_metrics_lap_chain;
        ] );
      ( "steady edges",
        [
          Alcotest.test_case "partial window uses actual ticks" `Quick
            test_steady_partial_window_rates;
          Alcotest.test_case "empty sybil extremes clamp to 0" `Quick
            test_steady_empty_sybil_extremes;
          Alcotest.test_case "all-NaN sojourns survive aggregation" `Quick
            test_steady_all_nan_survives_runner;
          prop_steady_matches_reference;
        ] );
    ]
