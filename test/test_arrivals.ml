(* The open-system arrival plane (ISSUE 7).

   Four concerns, in order:

   - BIT-IDENTITY PINS: the golden digests below were recorded from the
     engine BEFORE the arrival subsystem existed.  A run with
     [Arrivals.none] must still reproduce every one of them exactly —
     all 8 strategies under two fault configs (one with live
     replication) — proving the arrival plane is invisible when off.
     A mismatch means a draw leaked onto one of the PRNG streams or the
     tick loop reordered.

   - STREAM CONTRACTS: [Arrivals.poisson_count] against a verbatim
     naive re-implementation on a shared stream (counts AND stream
     position), the zero-rate no-draw rule, and an independent replay
     of a whole run's arrival stream that must re-derive the engine's
     [arrived_total].

   - PLAN ALGEBRA: [rate_at] profile shapes, validation rejections,
     and the CLI spec roundtrip [of_string (to_string t) = Ok t].

   - OPEN-SYSTEM LAWS: horizon termination, steady-window structure,
     and the extended conservation law (work_done + remaining + lost =
     initial + arrived) with the invariant harness forced on every
     tick, across all strategies under faults + recovery + hot keys. *)

(* ---- golden pins: arrivals off is bit-for-bit the pre-PR engine --- *)

let digest params strat =
  let state = State.create params in
  let r = Engine.run_state ~sink:Trace.Memory ~metrics:false state strat in
  let ticks =
    match r.Engine.outcome with Engine.Finished t | Engine.Aborted t | Engine.Timed_out t -> t
  in
  let m = r.Engine.messages in
  [
    ticks;
    state.State.work_done_total;
    State.remaining_tasks state;
    r.Engine.final_vnodes;
    r.Engine.final_active;
    m.Messages.joins;
    m.Messages.leaves;
    m.Messages.key_transfers;
    m.Messages.workload_queries;
    m.Messages.invitations;
    m.Messages.lookup_hops;
    m.Messages.replications;
    m.Messages.dropped;
    m.Messages.retries;
    m.Messages.tasks_lost;
  ]

let config_a =
  {
    (Params.default ~nodes:120 ~tasks:4000) with
    Params.seed = 97;
    churn_rate = 0.03;
    failure_rate = 0.01;
    heterogeneity = Params.Heterogeneous;
    arrivals = Arrivals.none;
    faults =
      {
        Faults.none with
        Faults.drop = 0.05;
        crash_bursts =
          [ { Faults.at = 6; count = 25 }; { Faults.at = 18; count = 10 } ];
        stragglers = 12;
        partition = Some (4, 16);
      };
  }

let config_b =
  {
    config_a with
    Params.replicas = 2;
    repair_lag = 3;
    failure_rate = 0.02;
    faults = { config_a.Params.faults with Faults.repl_drop = 0.1 };
  }

(* (config, strategy, [ticks; work_done; remaining; final_vnodes;
    final_active; joins; leaves; key_transfers; workload_queries;
    invitations; lookup_hops; replications; dropped; retries;
    tasks_lost]) — recorded from the pre-arrivals engine at seed 97. *)
let goldens =
  [
    ("a", "none", [ 88; 4000; 0; 119; 119; 579; 460; 15094; 0; 0; 1836; 0; 0; 0; 0 ]);
    ("a", "churn", [ 88; 4000; 0; 119; 119; 579; 460; 15094; 0; 0; 1836; 0; 0; 0; 0 ]);
    ("a", "random", [ 66; 4000; 0; 209; 113; 1263; 1054; 12434; 0; 0; 4572; 0; 0; 0; 0 ]);
    ("a", "neighbor", [ 63; 4000; 0; 211; 118; 1112; 901; 12139; 0; 0; 3968; 0; 0; 0; 0 ]);
    ("a", "smart-neighbor", [ 51; 4000; 0; 208; 120; 838; 630; 12931; 3605; 0; 2872; 0; 183; 234; 0 ]);
    ("a", "invitation", [ 76; 4000; 0; 121; 121; 525; 404; 11469; 280; 290; 1620; 0; 7; 0; 0 ]);
    ("a", "strength-aware", [ 58; 4000; 0; 201; 115; 913; 712; 12560; 2415; 0; 3172; 0; 130; 0; 0 ]);
    ("a", "static-vnodes", [ 72; 4000; 0; 455; 122; 1856; 1401; 14599; 0; 0; 8525; 0; 0; 0; 0 ]);
    ("b", "none", [ 94; 3555; 0; 110; 110; 697; 587; 10237; 0; 0; 2308; 23646; 0; 0; 445 ]);
    ("b", "churn", [ 94; 3555; 0; 110; 110; 697; 587; 10237; 0; 0; 2308; 23646; 0; 0; 445 ]);
    ("b", "random", [ 60; 3845; 0; 228; 121; 1223; 995; 11039; 0; 0; 4412; 23699; 0; 0; 155 ]);
    ("b", "neighbor", [ 60; 3804; 0; 218; 123; 1174; 956; 10667; 0; 0; 4216; 22947; 0; 0; 196 ]);
    ("b", "smart-neighbor", [ 64; 3705; 0; 204; 116; 1282; 1078; 10803; 6355; 0; 4648; 22097; 338; 461; 295 ]);
    ("b", "invitation", [ 72; 3839; 0; 109; 109; 589; 480; 10702; 253; 260; 1876; 24463; 5; 0; 161 ]);
    ("b", "strength-aware", [ 60; 3749; 0; 215; 129; 1080; 865; 10443; 2840; 0; 3840; 22014; 135; 0; 251 ]);
    ("b", "static-vnodes", [ 62; 3865; 0; 390; 110; 1841; 1451; 13665; 0; 0; 8457; 26792; 0; 0; 135 ]);
  ]

let config_of = function
  | "a" -> config_a
  | "b" -> config_b
  | c -> Alcotest.failf "unknown pin config %S" c

let test_pin (cname, sname, expected) () =
  let s =
    match Strategy.of_name sname with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let params = Strategy.default_params s (config_of cname) in
  Alcotest.(check (list int))
    (Printf.sprintf "config %s / %s digest" cname sname)
    expected
    (digest params (Strategy.make s ()));
  (* And the off plan leaves the open-system surfaces untouched. *)
  let r =
    Engine.run_state ~sink:Trace.Memory ~metrics:false (State.create params)
      (Strategy.make s ())
  in
  Alcotest.(check int) "no arrivals recorded" 0 r.Engine.arrived_total;
  Alcotest.(check int) "no sojourns settled" 0
    (List.length r.Engine.sojourn_ledger);
  Alcotest.(check int) "no steady windows" 0 (Array.length r.Engine.steady)

(* ---- stream contracts -------------------------------------------- *)

(* Verbatim Knuth product-of-uniforms reference: multiply unit draws
   until the product falls to exp(-lambda).  Must match
   Arrivals.poisson_count count for count AND draw for draw. *)
let naive_poisson rng lambda =
  let knuth lambda =
    let l = exp (-.lambda) in
    let k = ref 0 and p = ref 1.0 and sampling = ref true in
    while !sampling do
      p := !p *. Prng.float_unit rng;
      if !p <= l then sampling := false else incr k
    done;
    !k
  in
  if lambda <= 0.0 then 0
  else begin
    (* Above 700, exp (-lambda) underflows: sum the fewest equal parts
       of at most 700, drawn one after the other. *)
    let parts = ref 1 in
    while lambda /. float_of_int !parts > 700.0 do
      incr parts
    done;
    let total = ref 0 in
    for _ = 1 to !parts do
      total := !total + knuth (lambda /. float_of_int !parts)
    done;
    !total
  end

let test_poisson_matches_naive () =
  List.iter
    (fun lambda ->
      let a = Prng.create 991 and b = Prng.create 991 in
      for i = 1 to 300 do
        let ka = Arrivals.poisson_count a lambda in
        let kb = naive_poisson b lambda in
        if ka <> kb then
          Alcotest.failf "lambda %g draw %d: library %d, naive %d" lambda i ka
            kb
      done;
      (* Stream-position sentinel: both sides must have consumed the
         same number of draws, so the next raw draw agrees. *)
      Alcotest.(check int64)
        (Printf.sprintf "stream position after lambda %g" lambda)
        (Prng.bits64 b) (Prng.bits64 a))
    [ 0.0; 0.3; 1.0; 2.5; 8.0; 25.0; 700.0; 701.0; 2000.0 ]

(* Above the underflow point the counts must still be Poisson(lambda):
   the sample mean lands within 5 standard errors of lambda. *)
let test_poisson_mean_at_high_rates () =
  List.iter
    (fun lambda ->
      let rng = Prng.create 17 and n = 400 in
      let sum = ref 0 in
      for _ = 1 to n do
        sum := !sum + Arrivals.poisson_count rng lambda
      done;
      let mean = float_of_int !sum /. float_of_int n in
      let se = sqrt (lambda /. float_of_int n) in
      if Float.abs (mean -. lambda) > 5.0 *. se then
        Alcotest.failf "lambda %g: sample mean %g, more than 5 SE (%g) off"
          lambda mean se)
    [ 2000.0; 10_000.0 ]

let test_zero_rate_draws_nothing () =
  let a = Prng.create 5 and b = Prng.create 5 in
  for _ = 1 to 50 do
    Alcotest.(check int) "zero-rate count" 0 (Arrivals.poisson_count a 0.0)
  done;
  Alcotest.(check int) "negative-rate count" 0 (Arrivals.poisson_count a (-3.0));
  (* [a] must not have consumed a single draw. *)
  Alcotest.(check int64) "untouched stream" (Prng.bits64 b) (Prng.bits64 a)

let test_arrival_stream_is_third () =
  (* The arrival stream shares no state with the main or fault streams:
     draining one must not move the others. *)
  let seed = 31 in
  let main = Prng.create seed and faults = Faults.rng ~seed in
  let main' = Prng.create seed and faults' = Faults.rng ~seed in
  let arr = Arrivals.rng ~seed in
  for _ = 1 to 100 do
    ignore (Prng.bits64 arr)
  done;
  Alcotest.(check int64) "main stream untouched" (Prng.bits64 main')
    (Prng.bits64 main);
  Alcotest.(check int64) "fault stream untouched" (Prng.bits64 faults')
    (Prng.bits64 faults);
  (* And the three streams are pairwise distinct. *)
  let m = Prng.bits64 (Prng.create seed)
  and f = Prng.bits64 (Faults.rng ~seed)
  and a = Prng.bits64 (Arrivals.rng ~seed) in
  if m = f || m = a || f = a then
    Alcotest.failf "streams collide: main %Ld fault %Ld arrival %Ld" m f a

(* An independent replay of the whole arrival stream — Poisson counts
   and uniform key draws — must re-derive the engine's arrived_total
   (uniform SHA-1 keys make in-run duplicates vanishingly unlikely, and
   a miscounted or reordered draw shifts every later tick's count). *)
let test_uniform_replay_matches_engine () =
  let plan =
    {
      Arrivals.none with
      Arrivals.profile =
        Some (Arrivals.Bursty { rate = 1.0; burst_rate = 7.0; on = 4; off = 6 });
      horizon = 50;
      window = 10;
    }
  in
  let params =
    { (Params.default ~nodes:30 ~tasks:200) with Params.seed = 13; arrivals = plan }
  in
  let r = Engine.run params Engine.no_strategy in
  let rng = Arrivals.rng ~seed:13 in
  let drawn = ref 0 in
  for tick = 0 to plan.Arrivals.horizon - 1 do
    let c = Arrivals.poisson_count rng (Arrivals.rate_at plan ~tick) in
    for _ = 1 to c do
      ignore (Keygen.fresh rng)
    done;
    drawn := !drawn + c
  done;
  Alcotest.(check int) "arrived_total = independent stream replay" !drawn
    r.Engine.arrived_total

(* ---- plan algebra ------------------------------------------------- *)

let test_rate_at_shapes () =
  let bursty =
    {
      Arrivals.none with
      Arrivals.profile =
        Some (Arrivals.Bursty { rate = 1.0; burst_rate = 9.0; on = 2; off = 3 });
    }
  in
  Alcotest.(check (list (float 0.0)))
    "bursty on/off pattern"
    [ 9.0; 9.0; 1.0; 1.0; 1.0; 9.0; 9.0; 1.0 ]
    (List.map (fun tick -> Arrivals.rate_at bursty ~tick) [ 0; 1; 2; 3; 4; 5; 6; 7 ]);
  let diurnal =
    {
      Arrivals.none with
      Arrivals.profile =
        Some (Arrivals.Diurnal { rate = 5.0; amplitude = 3.0; period = 12 });
    }
  in
  for tick = 0 to 48 do
    let r = Arrivals.rate_at diurnal ~tick in
    if r < 5.0 -. 3.0 -. 1e-9 || r > 5.0 +. 3.0 +. 1e-9 then
      Alcotest.failf "diurnal rate %g out of [2, 8] at tick %d" r tick
  done;
  Alcotest.(check (float 1e-9))
    "diurnal mean at phase 0" 5.0
    (Arrivals.rate_at diurnal ~tick:0);
  Alcotest.(check (float 0.0)) "disabled plan rates 0" 0.0
    (Arrivals.rate_at Arrivals.none ~tick:7)

let test_validate_rejects () =
  let bad l t =
    match Arrivals.validate t with
    | Ok () -> Alcotest.failf "%s: expected rejection" l
    | Error _ -> ()
  in
  bad "negative rate"
    { Arrivals.none with
      Arrivals.profile = Some (Arrivals.Poisson { rate = -1.0 }) };
  bad "amplitude above mean"
    { Arrivals.none with
      Arrivals.profile =
        Some (Arrivals.Diurnal { rate = 2.0; amplitude = 3.0; period = 10 }) };
  bad "zero-length burst phase"
    { Arrivals.none with
      Arrivals.profile =
        Some (Arrivals.Bursty { rate = 1.0; burst_rate = 2.0; on = 0; off = 3 }) };
  bad "non-positive horizon"
    { Arrivals.none with
      Arrivals.profile = Some (Arrivals.Poisson { rate = 1.0 });
      horizon = 0 };
  bad "non-positive window"
    { Arrivals.none with
      Arrivals.profile = Some (Arrivals.Poisson { rate = 1.0 });
      window = 0 };
  bad "no hotspots"
    { Arrivals.none with
      Arrivals.profile = Some (Arrivals.Poisson { rate = 1.0 });
      keys = Arrivals.Hot { hotspots = 0; spread = 0.1; zipf_s = 1.0 } };
  bad "spread above 1"
    { Arrivals.none with
      Arrivals.profile = Some (Arrivals.Poisson { rate = 1.0 });
      keys = Arrivals.Hot { hotspots = 2; spread = 1.5; zipf_s = 1.0 } };
  Alcotest.(check (result unit string)) "none validates" (Ok ())
    (Arrivals.validate Arrivals.none)

let test_of_string_errors () =
  (* Same contract as fault specs: a rejection must NAME the problem —
     an unknown key lists the valid ones, a duplicate says which key
     repeated — so a CLI typo is a one-read fix. *)
  let bad l s sub =
    match Arrivals.of_string s with
    | Ok _ -> Alcotest.failf "%s: expected parse error for %S" l s
    | Error e ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      if not (contains e sub) then
        Alcotest.failf "%s: error %S does not mention %S" l e sub
  in
  bad "unknown key" "nonsense=3" "valid keys:";
  bad "unknown key named" "nonsense=3" "nonsense";
  bad "duplicate key" "poisson=2,poisson=3" "duplicate arrival key";
  bad "duplicate key named" "poisson=2,poisson=3" "poisson";
  bad "two profiles" "poisson=1,burst=1:2:1:1" "profile";
  bad "profile missing" "hot=2:0.1:1.0" "profile";
  bad "negative rate" "poisson=-1" "rate";
  bad "arity" "burst=1:2:3" "burst";
  (match Arrivals.of_string "" with
  | Ok t ->
    Alcotest.(check bool) "empty spec is off" false (Arrivals.enabled t)
  | Error e -> Alcotest.failf "empty spec rejected: %s" e);
  match Arrivals.of_string "off" with
  | Ok t -> Alcotest.(check bool) "off spec is off" false (Arrivals.enabled t)
  | Error e -> Alcotest.failf "off spec rejected: %s" e

(* Exactly-representable decimals so the %g print/parse cycle is
   lossless. *)
let gen_plan =
  QCheck.Gen.(
    let* profile =
      oneof
        [
          (let* rate = oneofl [ 0.0; 0.25; 1.5; 8.0; 120.0 ] in
           return (Arrivals.Poisson { rate }));
          (let* rate = oneofl [ 0.5; 2.0 ] in
           let* burst_rate = oneofl [ 4.0; 16.0 ] in
           let* on = int_range 1 9 in
           let* off = int_range 1 9 in
           return (Arrivals.Bursty { rate; burst_rate; on; off }));
          (let* rate = oneofl [ 4.0; 10.0 ] in
           let* amplitude = oneofl [ 0.0; 2.5; 4.0 ] in
           let* period = int_range 1 200 in
           return (Arrivals.Diurnal { rate; amplitude; period }));
        ]
    in
    let* keys =
      oneof
        [
          return Arrivals.Uniform;
          (let* hotspots = int_range 1 64 in
           let* spread = oneofl [ 0.0; 0.125; 1.0 ] in
           let* zipf_s = oneofl [ 0.0; 0.75; 1.5 ] in
           return (Arrivals.Hot { hotspots; spread; zipf_s }));
        ]
    in
    let* horizon = int_range 1 5000 in
    let* window = int_range 1 500 in
    return { Arrivals.profile = Some profile; keys; horizon; window })

let prop_spec_roundtrip =
  Testutil.prop ~count:300 "of_string (to_string plan) = plan"
    (QCheck.make ~print:Arrivals.to_string gen_plan)
    (fun plan ->
      match Arrivals.of_string (Arrivals.to_string plan) with
      | Ok plan' -> plan' = plan
      | Error e ->
        QCheck.Test.fail_reportf "round-trip rejected %S: %s"
          (Arrivals.to_string plan) e)

(* ---- open-system laws --------------------------------------------- *)

let open_plan =
  {
    Arrivals.profile = Some (Arrivals.Poisson { rate = 30.0 });
    keys = Arrivals.Hot { hotspots = 3; spread = 0.05; zipf_s = 1.1 };
    horizon = 45;
    window = 10;
  }

let test_horizon_and_windows () =
  let params =
    {
      (Params.default ~nodes:40 ~tasks:500) with
      Params.seed = 23;
      arrivals = open_plan;
    }
  in
  let r = Engine.run params Engine.no_strategy in
  (match r.Engine.outcome with
  | Engine.Finished t ->
    Alcotest.(check int) "finishes exactly at the horizon" 45 t
  | Engine.Aborted t | Engine.Timed_out t ->
    Alcotest.failf "open-system run aborted at %d" t);
  let w = r.Engine.steady in
  Alcotest.(check int) "ceil(45/10) windows" 5 (Array.length w);
  Array.iteri
    (fun i win ->
      Alcotest.(check int) "indices in order" i win.Steady.index;
      Alcotest.(check int)
        (Printf.sprintf "window %d length" i)
        (if i = 4 then 5 else 10)
        win.Steady.ticks)
    w;
  Alcotest.(check int) "window ticks cover the horizon" 45
    (Array.fold_left (fun acc win -> acc + win.Steady.ticks) 0 w);
  Alcotest.(check int) "windowed arrivals sum to arrived_total"
    r.Engine.arrived_total
    (Array.fold_left (fun acc win -> acc + win.Steady.arrivals) 0 w);
  Alcotest.(check bool) "arrivals actually happened" true
    (r.Engine.arrived_total > 0);
  Alcotest.(check bool) "sojourns settled" true (r.Engine.sojourn_ledger <> [])

(* The extended conservation law under the always-on harness, across
   every strategy, with faults + live replication + hot keys: arrivals
   may be lost to crashes but never silently dropped or double-counted,
   and every completion settles exactly one sojourn. *)
let test_open_conservation strat () =
  let params =
    Strategy.default_params strat
      {
        config_b with
        Params.check_every_tick = true;
        arrivals = { open_plan with Arrivals.horizon = 30; window = 6 };
      }
  in
  let state = State.create params in
  let r = Engine.run_state ~sink:Trace.Memory ~metrics:false state
      (Strategy.make strat ())
  in
  (match r.Engine.outcome with
  | Engine.Finished t -> Alcotest.(check int) "horizon" 30 t
  | Engine.Aborted t | Engine.Timed_out t -> Alcotest.failf "aborted at %d" t);
  let m = r.Engine.messages in
  Alcotest.(check int) "conservation: done + queued + lost = initial + arrived"
    (state.State.initial_tasks + r.Engine.arrived_total)
    (state.State.work_done_total + State.remaining_tasks state
   + m.Messages.tasks_lost);
  Alcotest.(check int) "sojourn ledger settles exactly the completions"
    state.State.work_done_total
    (List.fold_left (fun acc (_, c) -> acc + c) 0 r.Engine.sojourn_ledger);
  List.iter
    (fun (s, c) ->
      if s < 1 || c < 1 then
        Alcotest.failf "degenerate ledger entry (%d, %d)" s c)
    r.Engine.sojourn_ledger

let () =
  let pins =
    List.map
      (fun ((c, s, _) as g) ->
        Alcotest.test_case (Printf.sprintf "%s/%s" c s) `Slow (test_pin g))
      goldens
  in
  let conservation =
    List.map
      (fun strat ->
        Alcotest.test_case
          (Printf.sprintf "conservation %s" (Strategy.name strat))
          `Slow
          (test_open_conservation strat))
      Strategy.all
  in
  Alcotest.run "arrivals"
    [
      ("arrivals-off bit-identity", pins);
      ( "stream contracts",
        [
          Alcotest.test_case "poisson = naive reference" `Quick
            test_poisson_matches_naive;
          Alcotest.test_case "poisson mean above the underflow point" `Quick
            test_poisson_mean_at_high_rates;
          Alcotest.test_case "zero rate draws nothing" `Quick
            test_zero_rate_draws_nothing;
          Alcotest.test_case "third stream is independent" `Quick
            test_arrival_stream_is_third;
          Alcotest.test_case "uniform replay re-derives arrived_total" `Quick
            test_uniform_replay_matches_engine;
        ] );
      ( "plan algebra",
        [
          Alcotest.test_case "rate_at shapes" `Quick test_rate_at_shapes;
          Alcotest.test_case "validate rejects" `Quick test_validate_rejects;
          Alcotest.test_case "of_string errors" `Quick test_of_string_errors;
          prop_spec_roundtrip;
        ] );
      ("open-system laws",
        Alcotest.test_case "horizon + steady windows" `Quick
          test_horizon_and_windows
        :: conservation );
    ]
