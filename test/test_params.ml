(* Parameter validation and ideal-runtime arithmetic. *)

let base = Params.default ~nodes:100 ~tasks:1000

let expect_error label params =
  match Params.validate params with
  | Error _ -> ()
  | Ok () -> Alcotest.failf "%s should be rejected" label

let test_default_valid () =
  match Params.validate base with
  | Ok () -> ()
  | Error e -> Alcotest.failf "default invalid: %s" e

let test_validate_rejects () =
  expect_error "nodes=0" { base with Params.nodes = 0 };
  expect_error "tasks<0" { base with Params.tasks = -1 };
  expect_error "churn>1" { base with Params.churn_rate = 1.5 };
  expect_error "churn<0" { base with Params.churn_rate = -0.1 };
  expect_error "failures>1" { base with Params.failure_rate = 1.5 };
  expect_error "max_sybils=0" { base with Params.max_sybils = 0 };
  expect_error "threshold<0" { base with Params.sybil_threshold = -1 };
  expect_error "successors=0" { base with Params.num_successors = 0 };
  expect_error "period=0" { base with Params.decision_period = 0 };
  expect_error "invite_factor=0" { base with Params.invite_factor = 0.0 };
  expect_error "invite_factor=nan" { base with Params.invite_factor = Float.nan };
  expect_error "invite_factor=inf" { base with Params.invite_factor = Float.infinity };
  expect_error "cap=0" { base with Params.max_ticks_factor = 0 }

let test_clustered_validation () =
  let clustered h sp z =
    { base with Params.keys = Params.Clustered { hotspots = h; spread = sp; zipf_s = z } }
  in
  (match Params.validate (clustered 10 0.1 1.0) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid clustered rejected: %s" e);
  expect_error "hotspots=0" (clustered 0 0.1 1.0);
  expect_error "spread=0" (clustered 10 0.0 1.0);
  expect_error "spread>1" (clustered 10 1.5 1.0);
  expect_error "zipf<0" (clustered 10 0.1 (-1.0));
  expect_error "zipf=nan" (clustered 10 0.1 Float.nan);
  expect_error "zipf=inf" (clustered 10 0.1 Float.infinity)

let test_ideal_task_per_tick () =
  let strengths = Array.make 100 1 in
  Alcotest.(check int) "exact" 10 (Params.ideal_runtime base ~strengths);
  Alcotest.(check int) "rounds up" 11
    (Params.ideal_runtime { base with Params.tasks = 1001 } ~strengths)

let test_ideal_strength () =
  let p = { base with Params.work = Params.Strength_per_tick } in
  let strengths = Array.make 100 2 in
  Alcotest.(check int) "uses capacity" 5 (Params.ideal_runtime p ~strengths)

let test_defaults_match_paper () =
  Alcotest.(check int) "maxSybils" 5 base.Params.max_sybils;
  Alcotest.(check int) "sybilThreshold" 0 base.Params.sybil_threshold;
  Alcotest.(check int) "successors" 5 base.Params.num_successors;
  Alcotest.(check int) "decision period" 5 base.Params.decision_period;
  Alcotest.(check (float 0.0)) "churn" 0.0 base.Params.churn_rate;
  Alcotest.(check bool) "homogeneous" true
    (base.Params.heterogeneity = Params.Homogeneous);
  Alcotest.(check bool) "task per tick" true (base.Params.work = Params.Task_per_tick)

let test_pp () =
  let s = Format.asprintf "%a" Params.pp base in
  Alcotest.(check bool) "mentions nodes" true
    (Option.is_some (String.index_opt s 'n'))

let () =
  Alcotest.run "params"
    [
      ( "unit",
        [
          Alcotest.test_case "default valid" `Quick test_default_valid;
          Alcotest.test_case "validate rejects" `Quick test_validate_rejects;
          Alcotest.test_case "clustered validation" `Quick test_clustered_validation;
          Alcotest.test_case "ideal task/tick" `Quick test_ideal_task_per_tick;
          Alcotest.test_case "ideal strength" `Quick test_ideal_strength;
          Alcotest.test_case "paper defaults" `Quick test_defaults_match_paper;
          Alcotest.test_case "pp" `Quick test_pp;
        ] );
    ]
