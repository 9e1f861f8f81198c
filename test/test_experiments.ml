(* Integration tests over the experiment harnesses, at tiny scale. *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_workloads_distribution () =
  let w = Initial_distribution.workloads (Prng.create 1) ~nodes:200 ~tasks:20_000 in
  Alcotest.(check int) "one per node" 200 (Array.length w);
  Alcotest.(check int) "mass conserved" 20_000 (Array.fold_left ( + ) 0 w);
  (* The paper's point: median well below mean, stddev ~ mean. *)
  let mean = Descriptive.mean_int w and median = Descriptive.median_int w in
  Alcotest.(check bool) "median < mean" true (median < mean);
  let sigma = Descriptive.stddev_int w in
  Alcotest.(check bool) "sigma ~ mean (exponential arcs)" true
    (sigma > 0.5 *. mean && sigma < 2.0 *. mean)

let test_table1_shape () =
  let rows = Initial_distribution.table1 ~trials:1 ~seed:7 () in
  Alcotest.(check int) "nine rows" 9 (List.length rows);
  List.iter
    (fun (r : Initial_distribution.table1_row) ->
      let expected_mean = float_of_int r.tasks /. float_of_int r.nodes in
      (* median of an exponential is ln2 x mean; allow wide slack for one
         trial *)
      let ratio = r.Initial_distribution.median_workload /. expected_mean in
      if ratio < 0.4 || ratio > 1.1 then
        Alcotest.failf "median ratio %.2f for %d/%d" ratio r.nodes r.tasks)
    rows;
  let printed = Initial_distribution.print_table1 rows in
  Alcotest.(check bool) "has header" true (contains printed "Median Workload")

let test_figures_1_3_render () =
  let f1 = Initial_distribution.figure1 ~seed:3 ~nodes:100 ~tasks:5_000 () in
  Alcotest.(check bool) "figure1 mentions distribution" true
    (contains f1 "Probability distribution");
  let f2 = Initial_distribution.figure2 ~seed:3 () in
  Alcotest.(check bool) "figure2 has grid" true (contains f2 "N");
  let f3 = Initial_distribution.figure3 ~seed:3 () in
  Alcotest.(check bool) "figure3 labelled evenly" true (contains f3 "evenly")

let test_churn_sweep_small () =
  let spec =
    {
      Sweep.churn with
      Sweep.axes = [ Sweep.churn_rates [ 0.0; 0.02 ]; Sweep.shapes [ (50, 1_000) ] ];
    }
  in
  let rows = Sweep.run ~trials:1 ~seed:5 spec in
  Alcotest.(check int) "two cells" 2 (List.length rows);
  let factor rate =
    match
      List.find_opt
        (fun (r : Sweep.row) -> r.Sweep.cell.Sweep.params.Params.churn_rate = rate)
        rows
    with
    | Some r -> r.Sweep.aggregate.Runner.mean_factor
    | None -> Alcotest.fail "missing cell"
  in
  (* churn helps (Table II's direction) *)
  Alcotest.(check bool) "churn lowers factor" true (factor 0.02 < factor 0.0);
  let printed = spec.Sweep.table rows in
  Alcotest.(check bool) "table header" true (contains printed "Churn")

let test_paired_figure_small () =
  let specs = Paired_figures.specs ~seed:1 () in
  Alcotest.(check int) "figures 4..14" 11 (List.length specs);
  (* run figure 4 (single arm, tick 0) at reduced size by rebuilding the
     spec with small params *)
  let fig4 = List.find (fun s -> s.Paired_figures.fig = 4) specs in
  let small_arm =
    {
      (List.hd fig4.Paired_figures.arms) with
      Paired_figures.params = Params.default ~nodes:50 ~tasks:500;
    }
  in
  let out =
    Paired_figures.run_spec { fig4 with Paired_figures.arms = [ small_arm ] }
  in
  Alcotest.(check bool) "has title" true (contains out "Figure 4");
  Alcotest.(check bool) "has stats" true (contains out "gini")

let test_figure_dispatch () =
  (match Paired_figures.figure ~seed:1 99 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown figure accepted");
  match Paired_figures.figure ~seed:1 4 with
  | Ok s -> Alcotest.(check bool) "fig4 ok" true (contains s "Figure 4")
  | Error e -> Alcotest.fail e

let test_paper_rows_render () =
  let section =
    {
      Paper_rows.name = "probe";
      group = "test";
      title = "Probe";
      single = None;
      rows =
        [
          Paper_rows.Note "-- a note";
          Paper_rows.Cell
            ("probe", Params.default ~nodes:50 ~tasks:500, Strategy.No_strategy);
        ];
    }
  in
  match String.split_on_char '\n' (Paper_rows.render ~trials:2 ~seed:42 section) with
  | [ "Probe"; "-----"; "  -- a note"; row; "" ] ->
    Alcotest.(check bool) "has label" true (String.starts_with ~prefix:"  probe " row);
    Alcotest.(check bool) "has factor" true (contains row "factor=")
  | lines -> Alcotest.failf "unexpected table %S" (String.concat "\n" lines)

let test_scale_defaults () =
  (* These read the environment; in the test environment no DHTLB_* vars
     are set by the runner. *)
  Alcotest.(check bool) "trials positive" true (Scale.trials () >= 1);
  Alcotest.(check bool) "describe mentions scale" true
    (contains (Scale.describe ()) "scale=")

let test_maintenance_small () =
  let rows = Maintenance.run ~seed:3 ~nodes:60 ~rounds:15 ~rates:[ 0.0; 0.02 ] () in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun (r : Maintenance.row) ->
      Alcotest.(check bool) "plausible message rate" true
        (r.Maintenance.messages_per_node_round > 2.0
        && r.Maintenance.messages_per_node_round < 12.0))
    rows;
  (match rows with
  | [ quiet; churny ] ->
    Alcotest.(check bool) "no churn stays consistent" true
      quiet.Maintenance.final_consistent;
    Alcotest.(check bool) "churn creates staleness" true
      (churny.Maintenance.mean_stale_heads >= quiet.Maintenance.mean_stale_heads)
  | _ -> Alcotest.fail "row shape");
  let printed = Maintenance.print_table rows in
  Alcotest.(check bool) "table header" true (contains printed "msgs/node/round")

let test_failure_recovery_small () =
  let rows =
    Failure_recovery.run ~seed:4 ~nodes:300 ~keys:5_000 ~trials:2
      ~fractions:[ 0.3 ] ~replica_counts:[ 0; 2; 8 ] ()
  in
  Alcotest.(check int) "three rows" 3 (List.length rows);
  (match rows with
  | [ r0; r2; r8 ] ->
    Alcotest.(check bool) "monotone in replicas" true
      (r0.Failure_recovery.measured_loss_rate
       >= r2.Failure_recovery.measured_loss_rate
      && r2.Failure_recovery.measured_loss_rate
         >= r8.Failure_recovery.measured_loss_rate);
    Alcotest.(check bool) "replicas=8 nearly lossless" true
      (r8.Failure_recovery.measured_loss_rate < 0.001)
  | _ -> Alcotest.fail "row shape");
  let printed = Failure_recovery.print_table rows in
  Alcotest.(check bool) "table header" true (contains printed "replicas")

let test_recovery_sweep_small () =
  let spec =
    {
      Sweep.recovery with
      Sweep.base = Params.default ~nodes:24 ~tasks:1_200;
      axes = [ Sweep.replica_counts [ 1; 3 ]; Sweep.burst_counts [ 12 ] ];
    }
  in
  let rows = Sweep.run ~seed:6 ~trials:2 spec in
  Alcotest.(check int) "two cells" 2 (List.length rows);
  let loss r = Sweep.metric r "measured_loss_rate" in
  (match rows with
  | [ r1; r3 ] ->
    Alcotest.(check bool) "more replicas never lose more" true
      (loss r3 <= loss r1);
    List.iter
      (fun (r : Sweep.row) ->
        Alcotest.(check bool) "loss rate in [0, 1]" true
          (loss r >= 0.0 && loss r <= 1.0);
        Alcotest.(check bool) "aggregate ledger matches rate" true
          (Float.abs
             (r.Sweep.aggregate.Runner.mean_tasks_lost -. (loss r *. 1_200.0))
          < 1e-6))
      rows
  | _ -> Alcotest.fail "cell shape");
  let printed = spec.Sweep.table rows in
  Alcotest.(check bool) "table header" true (contains printed "expected f^r+1");
  Alcotest.(check bool) "csv header" true
    (contains (Sweep.csv spec rows) "measured_loss_rate")

(* The attacker's window is the sweep's own (ticks 2-18), which opens
   well before a 24-machine, 1000-task run ends. *)
let test_attack_sweep_small () =
  let spec =
    {
      Sweep.attack with
      Sweep.base = { Sweep.attack.Sweep.base with Params.nodes = 24; tasks = 1_000 };
      axes =
        [
          Sweep.strategies [ Strategy.Random_injection ];
          Sweep.strengths [ 0; 3 ];
          Sweep.puzzle_costs [ 0 ];
        ];
    }
  in
  let rows = Sweep.run ~trials:1 ~seed:13 spec in
  Alcotest.(check int) "two cells" 2 (List.length rows);
  (match rows with
  | [ baseline; attacked ] ->
    Alcotest.(check (float 1e-9)) "no attacker, no attack joins" 0.0
      (Sweep.metric baseline "mean_attack_joins");
    Alcotest.(check bool) "attacker injects" true
      (Sweep.metric attacked "mean_attack_joins" > 0.0);
    Alcotest.(check (float 1e-9)) "defense off, no puzzles" 0.0
      (Sweep.metric attacked "mean_puzzles")
  | _ -> Alcotest.fail "cell shape");
  let printed = spec.Sweep.table rows in
  Alcotest.(check bool) "table header" true (contains printed "puzzle");
  let csv = Sweep.csv spec rows in
  Alcotest.(check bool) "csv header" true (contains csv "mean_attack_joins");
  Alcotest.(check bool) "csv tracks tasks_lost" true
    (contains csv "mean_tasks_lost")

let test_lookup_hops_scaling () =
  let rows = Lookup_hops.run ~seed:9 ~sizes:[ 64; 512 ] ~lookups:200 () in
  (match rows with
  | [ small; large ] ->
    Alcotest.(check bool) "hops grow with size" true
      (large.Lookup_hops.mean_hops > small.Lookup_hops.mean_hops);
    List.iter
      (fun (r : Lookup_hops.row) ->
        Alcotest.(check bool) "close to log2(n)/2" true
          (r.Lookup_hops.mean_hops < (2.5 *. r.Lookup_hops.expected) +. 2.0))
      rows
  | _ -> Alcotest.fail "row shape");
  Alcotest.(check bool) "table prints" true
    (contains (Lookup_hops.print_table rows) "mean hops")

let test_work_timeline () =
  let series =
    Work_timeline.run ~seed:5 ~nodes:100 ~tasks:2_000 ~window:20
      ~strategies:[ Strategy.No_strategy; Strategy.Random_injection ]
      ()
  in
  (match series with
  | [ baseline; ri ] ->
    Alcotest.(check bool) "windows captured" true
      (Array.length baseline.Work_timeline.work_per_tick > 0
      && Array.length ri.Work_timeline.work_per_tick > 0);
    (* random injection sustains more work per tick over the window *)
    Alcotest.(check bool) "RI sustains throughput" true
      (Work_timeline.mean_over_window ri
      > Work_timeline.mean_over_window baseline)
  | _ -> Alcotest.fail "series shape");
  Alcotest.(check bool) "table prints" true
    (contains (Work_timeline.print_table series) "tick")

let test_export_csvs_shape () =
  let rows = Lookup_hops.run ~seed:9 ~sizes:[ 64 ] ~lookups:50 () in
  let csv = Export.lookup_hops_csv rows in
  Alcotest.(check bool) "hops csv header" true (contains csv "mean_hops");
  let m = Maintenance.run ~seed:3 ~nodes:40 ~rounds:5 ~rates:[ 0.0 ] () in
  Alcotest.(check bool) "maintenance csv" true
    (contains (Export.maintenance_csv m) "messages_per_node_round");
  let f =
    Failure_recovery.run ~seed:4 ~nodes:100 ~keys:500 ~trials:1
      ~fractions:[ 0.2 ] ~replica_counts:[ 1 ] ()
  in
  Alcotest.(check bool) "failure csv" true
    (contains (Export.failure_recovery_csv f) "fail_fraction")

let () =
  Alcotest.run "experiments"
    [
      ( "initial distribution",
        [
          Alcotest.test_case "workloads" `Quick test_workloads_distribution;
          Alcotest.test_case "table1 shape" `Slow test_table1_shape;
          Alcotest.test_case "figures 1-3" `Quick test_figures_1_3_render;
        ] );
      ( "simulated",
        [
          Alcotest.test_case "churn sweep" `Quick test_churn_sweep_small;
          Alcotest.test_case "paired figure" `Quick test_paired_figure_small;
          Alcotest.test_case "figure dispatch" `Slow test_figure_dispatch;
          Alcotest.test_case "paper rows render" `Quick test_paper_rows_render;
          Alcotest.test_case "scale" `Quick test_scale_defaults;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "maintenance" `Quick test_maintenance_small;
          Alcotest.test_case "failure recovery" `Quick test_failure_recovery_small;
          Alcotest.test_case "recovery sweep" `Quick test_recovery_sweep_small;
          Alcotest.test_case "attack sweep" `Quick test_attack_sweep_small;
          Alcotest.test_case "lookup hops" `Quick test_lookup_hops_scaling;
          Alcotest.test_case "work timeline" `Quick test_work_timeline;
          Alcotest.test_case "export csvs" `Quick test_export_csvs_shape;
        ] );
    ]
