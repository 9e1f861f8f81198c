type arm = { label : string; params : Params.t; strategy : Strategy.t }

type spec = {
  fig : int;
  title : string;
  arms : arm list;
  at_tick : int;
}

(* Every arm is built at the default seed; [render] sets the run's. *)
let specs =
  let base = Params.default ~nodes:1000 ~tasks:100_000 in
  let hetero = { base with Params.heterogeneity = Params.Heterogeneous } in
  let arm label params strategy = { label; params; strategy } in
  let none = arm "none" base Strategy.No_strategy in
  let churn =
    arm "churn-0.01" { base with Params.churn_rate = 0.01 } Strategy.Induced_churn
  in
  let random = arm "random-injection" base Strategy.Random_injection in
  let smart = arm "smart-neighbor" base Strategy.Smart_neighbor_injection in
  let invitation = arm "invitation" base Strategy.Invitation in
  let spec fig at_tick title arms =
    { fig; title = Printf.sprintf "Figure %d: %s" fig title; arms; at_tick }
  in
  [
    spec 4 0 "initial workload distribution (1000 nodes, 1e5 tasks)"
      [ arm "initial" base Strategy.No_strategy ];
    spec 5 5 "churn 0.01 vs no strategy, beginning of tick 5" [ churn; none ];
    spec 6 35 "churn 0.01 vs no strategy, tick 35" [ churn; none ];
    spec 7 5 "random injection vs no strategy, tick 5" [ random; none ];
    spec 8 35 "random injection vs no strategy, tick 35" [ random; none ];
    spec 9 35 "random injection vs churn 0.01, tick 35" [ random; churn ];
    spec 10 35 "heterogeneous networks, random injection vs none, tick 35"
      [
        arm "random-injection" hetero Strategy.Random_injection;
        arm "none" hetero Strategy.No_strategy;
      ];
    spec 11 35 "neighbor injection vs no strategy, tick 35"
      [ arm "neighbor-injection" base Strategy.Neighbor_injection; none ];
    spec 12 35 "smart neighbor injection vs no strategy, tick 35" [ smart; none ];
    spec 13 35 "invitation vs no strategy, tick 35" [ invitation; none ];
    spec 14 35 "invitation vs smart neighbor injection, tick 35" [ invitation; smart ];
  ]

let render ~seed spec =
  let series =
    List.map
      (fun arm ->
        let at = spec.at_tick in
        let params = { arm.params with Params.seed } in
        let r = Engine.run ~snapshot_at:[ at ] params (Strategy.make arm.strategy ()) in
        (* empty when the run finished before the snapshot tick *)
        let workloads = Trace.snapshot_at_tick r.Engine.trace at in
        { Figure.label = arm.label; workloads = Option.value ~default:[||] workloads })
      spec.arms
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (spec.title ^ "\n");
  List.iter
    (fun (s : Figure.series) ->
      if Array.length s.Figure.workloads = 0 then
        Buffer.add_string buf
          (Printf.sprintf "  [%s finished before tick %d]\n" s.Figure.label
             spec.at_tick)
      else
        let sum = Descriptive.summarize_int s.Figure.workloads in
        Buffer.add_string buf
          (Format.asprintf "  %-18s %a gini=%.3f\n" s.Figure.label
             Descriptive.pp_summary sum
             (Inequality.gini s.Figure.workloads)))
    series;
  match List.filter (fun s -> Array.length s.Figure.workloads > 0) series with
  | [] -> (Buffer.contents buf, "")
  | plottable ->
    Buffer.add_string buf (Figure.compare_histograms plottable);
    (Buffer.contents buf, Figure.csv plottable)
