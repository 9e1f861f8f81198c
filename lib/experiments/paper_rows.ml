type row = Note of string | Cell of string * Params.t * Strategy.t

type section = {
  name : string;
  group : string;
  title : string;
  single : (string -> Engine.result -> string) option;
  rows : row list;
}

let aggregate_row label (a : Runner.aggregate) =
  Printf.sprintf "  %-42s factor=%6.3f +/-%5.3f  [%6.3f, %6.3f]%s\n" label
    a.Runner.mean_factor a.Runner.stddev_factor a.Runner.min_factor
    a.Runner.max_factor
    (if a.Runner.aborted > 0 then Printf.sprintf "  (%d aborted!)" a.Runner.aborted
     else "")

(* A cell identical to an earlier one of the same section (equal
   parameters and strategy, both plain data) reprints that cell's result
   under its own label instead of running again. *)
let render ?trials ~seed s =
  let buf = Buffer.create 2048 in
  Printf.bprintf buf "%s\n%s\n" s.title (String.make (String.length s.title) '-');
  let run params strategy =
    let params = { params with Params.seed } in
    match s.single with
    | Some line ->
      let r = Engine.run params (Strategy.make strategy ()) in
      fun label -> line label r
    | None ->
      let a =
        Runner.run_trials ?trials ~domains:(Scale.domains ()) params
          (Strategy.make strategy)
      in
      fun label -> aggregate_row label a
  in
  let ran = ref [] in
  List.iter
    (fun row ->
      Buffer.add_string buf
        (match row with
        | Note text -> "  " ^ text ^ "\n"
        | Cell (label, params, strategy) ->
          let print =
            match List.assoc_opt (params, strategy) !ran with
            | Some print -> print
            | None ->
              let print = run params strategy in
              ran := ((params, strategy), print) :: !ran;
              print
          in
          print label))
    s.rows;
  Buffer.contents buf

(* Every cell is built at the default seed; [render] sets the run's. *)
let p nodes tasks = Params.default ~nodes ~tasks
let base = p 1000 100_000

let hetero params =
  {
    params with
    Params.heterogeneity = Params.Heterogeneous;
    work = Params.Strength_per_tick;
  }

(* One cell per (label suffix, value) of a single knob. *)
let vary prefix strategy set values =
  List.map (fun (label, v) -> Cell (prefix ^ label, set v, strategy)) values

let section group ?single name title rows = { name; group; title; single; rows }

let sections =
  let open Strategy in
  let ri = Random_injection and ni = Neighbor_injection and inv = Invitation in
  let summary = section "summaries" and ablation = section "ablations" in
  let extension = section "extensions" in
  [
    summary "ri" "S-RI: Random Injection runtime factors (paper VI-B)"
      [
        Cell ("RI 1000n/1e5t (paper: 1.36..1.70)", base, ri);
        Cell ("RI 1000n/1e6t (paper: 1.12..1.25)", p 1000 1_000_000, ri);
        Note "-- same tasks-per-node ratio (1000/node), sizes compared:";
        Cell ("RI  100n/1e5t (smaller net, ~0.086 faster)", p 100 100_000, ri);
        Cell ("RI 1000n/1e6t (larger net)", p 1000 1_000_000, ri);
        Note "-- heterogeneous networks (strength-per-tick work):";
        Cell
          ( "RI hetero 1000n/1e6t (1000/node; paper worst 1.955)",
            hetero (p 1000 1_000_000),
            ri );
        Cell ("RI hetero 1000n/1e5t (100/node; paper worst 4.052)", hetero base, ri);
      ];
    summary "ni" "S-NI: Neighbor Injection runtime factors (paper VI-C)"
      [
        Cell ("none     1000n/1e5t (paper: 7.476)", base, No_strategy);
        Cell ("neighbor 1000n/1e5t (paper: 5.033)", base, ni);
        Cell ("none      100n/1e4t (paper: 5.043)", p 100 10_000, No_strategy);
        Cell ("neighbor  100n/1e4t (paper: 3.006)", p 100 10_000, ni);
        Note "-- smart variant (paper: ~1.2 better on average):";
        Cell ("smart    1000n/1e5t", base, Smart_neighbor_injection);
        Cell ("smart     100n/1e4t", p 100 10_000, Smart_neighbor_injection);
        Note "-- heterogeneous strength-per-tick (paper: worse than homogeneous):";
        Cell ("neighbor hetero 1000n/1e5t", hetero base, ni);
        Cell ("smart    hetero 1000n/1e5t", hetero base, Smart_neighbor_injection);
      ];
    summary "inv" "S-INV: Invitation runtime factors (paper VI-D)"
      [
        Cell ("invitation  100n/1e5t (paper: 3.749)", p 100 100_000, inv);
        Cell ("invitation 1000n/1e5t (paper: 5.673)", base, inv);
        Cell
          ("invitation hetero strength-work 1000n/1e5t (paper: 6.097)", hetero base, inv);
      ];
    ablation "threshold" "A1: sybilThreshold under Random Injection"
      (List.concat_map
         (fun (nodes, tasks, note) ->
           List.map
             (fun thr ->
               Cell
                 ( Printf.sprintf "RI %dn/%dt threshold=%d%s" nodes tasks thr note,
                   { (p nodes tasks) with Params.sybil_threshold = thr },
                   ri ))
             [ 0; 5; 10 ])
         [
           (1000, 100_000, " (paper: >=0.1 gain)");
           (100, 10_000, " (paper: >=0.1 gain)");
           (1000, 1_000_000, " (paper: no gain)");
         ]);
    ablation "maxsybils" "A2: maxSybils (paper: no homogeneous effect; hurts heterogeneous)"
      (List.concat_map
         (fun (label, params) ->
           List.map
             (fun m ->
               Cell
                 ( Printf.sprintf "RI %s maxSybils=%d" label m,
                   { params with Params.max_sybils = m },
                   ri ))
             [ 5; 10 ])
         [ ("homogeneous 1000n/1e5t", base); ("heterogeneous 1000n/1e5t", hetero base) ]);
    ablation "successors" "A3: numSuccessors under Neighbor Injection (paper: ~0.3 gain)"
      (vary "neighbor 1000n/1e5t successors=" ni
         (fun k -> { base with Params.num_successors = k })
         [ ("5", 5); ("10", 10) ]);
    ablation "churn-ri" "A4: ambient churn under Random Injection (paper: ~+0.06 at 0.01)"
      (let churn rate = { base with Params.churn_rate = rate } in
       vary "RI 1000n/1e5t churn=" ri churn [ ("0", 0.0); ("0.001", 0.001); ("0.01", 0.01) ]
       (* The paper never tested churn on Invitation (its footnote 4,
          suspecting "the same effect as in the neighbor strategy");
          measure it. *)
       @ vary "invitation 1000n/1e5t churn=" inv churn
           [ ("0 (fn. 4)", 0.0); ("0.01 (fn. 4)", 0.01) ]);
    ablation "messages" "A5: message accounting per strategy (one 1000n/1e5t run)"
      ~single:(fun label r ->
        Format.asprintf "  %-16s factor=%6.3f  %a\n" label r.Engine.factor Messages.pp
          r.Engine.messages)
      (List.map (fun s -> Cell (name s, default_params s base, s)) all);
    extension "median-split" "EXT: Invitation split point (extension)"
      (vary "invitation 1000n/1e5t split=" inv
         (fun median -> { base with Params.split_at_median = median })
         [ ("arc-midpoint", false); ("median-key", true) ]);
    extension "avoid-repeats"
      "EXT: Neighbor Injection failed-arc memory (paper IV-C refinement)"
      (vary "neighbor 1000n/1e5t failed-arc-memory=" ni
         (fun avoid -> { base with Params.avoid_repeats = avoid })
         [ ("off", false); ("on", true) ]);
    extension "rejoin-id" "EXT: churned nodes rejoin at fresh vs original id"
      (vary "churn-0.01 1000n/1e5t rejoin-id=" Induced_churn
         (fun fresh -> { base with Params.churn_rate = 0.01; rejoin_fresh_id = fresh })
         [ ("fresh", true); ("original", false) ]);
    extension "strength-aware"
      "EXT: strength-aware injection (paper VII future work: weak nodes should not \
       steal from strong ones)"
      [
        Cell ("random          homogeneous 1000n/1e5t", base, ri);
        Cell ("strength-aware  homogeneous 1000n/1e5t", base, Strength_aware_injection);
        Cell ("random          hetero+strength 1000n/1e5t", hetero base, ri);
        Cell
          ( "strength-aware  hetero+strength 1000n/1e5t",
            hetero base,
            Strength_aware_injection );
      ];
    extension "clustered"
      "EXT: clustered (Zipfian) task keys (paper III: real workloads cluster)"
      (let clustered =
         {
           base with
           Params.keys = Params.Clustered { hotspots = 20; spread = 0.02; zipf_s = 1.1 };
         }
       in
       [
         Cell ("none    uniform-sha1 keys", base, No_strategy);
         Cell ("none    clustered/zipf keys", clustered, No_strategy);
         Cell ("random  uniform-sha1 keys", base, ri);
         Cell ("random  clustered/zipf keys", clustered, ri);
       ]);
    extension "stagger" "EXT: staggered vs synchronized decision phases"
      (vary "random 1000n/1e5t decisions=" ri
         (fun flag -> { base with Params.stagger_decisions = flag })
         [ ("staggered", true); ("synchronized", false) ]);
    extension "static-vnodes"
      "EXT: static virtual servers vs adaptive injection (1000n/1e5t)"
      [
        Cell ("none (baseline)", base, No_strategy);
        Cell ("static virtual servers (5/node)", base, Static_virtual_nodes);
        Cell ("random injection (adaptive)", base, ri);
      ];
    extension "failure-churn"
      "EXT: graceful churn vs ungraceful failure at rate 0.01 (paper IV-A: dying is of \
       minimal impact)"
      ~single:(fun label r ->
        Format.asprintf "  %-32s factor=%6.3f  key_transfers=%d@\n" label r.Engine.factor
          r.Engine.messages.Messages.key_transfers)
      [
        Cell ("no churn (baseline)", base, No_strategy);
        Cell ("graceful churn 0.01", { base with Params.churn_rate = 0.01 }, No_strategy);
        Cell
          ( "ungraceful failures 0.01",
            { base with Params.failure_rate = 0.01 },
            No_strategy );
      ];
  ]

let groups =
  List.fold_left
    (fun acc s -> if List.mem s.group acc then acc else acc @ [ s.group ])
    [] sections
