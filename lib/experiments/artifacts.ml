type command =
  | Own of string * string
  | Fig of int
  | Summary of string
  | Ablate of string

type bench = {
  section : string;
  header : string;
  trailer : string;
  max_trials : int option;
}

type leg = {
  json_doc : string;
  after : seed:int -> string * (Json_out.t -> Json_out.t);
}

type body =
  | Rows of Paper_rows.section
  | Sweep of Sweep.t * leg option
  | Render : {
      trials : bool;
      run : trials:int -> seed:int -> 'a;
      text : 'a -> string;
      csv : ('a -> string) option;
    }
      -> body

type t = { id : string; command : command; bench : bench option; body : body }

let entry ?bench id command body = { id; command; bench; body }

let bench ?(header = "") ?(trailer = "") ?max_trials section =
  { section; header; trailer; max_trials }

(* Renders that read the trial count and the seed, or the seed only. *)
let counted ?csv run text = Render { trials = true; run; text; csv }

let seeded ?csv run text =
  Render { trials = false; run = (fun ~trials:_ ~seed -> run ~seed); text; csv }

let figure n run =
  entry ("F" ^ string_of_int n) (Fig n) ~bench:(bench "figures1-3") (seeded run Fun.id)

let paired (spec : Paired_figures.spec) =
  let n = spec.Paired_figures.fig in
  (* The figures4-14 bench section ends with a blank line. *)
  let trailer = if n = 14 then "\n" else "" in
  entry ("F" ^ string_of_int n) (Fig n) ~bench:(bench "figures4-14" ~trailer)
    (seeded ~csv:snd (fun ~seed -> Paired_figures.render ~seed spec) fst)

let sweep id name doc ?leg spec = entry id (Own (name, doc)) (Sweep (spec, leg))

(* Paper_rows tables.  Every cell is built at the default seed; the
   render sets the run's. *)
let rows ?single id command section title rows =
  entry id command ~bench:(bench section) (Rows { Paper_rows.title; single; rows })

let summary id name = rows id (Summary name) "summaries"
let ablation id name = rows id (Ablate name) "ablations"
let extension ?single id name = rows ?single id (Ablate name) "extensions"
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
  List.map (fun (label, v) -> Paper_rows.Cell (prefix ^ label, set v, strategy)) values

let none = Strategy.No_strategy
let ri = Strategy.Random_injection
let ni = Strategy.Neighbor_injection
let smart = Strategy.Smart_neighbor_injection
let inv = Strategy.Invitation

let all =
  [
    entry "T1"
      (Own ("table1", "Table I: median task distribution."))
      ~bench:
        (bench "table1" ~max_trials:5
           ~header:
             "Paper reference (Table I): medians 69.4/346.6/692.3 (1000n), \
              13.8/69.3/138.4 (5000n), 7.0/34.6/69.2 (10000n)\n")
      (counted ~csv:Export.table1_csv
         (fun ~trials ~seed -> Initial_distribution.table1 ~trials ~seed ())
         Initial_distribution.print_table1);
    figure 1 (fun ~seed -> Initial_distribution.figure1 ~seed ());
    figure 2 (fun ~seed -> Initial_distribution.figure2 ~seed ());
    figure 3 (fun ~seed -> Initial_distribution.figure3 ~seed ());
    entry "T2"
      (Own ("table2", "Table II: churn-rate sweep."))
      ~bench:
        (bench "table2"
           ~header:
             "Paper reference (Table II) row 'churn 0':    7.476 7.467 5.043 5.022 \
              5.016\n\
              Paper reference (Table II) row 'churn 0.01': 3.721 2.104 3.076 1.873 \
              1.309\n")
      (Sweep (Sweep.churn, None));
  ]
  @ List.map paired Paired_figures.specs
  @ Paper_rows.
      [
        summary "S-RI" "ri" "S-RI: Random Injection runtime factors (paper VI-B)"
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
        summary "S-NI" "ni" "S-NI: Neighbor Injection runtime factors (paper VI-C)"
          [
            Cell ("none     1000n/1e5t (paper: 7.476)", base, none);
            Cell ("neighbor 1000n/1e5t (paper: 5.033)", base, ni);
            Cell ("none      100n/1e4t (paper: 5.043)", p 100 10_000, none);
            Cell ("neighbor  100n/1e4t (paper: 3.006)", p 100 10_000, ni);
            Note "-- smart variant (paper: ~1.2 better on average):";
            Cell ("smart    1000n/1e5t", base, smart);
            Cell ("smart     100n/1e4t", p 100 10_000, smart);
            Note "-- heterogeneous strength-per-tick (paper: worse than homogeneous):";
            Cell ("neighbor hetero 1000n/1e5t", hetero base, ni);
            Cell ("smart    hetero 1000n/1e5t", hetero base, smart);
          ];
        summary "S-INV" "inv" "S-INV: Invitation runtime factors (paper VI-D)"
          [
            Cell ("invitation  100n/1e5t (paper: 3.749)", p 100 100_000, inv);
            Cell ("invitation 1000n/1e5t (paper: 5.673)", base, inv);
            Cell
              ( "invitation hetero strength-work 1000n/1e5t (paper: 6.097)",
                hetero base,
                inv );
          ];
        ablation "A1" "threshold" "A1: sybilThreshold under Random Injection"
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
        ablation "A2" "maxsybils"
          "A2: maxSybils (paper: no homogeneous effect; hurts heterogeneous)"
          (List.concat_map
             (fun (label, params) ->
               List.map
                 (fun m ->
                   Cell
                     ( Printf.sprintf "RI %s maxSybils=%d" label m,
                       { params with Params.max_sybils = m },
                       ri ))
                 [ 5; 10 ])
             [
               ("homogeneous 1000n/1e5t", base);
               ("heterogeneous 1000n/1e5t", hetero base);
             ]);
        ablation "A3" "successors"
          "A3: numSuccessors under Neighbor Injection (paper: ~0.3 gain)"
          (vary "neighbor 1000n/1e5t successors=" ni
             (fun k -> { base with Params.num_successors = k })
             [ ("5", 5); ("10", 10) ]);
        ablation "A4" "churn-ri"
          "A4: ambient churn under Random Injection (paper: ~+0.06 at 0.01)"
          (let churn rate = { base with Params.churn_rate = rate } in
           vary "RI 1000n/1e5t churn=" ri churn
             [ ("0", 0.0); ("0.001", 0.001); ("0.01", 0.01) ]
           (* The paper never tested churn on Invitation (its footnote 4,
              suspecting "the same effect as in the neighbor strategy");
              measure it. *)
           @ vary "invitation 1000n/1e5t churn=" inv churn
               [ ("0 (fn. 4)", 0.0); ("0.01 (fn. 4)", 0.01) ]);
        rows "A5"
          (Own ("messages", "Per-strategy message accounting."))
          "ablations" "A5: message accounting per strategy (one 1000n/1e5t run)"
          ~single:(fun label r ->
            Format.asprintf "  %-16s factor=%6.3f  %a\n" label r.Engine.factor
              Messages.pp r.Engine.messages)
          (List.map
             (fun s -> Cell (Strategy.name s, Strategy.default_params s base, s))
             Strategy.all);
        extension "E1" "median-split" "EXT: Invitation split point (extension)"
          (vary "invitation 1000n/1e5t split=" inv
             (fun median -> { base with Params.split_at_median = median })
             [ ("arc-midpoint", false); ("median-key", true) ]);
        extension "E2" "avoid-repeats"
          "EXT: Neighbor Injection failed-arc memory (paper IV-C refinement)"
          (vary "neighbor 1000n/1e5t failed-arc-memory=" ni
             (fun avoid -> { base with Params.avoid_repeats = avoid })
             [ ("off", false); ("on", true) ]);
        extension "E3" "rejoin-id" "EXT: churned nodes rejoin at fresh vs original id"
          (vary "churn-0.01 1000n/1e5t rejoin-id=" Strategy.Induced_churn
             (fun fresh ->
               { base with Params.churn_rate = 0.01; rejoin_fresh_id = fresh })
             [ ("fresh", true); ("original", false) ]);
        extension "E4" "strength-aware"
          "EXT: strength-aware injection (paper VII future work: weak nodes should \
           not steal from strong ones)"
          (let aware = Strategy.Strength_aware_injection in
           [
             Cell ("random          homogeneous 1000n/1e5t", base, ri);
             Cell ("strength-aware  homogeneous 1000n/1e5t", base, aware);
             Cell ("random          hetero+strength 1000n/1e5t", hetero base, ri);
             Cell ("strength-aware  hetero+strength 1000n/1e5t", hetero base, aware);
           ]);
        extension "E5" "clustered"
          "EXT: clustered (Zipfian) task keys (paper III: real workloads cluster)"
          (let clustered =
             let hot = Params.Clustered { hotspots = 20; spread = 0.02; zipf_s = 1.1 } in
             { base with Params.keys = hot }
           in
           [
             Cell ("none    uniform-sha1 keys", base, none);
             Cell ("none    clustered/zipf keys", clustered, none);
             Cell ("random  uniform-sha1 keys", base, ri);
             Cell ("random  clustered/zipf keys", clustered, ri);
           ]);
        extension "E6" "stagger" "EXT: staggered vs synchronized decision phases"
          (vary "random 1000n/1e5t decisions=" ri
             (fun flag -> { base with Params.stagger_decisions = flag })
             [ ("staggered", true); ("synchronized", false) ]);
        extension "E7" "static-vnodes"
          "EXT: static virtual servers vs adaptive injection (1000n/1e5t)"
          [
            Cell ("none (baseline)", base, none);
            Cell ("static virtual servers (5/node)", base, Strategy.Static_virtual_nodes);
            Cell ("random injection (adaptive)", base, ri);
          ];
        extension "E8" "failure-churn"
          "EXT: graceful churn vs ungraceful failure at rate 0.01 (paper IV-A: dying \
           is of minimal impact)"
          ~single:(fun label r ->
            Format.asprintf "  %-32s factor=%6.3f  key_transfers=%d@\n" label
              r.Engine.factor r.Engine.messages.Messages.key_transfers)
          [
            Cell ("no churn (baseline)", base, none);
            Cell ("graceful churn 0.01", { base with Params.churn_rate = 0.01 }, none);
            Cell
              ( "ungraceful failures 0.01",
                { base with Params.failure_rate = 0.01 },
                none );
          ];
      ]
  @ [
      entry "M1"
        (Own ("maintenance", "Stabilization cost under churn (paper footnote 2)."))
        ~bench:
          (bench "maintenance"
             ~header:
               "Stabilization protocol under churn (paper VI-A footnote 2: \
                maintenance costs rise with churn)\n")
        (seeded (fun ~seed -> Maintenance.run ~seed ()) Maintenance.print_table);
      entry "R1"
        (Own ("failures", "Key loss under simultaneous failures vs replication."))
        ~bench:
          (bench "failures" ~max_trials:5
             ~header:
               "Key loss under simultaneous failure vs replication (paper IV-A/V \
                backup assumption)\n")
        (counted
           (fun ~trials ~seed -> Failure_recovery.run ~seed ~trials ())
           Failure_recovery.print_table);
      entry "H1"
        (Own ("hops", "Lookup hop-count scaling across ring sizes."))
        ~bench:
          (bench "routing"
             ~header:"Lookup hop scaling (Chord guarantee; also the per-join charge)\n")
        (seeded ~csv:(fun (hops, _) -> Export.lookup_hops_csv hops)
           (fun ~seed -> (Lookup_hops.run ~seed (), Overlay_hops.run ~seed ()))
           (fun (hops, overlays) ->
             Lookup_hops.print_table hops
             ^ "\nAcross overlays (Chord fingers / Symphony k=4 / Kademlia k=8):\n"
             ^ Overlay_hops.print_table overlays));
      entry "W1"
        (Own ("timeline", "Work completed per tick for each strategy (first 50 ticks)."))
        ~bench:
          (bench "timeline"
             ~header:
               "Work completed per tick, first 50 ticks (paper V-C detailed window)\n")
        (seeded ~csv:Export.work_timeline_csv
           (fun ~seed -> Work_timeline.run ~seed ())
           Work_timeline.print_table);
      sweep "D1" "degrade"
        "Graceful degradation: runtime factor per strategy as the control-plane \
         message drop rate climbs."
        Sweep.degrade;
      sweep "R2" "recovery-sweep"
        "In-simulation crash recovery: tasks lost under a crash burst versus live \
         replication degree, against the analytic f^(r+1)."
        Sweep.recovery;
      sweep "STREAM" "steady-sweep"
        "Steady-state sweep: strategy × Poisson arrival rate × churn, each cell an \
         open-system run reporting warm-up-discarded queue and sojourn percentiles."
        Sweep.steady;
      sweep "ADV" "attack-sweep"
        "Adversarial sweep: runtime factor and recovery-plane task loss versus \
         eclipse-attacker strength, undefended and under the admission-puzzle \
         defense."
        Sweep.attack;
      sweep "HH" "head-to-head"
        "Strategy families head to head: the Sybil strategies against the non-Sybil \
         competitors (diffusive transfers, range reassignment) across churn and \
         reply-drop regimes, plus a ChordReduce word-count makespan leg on each \
         family's warmed ring."
        ~leg:
          {
            json_doc = "Also print the comparison as JSON.";
            after =
              (fun ~seed ->
                let makespans = Headtohead.makespans ~seed () in
                ( "\n" ^ Headtohead.print_makespans makespans,
                  fun grid ->
                    let makespans = Headtohead.makespans_json makespans in
                    Json_out.Obj [ ("grid", grid); ("makespans", makespans) ] ));
          }
        Sweep.head_to_head;
    ]

let subcommand = function
  | Own (name, doc) -> (name, doc)
  | Fig _ -> ("fig", "Regenerate Figure N (1-14).")
  | Summary _ -> ("summary", "Section VI runtime-factor summaries.")
  | Ablate _ -> ("ablate", "Parameter ablations and extensions.")

let key e =
  match e.command with
  | Own _ -> ""
  | Fig n -> string_of_int n
  | Summary name | Ablate name -> name

(* The distinct values of [by] in order of first appearance, each with
   its items in order. *)
let group by items =
  List.filter_map
    (fun x ->
      match List.filter (fun y -> by y = by x) items with
      | first :: _ as same when first == x -> Some (by x, same)
      | _ -> None)
    items

let sections =
  group
    (fun (b, _) -> b.section)
    (List.filter_map (fun e -> Option.map (fun b -> (b, e)) e.bench) all)

let commands = List.map snd (group (fun e -> fst (subcommand e.command)) all)

type flags = {
  reads_trials : bool;
  writes_csv : bool;
  json_doc : string option;
  journal : bool;
}

let flags e =
  let reads_trials, writes_csv, json_doc, journal =
    match e.body with
    | Rows s -> (Option.is_none s.Paper_rows.single, false, None, false)
    | Sweep (spec, leg) ->
      let doc =
        match leg with Some l -> l.json_doc | None -> "Also print the sweep as JSON."
      in
      (true, true, Option.map (fun _ -> doc) spec.Sweep.json, true)
    | Render r -> (r.trials, Option.is_some r.csv, None, false)
  in
  { reads_trials; writes_csv; json_doc; journal }

type output = { text : string; csv : string option; json : Json_out.t option }

let run ?journal ?trial_timeout e ~trials ~seed =
  match e.body with
  | Rows s -> { text = Paper_rows.render ~trials ~seed s; csv = None; json = None }
  | Sweep (spec, leg) ->
    let rows = Sweep.run ?journal ?trial_timeout ~trials ~seed spec in
    let after, wrap = match leg with Some l -> l.after ~seed | None -> ("", Fun.id) in
    {
      text = spec.Sweep.table rows ^ after;
      csv = Some (Sweep.csv spec rows);
      json = Option.map (fun _ -> wrap (Sweep.json spec rows)) spec.Sweep.json;
    }
  | Render r ->
    let x = r.run ~trials ~seed in
    { text = r.text x; csv = Option.map (fun csv -> csv x) r.csv; json = None }
