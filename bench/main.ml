(* Regenerates every table and figure of the paper plus the ablations
   and extensions.  Performance is measured by the ledger in
   bench/ledger, not here.

   Environment:
     DHTLB_SCALE=full   paper scale (100 trials); default is quick scale
     DHTLB_TRIALS=n     explicit trial count
     DHTLB_ONLY=a,b     run only the named sections (see [sections]);
                        an unknown name is refused with exit 2 *)

let trials = Scale.trials ()
let seed = Scale.seed ()

let paper_table1 () =
  print_string
    "Paper reference (Table I): medians 69.4/346.6/692.3 (1000n), \
     13.8/69.3/138.4 (5000n), 7.0/34.6/69.2 (10000n)\n";
  let trials = min trials 5 in
  print_string (Initial_distribution.print_table1 (Initial_distribution.table1 ~trials ~seed ()))

let paper_table2 () =
  print_string
    "Paper reference (Table II) row 'churn 0':    7.476 7.467 5.043 5.022 5.016\n\
     Paper reference (Table II) row 'churn 0.01': 3.721 2.104 3.076 1.873 1.309\n";
  print_string Sweep.(churn.table (run ~trials ~seed churn))

let figures_1_3 () =
  print_string (Initial_distribution.figure1 ~seed ());
  print_newline ();
  print_string (Initial_distribution.figure2 ~seed ());
  print_newline ();
  print_string (Initial_distribution.figure3 ~seed ())

let paired_figures () =
  List.iter
    (fun spec ->
      print_string (Paired_figures.run_spec spec);
      print_newline ())
    (Paired_figures.specs ~seed ())

(* One group of Paper_rows' tables, a blank line between tables. *)
let paper_rows group () =
  List.iteri
    (fun i s ->
      if i > 0 then print_newline ();
      print_string (Paper_rows.render ~trials ~seed s))
    (List.filter (fun s -> s.Paper_rows.group = group) Paper_rows.sections)

let maintenance () =
  print_string
    "Stabilization protocol under churn (paper VI-A footnote 2: maintenance \
     costs rise with churn)\n";
  print_string (Maintenance.print_table (Maintenance.run ~seed ()))

let failures () =
  print_string
    "Key loss under simultaneous failure vs replication (paper IV-A/V backup \
     assumption)\n";
  print_string
    (Failure_recovery.print_table
       (Failure_recovery.run ~seed ~trials:(min trials 5) ()))

let routing () =
  print_string
    "Lookup hop scaling (Chord guarantee; also the per-join charge)\n";
  print_string (Lookup_hops.print_table (Lookup_hops.run ~seed ()));
  print_newline ();
  print_string "Across overlays (Chord fingers / Symphony k=4 / Kademlia k=8):\n";
  print_string (Overlay_hops.print_table (Overlay_hops.run ~seed ()))

let timeline () =
  print_string
    "Work completed per tick, first 50 ticks (paper V-C detailed window)\n";
  print_string (Work_timeline.print_table (Work_timeline.run ~seed ()))

let sections =
  [
    ("table1", paper_table1);
    ("figures1-3", figures_1_3);
    ("table2", paper_table2);
    ("figures4-14", paired_figures);
  ]
  @ List.map (fun g -> (g, paper_rows g)) Paper_rows.groups
  @ [
      ("maintenance", maintenance);
      ("failures", failures);
      ("routing", routing);
      ("timeline", timeline);
    ]

let section (name, f) =
  Printf.printf "==== %s ====\n%!" name;
  let t0 = Unix.gettimeofday () in
  f ();
  Printf.printf "---- (%s: %.1fs)\n\n%!" name (Unix.gettimeofday () -. t0)

let () =
  let wanted =
    match Sys.getenv_opt "DHTLB_ONLY" with
    | None | Some "" -> sections
    | Some s ->
      let names = String.split_on_char ',' (String.lowercase_ascii s) in
      (match List.filter (fun n -> not (List.mem_assoc n sections)) names with
      | [] -> ()
      | unknown ->
        Printf.eprintf "DHTLB_ONLY: unknown section(s) %s (valid: %s)\n"
          (String.concat ", " (List.map (Printf.sprintf "%S") unknown))
          (String.concat " " (List.map fst sections));
        exit 2);
      List.filter (fun (name, _) -> List.mem name names) sections
  in
  Printf.printf "dhtlb benchmark harness (%s)\n\n%!" (Scale.describe ());
  List.iter section wanted
