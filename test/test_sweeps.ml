(* Byte-exact goldens for every sweep, every paper result table and every
   other artifact subcommand, the CLI's refusal of bad artifact, sweep
   and runner flags and of a bad DHTLB_TRACE_OUT, that variable's one
   trace file per trial, and timeline's output under it.

   The five CLI sweeps run through the real binary at one trial, seed 11,
   with --csv, --journal and (where offered) --json; stdout, the CSV file
   and the journal file must match test/goldens byte for byte.  Table II's
   churn sweep is too heavy at its default grid, so it is pinned at
   library level on a reduced grid: table, CSV and journal.  Feeding each
   golden journal back must recompute nothing: the journal stays
   byte-identical and the output still matches.  The paper's result
   tables (summary, every ablate name, messages) and one small compare
   pin their stdout only.  Table I, the fourteen figures, hops, timeline,
   maintenance and failures pin their stdout and, where they write one,
   their CSV; every artifact subcommand pins its plain help.

   Regenerate only for an intended output change, and record it in
   CHANGES.md:
     dune build && dune exec test/test_sweeps.exe -- regen test/goldens *)

let here = Filename.dirname Sys.executable_name
let dhtlb = Filename.concat here "../bin/dhtlb.exe"
let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let copy_file src dst = write_file dst (read_file src)

let temp suffix =
  let path = Filename.temp_file "dhtlb_sweep" suffix in
  Sys.remove path;
  path

(* (subcommand, extra flags): only attack-sweep and head-to-head offer
   --json. *)
let cli_sweeps =
  [
    ("degrade", []);
    ("recovery-sweep", []);
    ("steady-sweep", []);
    ("attack-sweep", [ "--json" ]);
    ("head-to-head", [ "--json" ]);
  ]

(* The binary's stdout for [args]; a non-zero exit fails the test.
   [env] prefixes the command ([VAR=value ]). *)
let run_stdout ?(env = "") args =
  let out = temp ".stdout" in
  let code =
    Sys.command
      (env ^ Filename.quote_command dhtlb ~stdout:out ~stderr:Filename.null args)
  in
  if code <> 0 then Alcotest.failf "%s exited %d" (String.concat " " args) code;
  let s = read_file out in
  Sys.remove out;
  s

(* Runs one sweep against [journal] (created when missing); returns
   stdout, the CSV and the journal as written. *)
let run_cli (cmd, extra) ~journal =
  let csv = temp ".csv" in
  let stdout =
    run_stdout
      ([ cmd; "--trials"; "1"; "--seed"; "11"; "--csv"; csv; "--journal"; journal ]
      @ extra)
  in
  let r = (stdout, read_file csv, read_file journal) in
  Sys.remove csv;
  r

(* Table II on a 3 × 2 grid, two trials per cell; the configs are listed
   out of order so the pivot's column sort is exercised. *)
let churn ~journal =
  let spec =
    {
      Sweep.churn with
      Sweep.axes =
        [
          Sweep.churn_rates [ 0.0; 0.001; 0.01 ];
          Sweep.shapes [ (60, 3_000); (30, 600) ];
        ];
    }
  in
  let j = Journal.open_ journal in
  let rows =
    Fun.protect
      ~finally:(fun () -> Journal.close j)
      (fun () -> Sweep.run ~trials:2 ~seed:11 ~journal:j spec)
  in
  (spec.Sweep.table rows, Sweep.csv spec rows, read_file journal)

let outputs () =
  List.concat_map
    (fun ((cmd, _) as sweep) ->
      let journal = temp ".jsonl" in
      let stdout, csv, jsonl = run_cli sweep ~journal in
      Sys.remove journal;
      [ (cmd ^ ".stdout", stdout); (cmd ^ ".csv", csv); (cmd ^ ".jsonl", jsonl) ])
    cli_sweeps
  @
  let journal = temp ".jsonl" in
  let table, csv, jsonl = churn ~journal in
  Sys.remove journal;
  [ ("churn.table", table); ("churn.csv", csv); ("churn.jsonl", jsonl) ]

(* Every ablate name, in the order the CLI lists them. *)
let ablate_names =
  [
    "threshold"; "maxsybils"; "successors"; "churn-ri"; "median-split";
    "avoid-repeats"; "rejoin-id"; "strength-aware"; "clustered"; "stagger";
    "static-vnodes"; "failure-churn";
  ]

(* (golden name, arguments) of each paper result table at one trial,
   seed 11, and of compare on a small network.  summary ri and ablate
   threshold each run 1e6-task rows, so the case is [`Slow]. *)
let paper_runs =
  let at_one args = args @ [ "--trials"; "1"; "--seed"; "11" ] in
  List.map (fun w -> ("summary-" ^ w, at_one [ "summary"; w ])) [ "ri"; "ni"; "inv" ]
  @ List.map (fun w -> ("ablate-" ^ w, at_one [ "ablate"; w ])) ablate_names
  @ [
      ("messages", [ "messages"; "--seed"; "11" ]);
      ( "compare",
        [ "compare"; "--nodes"; "200"; "--tasks"; "4000"; "--trials"; "2"; "--seed"; "11" ]
      );
    ]

let paper_outputs () =
  List.map (fun (name, args) -> (name ^ ".stdout", run_stdout args)) paper_runs

(* (golden name, arguments, writes a CSV) of every other artifact
   subcommand at seed 11: Table I, the fourteen figures, hops, timeline,
   maintenance and failures.  Figures 4-14 simulate 1000-node networks
   and hops builds Kademlia tables up to 2048 nodes, so the case is
   [`Slow]. *)
let artifact_runs =
  let at_11 name args csv = (name, args @ [ "--seed"; "11" ], csv) in
  [ at_11 "table1" [ "table1"; "--trials"; "1" ] true ]
  @ List.init 14 (fun i ->
        let n = string_of_int (i + 1) in
        at_11 ("fig-" ^ n) [ "fig"; n ] (i + 1 >= 4))
  @ [
      at_11 "hops" [ "hops" ] true;
      at_11 "timeline" [ "timeline" ] true;
      at_11 "maintenance" [ "maintenance" ] false;
      at_11 "failures" [ "failures"; "--trials"; "1" ] false;
    ]

(* Every artifact subcommand's plain help, and the top level's.  Plain
   help does not depend on the terminal's width. *)
let help_commands =
  [
    "table1"; "fig"; "summary"; "ablate"; "messages"; "maintenance"; "failures";
    "hops"; "timeline"; "table2"; "degrade"; "recovery-sweep"; "steady-sweep";
    "attack-sweep"; "head-to-head";
  ]

let artifact_outputs () =
  List.concat_map
    (fun (name, args, csv) ->
      if csv then begin
        let file = temp ".csv" in
        let stdout = run_stdout (args @ [ "--csv"; file ]) in
        let written = read_file file in
        Sys.remove file;
        [ (name ^ ".stdout", stdout); (name ^ ".csv", written) ]
      end
      else [ (name ^ ".stdout", run_stdout args) ])
    artifact_runs
  @ ("help-dhtlb.stdout", run_stdout [ "--help=plain" ])
    :: List.map
         (fun cmd -> ("help-" ^ cmd ^ ".stdout", run_stdout [ cmd; "--help=plain" ]))
         help_commands

let golden name = read_file (Filename.concat (Filename.concat here "goldens") name)

let check_goldens outputs =
  List.iter (fun (name, got) -> Alcotest.(check string) name (golden name) got) outputs

let test_fresh () = check_goldens (outputs ())
let test_paper () = check_goldens (paper_outputs ())
let test_artifacts () = check_goldens (artifact_outputs ())

(* Resuming from a complete golden journal: any recomputed cell would
   append a line, so an unchanged journal proves zero recomputation. *)
let test_resume () =
  List.iter
    (fun ((cmd, _) as sweep) ->
      let journal = temp ".jsonl" in
      copy_file (Filename.concat here ("goldens/" ^ cmd ^ ".jsonl")) journal;
      let stdout, csv, jsonl = run_cli sweep ~journal in
      Sys.remove journal;
      Alcotest.(check string) (cmd ^ " stdout") (golden (cmd ^ ".stdout")) stdout;
      Alcotest.(check string) (cmd ^ " csv") (golden (cmd ^ ".csv")) csv;
      Alcotest.(check string) (cmd ^ " journal") (golden (cmd ^ ".jsonl")) jsonl)
    cli_sweeps;
  let journal = temp ".jsonl" in
  copy_file (Filename.concat here "goldens/churn.jsonl") journal;
  let table, csv, jsonl = churn ~journal in
  Sys.remove journal;
  Alcotest.(check string) "churn table" (golden "churn.table") table;
  Alcotest.(check string) "churn csv" (golden "churn.csv") csv;
  Alcotest.(check string) "churn journal" (golden "churn.jsonl") jsonl

(* Bad artifact, sweep and runner flags are refused up front: converter
   errors exit 124 with cmdliner's usage hint; environment, selection
   and file errors exit 2 with one line on stderr.  [env] prefixes the
   command line.  Cmdliner wraps long messages, so the 124 check reads
   stderr with every whitespace run as one space. *)
let refuse ?(env = "") args ~code ~message () =
  let err = temp ".stderr" in
  let got =
    Sys.command
      (env ^ Filename.quote_command dhtlb ~stdout:Filename.null ~stderr:err args)
  in
  let stderr = read_file err in
  Sys.remove err;
  Alcotest.(check int) "exit code" code got;
  if code = 2 then Alcotest.(check string) "one-line message" (message ^ "\n") stderr
  else
    let words =
      String.concat " "
        (List.filter (( <> ) "")
           (String.split_on_char ' '
              (String.map (function '\n' | '\t' -> ' ' | c -> c) stderr)))
    in
    if not (String.starts_with ~prefix:("dhtlb: " ^ message) words) then
      Alcotest.failf "stderr %S lacks %S" stderr message

let refusals =
  let case name ?env args ~code ~message =
    Alcotest.test_case name `Quick (refuse ?env args ~code ~message)
  in
  let positive flag = Printf.sprintf "option '%s': expected a positive integer" flag in
  let timeout v =
    Printf.sprintf "option '--trial-timeout': expected finite seconds > 0, got %S" v
  in
  let unwritable flag path =
    Printf.sprintf "invalid %s: %s: cannot create a file in %s" flag path
      (Filename.dirname path)
  in
  [
    case "simulate --trials 0" [ "simulate"; "--trials"; "0" ] ~code:124
      ~message:(positive "--trials");
    case "sweep --trials 0" [ "degrade"; "--trials"; "0" ] ~code:124
      ~message:(positive "--trials");
    case "--domains 0" [ "simulate"; "--domains"; "0" ] ~code:124
      ~message:(positive "--domains");
    case "--trial-timeout 0" [ "attack-sweep"; "--trial-timeout"; "0" ] ~code:124
      ~message:(timeout "0");
    case "--trial-timeout -5" [ "steady-sweep"; "--trial-timeout=-5" ] ~code:124
      ~message:(timeout "-5");
    case "--trial-timeout nan" [ "simulate"; "--trial-timeout"; "nan" ] ~code:124
      ~message:(timeout "nan");
    case "unwritable --journal"
      [ "recovery-sweep"; "--journal"; "/nonexistent/dir/j.jsonl" ]
      ~code:2
      ~message:"invalid --journal: /nonexistent/dir/j.jsonl: No such file or directory";
    case "unwritable --csv"
      [ "recovery-sweep"; "--trials"; "1"; "--csv"; "/nonexistent/d.csv" ]
      ~code:2 ~message:(unwritable "--csv" "/nonexistent/d.csv");
    case "unwritable stream --csv" [ "stream"; "--csv"; "/nonexistent/s.csv" ]
      ~code:2 ~message:(unwritable "--csv" "/nonexistent/s.csv");
    case "unwritable --out"
      [ "simulate"; "--trials"; "1"; "--out"; "/nonexistent/r.json" ]
      ~code:2 ~message:(unwritable "--out" "/nonexistent/r.json");
    case "directory as --out" [ "stream"; "--out"; "." ] ~code:2
      ~message:"invalid --out: .: is a directory";
    case "unwritable --trace-csv"
      [ "simulate"; "--trials"; "1"; "--trace-csv"; "/nonexistent/t.csv" ]
      ~code:2 ~message:(unwritable "--trace-csv" "/nonexistent/t.csv");
    case "unwritable --trace-out"
      [ "simulate"; "--trials"; "1"; "--trace-out"; "csv:/nonexistent/t.csv" ]
      ~code:2 ~message:(unwritable "--trace-out" "/nonexistent/t.csv");
    case "unwritable --checkpoint"
      [ "simulate"; "--trials"; "1"; "--checkpoint"; "/nonexistent/c.ckpt" ]
      ~code:2 ~message:(unwritable "--checkpoint" "/nonexistent/c.ckpt");
    case "DHTLB_TRACE_OUT=bogus" ~env:"DHTLB_TRACE_OUT=bogus "
      [ "simulate"; "--trials"; "1"; "--nodes"; "20"; "--tasks"; "100" ]
      ~code:2
      ~message:
        "invalid DHTLB_TRACE_OUT: unknown trace sink \"bogus\" (expected memory, \
         null, ring:N, csv:PATH or jsonl:PATH)";
    case "DHTLB_TRACE_OUT=ring:0 sweep" ~env:"DHTLB_TRACE_OUT=ring:0 "
      [ "recovery-sweep"; "--trials"; "1" ]
      ~code:2
      ~message:"invalid DHTLB_TRACE_OUT: ring capacity must be a positive integer: \"ring:0\"";
    case "unwritable DHTLB_TRACE_OUT" ~env:"DHTLB_TRACE_OUT=csv:/nonexistent/x.csv "
      [ "simulate"; "--trials"; "1"; "--nodes"; "20"; "--tasks"; "100" ]
      ~code:2 ~message:(unwritable "DHTLB_TRACE_OUT" "/nonexistent/x.csv");
    case "unwritable DHTLB_TRACE_OUT sweep" ~env:"DHTLB_TRACE_OUT=jsonl:/nonexistent/x "
      [ "recovery-sweep"; "--trials"; "1" ]
      ~code:2 ~message:(unwritable "DHTLB_TRACE_OUT" "/nonexistent/x");
    case "directory as DHTLB_TRACE_OUT" ~env:"DHTLB_TRACE_OUT=csv:. "
      [ "recovery-sweep"; "--trials"; "1" ]
      ~code:2 ~message:"invalid DHTLB_TRACE_OUT: .: is a directory";
    case "DHTLB_DOMAINS=abc" ~env:"DHTLB_DOMAINS=abc " [ "head-to-head" ] ~code:2
      ~message:"DHTLB_DOMAINS must be a positive integer";
    case "DHTLB_DOMAINS=abc ablate" ~env:"DHTLB_DOMAINS=abc " [ "ablate"; "stagger" ]
      ~code:2 ~message:"DHTLB_DOMAINS must be a positive integer";
    case "DHTLB_DOMAINS=abc summary" ~env:"DHTLB_DOMAINS=abc " [ "summary"; "ri" ]
      ~code:2 ~message:"DHTLB_DOMAINS must be a positive integer";
    case "fig 1 --csv" [ "fig"; "1"; "--csv"; "fig1.csv" ] ~code:2
      ~message:"--csv: fig 1 writes no CSV";
    case "fig 0" [ "fig"; "0" ] ~code:2 ~message:"no Figure 0 (figures are 1-14)";
    case "fig 15" [ "fig"; "15" ] ~code:2 ~message:"no Figure 15 (figures are 1-14)";
    case "multi-trial --metrics" [ "simulate"; "--metrics" ] ~code:2
      ~message:"--metrics requires --trials 1";
    case "multi-trial --snapshot" [ "simulate"; "--trials"; "2"; "--snapshot"; "5" ] ~code:2
      ~message:"--snapshot requires --trials 1";
    case "multi-trial --trace-csv" [ "simulate"; "--trace-csv"; "trace.csv" ] ~code:2
      ~message:
        "--trace-csv requires --trials 1 (--trace-out csv:FILE writes one CSV per trial)";
    case "--checkpoint-every 0"
      [ "stream"; "--checkpoint-every"; "0" ]
      ~code:124 ~message:(positive "--checkpoint-every");
    case "--checkpoint-every without --checkpoint"
      [ "stream"; "--checkpoint-every"; "5" ]
      ~code:2 ~message:"--checkpoint-every requires --checkpoint FILE";
    case "--resume without --checkpoint" [ "stream"; "--resume" ] ~code:2
      ~message:"--resume requires --checkpoint FILE";
    case "ablate bogus" [ "ablate"; "bogus" ] ~code:124
      ~message:
        "WHICH argument: invalid value 'bogus', expected one of 'threshold', \
         'maxsybils', 'successors', 'churn-ri', 'median-split', 'avoid-repeats', \
         'rejoin-id', 'strength-aware', 'clustered', 'stagger', 'static-vnodes' \
         or 'failure-churn'";
  ]

(* DHTLB_TRACE_OUT's file sink gives each trial its own file, as
   --trace-out does: env.csv becomes env.0.csv ... env.2.csv, byte for
   byte the same as flag.0.csv ... flag.2.csv, and nothing else. *)
let test_env_trace () =
  let dir = temp ".traces" in
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir in
  let run env extra =
    let args = [ "simulate"; "--trials"; "3"; "--domains"; "2"; "--nodes"; "20"; "--tasks"; "100" ] in
    let code =
      Sys.command
        (env ^ Filename.quote_command dhtlb ~stdout:Filename.null (args @ extra))
    in
    Alcotest.(check int) "exit code" 0 code
  in
  run ("DHTLB_TRACE_OUT=" ^ Filename.quote ("csv:" ^ path "env.csv") ^ " ") [];
  run "" [ "--trace-out"; "csv:" ^ path "flag.csv" ];
  List.iter
    (fun i ->
      let file stem = path (Printf.sprintf "%s.%d.csv" stem i) in
      Alcotest.(check string)
        (Printf.sprintf "trial %d" i)
        (read_file (file "flag")) (read_file (file "env"));
      Sys.remove (file "flag");
      Sys.remove (file "env"))
    [ 0; 1; 2 ];
  Alcotest.(check (array string)) "no other file" [||] (Sys.readdir dir);
  Sys.rmdir dir

(* An artifact's numbers must not depend on a variable meant only to
   bound trace memory: timeline reads every trace point of its runs, so
   under a null or a five-point ring sink it still prints its golden. *)
let test_timeline_keeps_points () =
  List.iter
    (fun sink ->
      Alcotest.(check string) ("DHTLB_TRACE_OUT=" ^ sink) (golden "timeline.stdout")
        (run_stdout ~env:("DHTLB_TRACE_OUT=" ^ sink ^ " ") [ "timeline"; "--seed"; "11" ]))
    [ "null"; "ring:5" ]

let () =
  match Sys.argv with
  | [| _; "regen"; dir |] ->
    List.iter
      (fun (name, s) -> write_file (Filename.concat dir name) s)
      (outputs () @ paper_outputs () @ artifact_outputs ())
  | _ ->
    Alcotest.run "sweeps"
      [
        ( "goldens",
          [
            Alcotest.test_case "fresh run" `Quick test_fresh;
            Alcotest.test_case "resume from journal" `Quick test_resume;
            Alcotest.test_case "paper result tables" `Slow test_paper;
            Alcotest.test_case "artifact outputs" `Slow test_artifacts;
          ] );
        ("refusals", refusals);
        ( "trace sink",
          [
            Alcotest.test_case "DHTLB_TRACE_OUT file per trial" `Quick test_env_trace;
            Alcotest.test_case "timeline ignores DHTLB_TRACE_OUT" `Quick
              test_timeline_keeps_points;
          ] );
      ]
