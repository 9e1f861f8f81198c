(* Byte-exact goldens for every sweep, and the CLI's refusal of bad
   sweep and runner flags.

   The five CLI sweeps run through the real binary at one trial, seed 11,
   with --csv, --journal and (where offered) --json; stdout, the CSV file
   and the journal file must match test/goldens byte for byte.  Table II's
   churn sweep is too heavy at its default grid, so it is pinned at
   library level on a reduced grid: table, CSV and journal.  Feeding each
   golden journal back must recompute nothing: the journal stays
   byte-identical and the output still matches.

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

(* Runs one sweep against [journal] (created when missing); returns
   stdout, the CSV and the journal as written. *)
let run_cli (cmd, extra) ~journal =
  let out = temp ".stdout" and csv = temp ".csv" in
  let code =
    Sys.command
      (Filename.quote_command dhtlb ~stdout:out ~stderr:Filename.null
         ([ cmd; "--trials"; "1"; "--seed"; "11"; "--csv"; csv; "--journal";
            journal ]
         @ extra))
  in
  if code <> 0 then Alcotest.failf "%s exited %d" cmd code;
  let r = (read_file out, read_file csv, read_file journal) in
  List.iter Sys.remove [ out; csv ];
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

let golden name = read_file (Filename.concat (Filename.concat here "goldens") name)

let test_fresh () =
  List.iter
    (fun (name, got) -> Alcotest.(check string) name (golden name) got)
    (outputs ())

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

(* Bad sweep and runner flags are refused up front: converter errors
   exit 124 with cmdliner's usage hint, environment and file errors exit
   2 with one line on stderr.  [env] prefixes the command line. *)
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
  else if not (String.starts_with ~prefix:("dhtlb: " ^ message) stderr) then
    Alcotest.failf "stderr %S lacks %S" stderr message

let refusals =
  let case name ?env args ~code ~message =
    Alcotest.test_case name `Quick (refuse ?env args ~code ~message)
  in
  let positive flag = Printf.sprintf "option '%s': expected a positive integer" flag in
  let timeout v =
    Printf.sprintf "option '--trial-timeout': expected finite seconds > 0, got %S" v
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
    case "DHTLB_DOMAINS=abc" ~env:"DHTLB_DOMAINS=abc " [ "head-to-head" ] ~code:2
      ~message:"DHTLB_DOMAINS must be a positive integer";
    case "multi-trial --metrics" [ "simulate"; "--metrics" ] ~code:2
      ~message:"--metrics requires --trials 1";
    case "multi-trial --snapshot" [ "simulate"; "--trials"; "2"; "--snapshot"; "5" ] ~code:2
      ~message:"--snapshot requires --trials 1";
    case "multi-trial --trace-csv" [ "simulate"; "--trace-csv"; "trace.csv" ] ~code:2
      ~message:
        "--trace-csv requires --trials 1 (--trace-out csv:FILE writes one CSV per trial)";
  ]

let () =
  match Sys.argv with
  | [| _; "regen"; dir |] ->
    List.iter
      (fun (name, s) -> write_file (Filename.concat dir name) s)
      (outputs ())
  | _ ->
    Alcotest.run "sweeps"
      [
        ( "goldens",
          [
            Alcotest.test_case "fresh run" `Quick test_fresh;
            Alcotest.test_case "resume from journal" `Quick test_resume;
          ] );
        ("refusals", refusals);
      ]
