(* ledger.exe — the performance ledger.  See README.md.

     run      [--seed S] [--reps R] [--out FILE] [--trace-out DIR]
     bench    --workload W --seed S --seconds T --trace 0|1
     compare  A.json B.json
     smoke

   Every timed repetition runs in a fresh child process of this
   executable ([rep]), one at a time, so the benchmark is a single load
   process with one domain. *)

let usage =
  "usage: ledger.exe (run [--seed S] [--reps R] [--out FILE] [--trace-out DIR] \
   | bench --workload W --seed S --seconds T --trace 0|1 | compare A.json B.json \
   | smoke)"

(* Every refusal is one line on stderr and exit status 2. *)
let refuse fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("ledger: " ^ s);
      exit 2)
    fmt

(* ---- command line ---------------------------------------------------- *)

let parse_flags ~allowed args =
  let rec go acc = function
    | [] -> acc
    | flag :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" -> (
      let key = String.sub flag 2 (String.length flag - 2) in
      if not (List.mem key allowed) then
        refuse "unknown flag %s (valid: %s)" flag
          (String.concat ", " (List.map (( ^ ) "--") allowed));
      match rest with
      | value :: rest -> go ((key, value) :: acc) rest
      | [] -> refuse "flag %s needs a value" flag)
    | arg :: _ -> refuse "unexpected argument %S; %s" arg usage
  in
  go [] args

let int_flag ?(min = min_int) flags key ~default =
  match List.assoc_opt key flags with
  | None -> (
    match default with Some d -> d | None -> refuse "--%s is required" key)
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n >= min -> n
    | _ when min = min_int -> refuse "--%s must be an integer, got %S" key s
    | _ -> refuse "--%s must be an integer >= %d, got %S" key min s)

let workload_flag flags =
  match List.assoc_opt "workload" flags with
  | None -> refuse "--workload is required (valid: %s)" (String.concat ", " Workload.names)
  | Some name -> (
    match Workload.find name with
    | Some w -> w
    | None ->
      refuse "unknown workload %S (valid: %s)" name (String.concat ", " Workload.names))

(* Each of these changes the program being timed: per-tick invariant
   checks, per-phase metrics, or a trace sink. *)
let guard_env () =
  List.iter
    (fun var ->
      if Sys.getenv_opt var <> None then
        refuse "%s is set; it changes the timed program, unset it to measure" var)
    [ "DHTLB_CHECK"; "DHTLB_METRICS"; "DHTLB_TRACE_OUT" ]

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, rev when rev <> "" -> rev
    | _ -> "unknown"
  with Unix.Unix_error _ -> "unknown"

let stamp ?(git = true) () =
  [
    ("git_rev", Json_out.String (if git then git_rev () else "unread"));
    ("ocaml_version", Json_out.String Sys.ocaml_version);
    ("nproc", Json_out.Int (Domain.recommended_domain_count ()));
    ("dune_profile", Json_out.String Build_info.profile);
  ]

(* ---- child repetitions ----------------------------------------------- *)

(* The child's own deadline: a hung repetition dies by SIGALRM and
   counts as failed instead of blocking the parent.  The slowest
   untraced repetition (batch-scale) takes under 10 s and the traced
   one, three simulations, under 30 s.  A [bench] run that starts an
   untraced one at its last moment, or runs the traced one and the
   substrate table, must still end within 180 s. *)
let rep_main args =
  let flags = parse_flags ~allowed:[ "mode"; "workload"; "seed"; "scale"; "trace-out" ] args in
  let seed () = int_flag flags "seed" ~default:None in
  let scale = int_flag flags "scale" ~default:(Some 1) ~min:1 in
  let deadline_s, run =
    match List.assoc_opt "mode" flags with
    | Some "untraced" -> (55, fun () -> Rep.untraced ~scale ~seed:(seed ()) (workload_flag flags))
    | Some "traced" ->
      ( 100,
        fun () ->
          Rep.traced ?trace_out:(List.assoc_opt "trace-out" flags) ~scale ~seed:(seed ())
            (workload_flag flags) )
    | Some "substrates" -> (60, Rep.substrates)
    | _ -> refuse "rep: --mode must be untraced, traced or substrates"
  in
  ignore (Unix.alarm deadline_s);
  let json = run () in
  print_endline (Json_out.to_string json)

let spawn args =
  let exe = Sys.executable_name in
  match Unix.open_process_args_in exe (Array.of_list (exe :: "rep" :: args)) with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | ic -> (
    let rec last acc = match input_line ic with l -> last (Some l) | exception End_of_file -> acc in
    let line = last None in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, Some l -> (
      match Json_in.parse l with
      | Ok j -> Ok j
      | Error e -> Error ("unreadable child output: " ^ Json_in.error_to_string e))
    | Unix.WEXITED 0, None -> Error "child printed nothing"
    | Unix.WEXITED n, _ -> Error (Printf.sprintf "child exited %d" n)
    | (Unix.WSIGNALED n | Unix.WSTOPPED n), _ ->
      Error (Printf.sprintf "child killed by signal %d" n))

(* The metrics of a repetition that passed. *)
type rep = Metric.t list

(* A repetition passes when every simulation it ran finished, left a
   final state that keeps the library's invariants, and reproduced the
   expected digest: the seed's golden if one is committed, else the
   first sibling's.  A traced run that disagrees makes the per-layer
   block stale. *)
let check_run ~expected run =
  let str k = Option.bind (Json_in.member k run) Json_in.to_string in
  let digest = Option.value ~default:"" (str "digest") in
  match (str "outcome", str "violation") with
  | Some "finished", None -> (
    match !expected with
    | Some d when not (String.equal d digest) ->
      let msg = Printf.sprintf "digest %s <> expected %s" digest d in
      Error (if Option.bind (Json_in.member "traced" run) Json_in.to_bool = Some true
             then `Stale msg else `Mismatch msg)
    | _ ->
      expected := Some digest;
      Ok ())
  | Some "finished", Some e -> Error (`Failed ("invariant violated: " ^ e))
  | outcome, _ -> Error (`Failed ("outcome " ^ Option.value ~default:"?" outcome))

let check_rep ~expected json =
  match Option.bind (Json_in.member "runs" json) Json_in.to_list with
  | None | Some [] -> Error (`Failed "child reported no runs")
  | Some runs ->
    List.fold_left (fun acc run -> Result.bind acc (fun () -> check_run ~expected run)) (Ok ()) runs
    |> Result.map (fun () ->
           Metric.list_of_json (Option.value ~default:Json_out.Null (Json_in.member "metrics" json)))

(* ---- one workload ---------------------------------------------------- *)

type block = {
  workload : Workload.t;
  attempted : int;
  failures : string list;
  golden : string option;
  digest : string option;
  untraced : rep list;  (** passing untraced repetitions *)
  traced : rep option;  (** the passing traced repetition *)
  stale : bool;
}

let value_of (r : rep) name =
  Option.bind (Metric.find r name) (fun m -> m.Metric.value)

let samples reps name = List.filter_map (fun r -> value_of r name) reps

let median xs = Descriptive.median (Array.of_list xs)

(* [more n] decides whether to start untraced repetition [n + 1]. *)
let measure ~scale ~seed ~more ~traced ?trace_dir (w : Workload.t) =
  let golden = if scale = 1 then Goldens.find ~workload:w.Workload.name ~seed else None in
  let expected = ref golden in
  let attempted = ref 0 and failures = ref [] in
  let attempt mode extra =
    incr attempted;
    let args =
      [ "--mode"; mode; "--workload"; w.Workload.name; "--seed"; string_of_int seed;
        "--scale"; string_of_int scale ]
      @ extra
    in
    let r =
      Result.bind
        (Result.map_error (fun e -> `Failed e) (spawn args))
        (check_rep ~expected)
    in
    (match r with
    | Ok _ -> ()
    | Error (`Failed e | `Mismatch e | `Stale e) ->
      failures := Printf.sprintf "%s rep %d: %s" mode !attempted e :: !failures);
    r
  in
  let untraced_rep acc =
    match attempt "untraced" [] with Ok r -> r :: acc | Error _ -> acc
  in
  let rec untraced acc n = if more n then untraced (untraced_rep acc) (n + 1) else acc in
  let traced, stale =
    if not traced then (None, false)
    else
      let extra =
        match trace_dir with
        | Some dir -> [ "--trace-out"; Filename.concat dir (w.Workload.name ^ ".spans.jsonl") ]
        | None -> []
      in
      match attempt "traced" extra with
      | Ok r -> (Some r, false)
      | Error (`Stale _) -> (None, true)
      | Error (`Failed _ | `Mismatch _) -> (None, false)
  in
  let untraced = List.rev (untraced [] 0) in
  {
    workload = w;
    attempted = !attempted;
    failures = List.rev !failures;
    golden;
    digest = !expected;
    untraced;
    traced;
    stale;
  }

let end_to_end = [ "keys_per_s"; "setup_s"; "peak_heap_mb" ]

let unit_of reps name =
  match List.find_map (fun r -> Metric.find r name) reps with
  | Some m -> m.Metric.unit
  | None -> ""

(* The per-layer block: the traced repetition's step times, ratios,
   tracing overhead, exact counts and GC deltas. *)
let per_layer b = Option.value ~default:[] b.traced

(* ---- run --------------------------------------------------------------- *)

let fmt_value = function
  | None -> "null"
  | Some x when Float.is_integer x && Float.abs x < 1e15 -> Printf.sprintf "%.0f" x
  | Some x -> Printf.sprintf "%.6g" x

(* Median, extremes and quartiles of a sample ([] when it is empty).
   The quartile distance is the spread [compare] judges: with a handful
   of repetitions on a shared host, one slow outlier sets the min-max
   range on its own. *)
let summary = function
  | [] -> []
  | xs ->
    let a = Array.of_list xs in
    [
      ("median", Descriptive.median a);
      ("min", Array.fold_left Float.min Float.infinity a);
      ("max", Array.fold_left Float.max Float.neg_infinity a);
      ("p25", Descriptive.percentile a 25.0);
      ("p75", Descriptive.percentile a 75.0);
    ]

let block_json ~reps b =
  let n_failed = List.length b.failures in
  let e2e name =
    let xs = samples b.untraced name in
    ( name,
      Json_out.Obj
        ([ ("unit", Json_out.String (unit_of b.untraced name)); ("n", Json_out.Int (List.length xs)) ]
        @ List.map (fun (k, v) -> (k, Json_out.Float v)) (summary xs)
        @ [
            ("samples", Json_out.List (List.map (fun x -> Json_out.Float x) xs));
            ( "p90",
              match Rep.tail_percentile (Array.of_list xs) 90.0 with
              | Some x -> Json_out.Float x
              | None -> Json_out.String "none: fewer than ten samples beyond it" );
          ]) )
  in
  Json_out.Obj
    [
      ("name", Json_out.String b.workload.Workload.name);
      ("cli", Json_out.String (Workload.cli b.workload));
      ("why", Json_out.String b.workload.Workload.why);
      ("reps", Json_out.Int reps);
      ("attempted", Json_out.Int b.attempted);
      ("failed", Json_out.Int n_failed);
      ("failures", Json_out.List (List.map (fun s -> Json_out.String s) b.failures));
      ("digest", match b.digest with Some d -> Json_out.String d | None -> Json_out.Null);
      ("golden", match b.golden with Some d -> Json_out.String d | None -> Json_out.Null);
      ( "end_to_end",
        Json_out.Obj
          (List.map e2e end_to_end
          @ [
              ( "failed_frac",
                Json_out.Obj
                  [
                    ("unit", Json_out.String "fraction");
                    ("value", Json_out.Float (float_of_int n_failed /. float_of_int b.attempted));
                  ] );
            ]) );
      ("stale", Json_out.Bool b.stale);
      ("per_layer", Metric.list_to_json (per_layer b));
    ]

let print_block b =
  Printf.printf "\n== %s  (%s)\n" b.workload.Workload.name (Workload.cli b.workload);
  Printf.printf "   digest %s  golden %s  failed %d/%d%s\n"
    (Option.value ~default:"-" b.digest)
    (match b.golden with None -> "none" | Some _ -> "committed")
    (List.length b.failures) b.attempted
    (if b.stale then "  PER-LAYER BLOCK STALE" else "");
  List.iter (Printf.printf "   FAILED %s\n") b.failures;
  List.iter
    (fun name ->
      match samples b.untraced name with
      | [] -> ()
      | xs ->
        Printf.printf "   %-13s n=%d%s  p90 %s  %s\n" name (List.length xs)
          (String.concat ""
             (List.map (fun (k, v) -> Printf.sprintf "  %s %s" k (fmt_value (Some v))) (summary xs)))
          (match Rep.tail_percentile (Array.of_list xs) 90.0 with
          | Some x -> fmt_value (Some x)
          | None -> "n/a (fewer than ten samples beyond it)")
          (unit_of b.untraced name))
    end_to_end;
  Printf.printf "   %-13s %g fraction\n" "failed_frac"
    (float_of_int (List.length b.failures) /. float_of_int b.attempted);
  List.iter
    (fun (m : Metric.t) ->
      Printf.printf "   %-36s %14s %s%s\n" m.name (fmt_value m.value) m.unit
        (match m.base with Some base -> "  (base " ^ base ^ ")" | None -> ""))
    (per_layer b)

let substrate_block () =
  match spawn [ "--mode"; "substrates" ] with
  | Ok (Json_out.Obj rows as j) ->
    Printf.printf "\n== substrates (Bechamel OLS)\n";
    List.iter
      (fun (name, row) ->
        let num k = Option.bind (Json_in.member k row) Json_in.to_float in
        Printf.printf "   %-36s %12.1f ns  r2 %.4f\n" name
          (Option.value ~default:nan (num "value"))
          (Option.value ~default:nan (num "r2")))
      rows;
    Ok j
  | Ok _ -> Error "substrates: unexpected child output"
  | Error e -> Error ("substrates: " ^ e)

let run_main args =
  guard_env ();
  let flags = parse_flags ~allowed:[ "seed"; "reps"; "out"; "trace-out" ] args in
  let seed = int_flag flags "seed" ~default:(Some 42) in
  let reps = int_flag flags "reps" ~default:(Some 3) ~min:1 in
  let out = Option.value ~default:"ledger.json" (List.assoc_opt "out" flags) in
  let trace_dir = List.assoc_opt "trace-out" flags in
  let is_dir d = Sys.file_exists d && Sys.is_directory d in
  if not (is_dir (Filename.dirname out)) then refuse "--out %s: no such directory" out;
  Option.iter (fun d -> if not (is_dir d) then refuse "--trace-out %s is not a directory" d) trace_dir;
  let stamp = stamp () in
  Printf.printf "ledger run: seed %d, %d reps + 1 traced per workload; %s\n%!" seed reps
    (Json_out.to_string (Json_out.Obj stamp));
  let blocks =
    List.map
      (fun w ->
        let b = measure ~scale:1 ~seed ~more:(fun n -> n < reps) ~traced:true ?trace_dir w in
        print_block b;
        flush stdout;
        b)
      Workload.all
  in
  let substrates = substrate_block () in
  let ok =
    List.for_all (fun b -> b.failures = []) blocks && Result.is_ok substrates
  in
  (match substrates with Error e -> Printf.printf "   FAILED %s\n" e | Ok _ -> ());
  let json =
    Json_out.Obj
      [
        ("schema", Json_out.String "dhtlb-ledger/1");
        ("stamp", Json_out.Obj stamp);
        ("seed", Json_out.Int seed);
        ("reps", Json_out.Int reps);
        ("ok", Json_out.Bool ok);
        ("workloads", Json_out.List (List.map (block_json ~reps) blocks));
        ("substrates", match substrates with Ok j -> j | Error e -> Json_out.String e);
      ]
  in
  Atomic_write.write out (Json_out.to_string ~pretty:true json ^ "\n");
  Printf.printf "\nwrote %s%s\n" out (if ok then "" else " (FAILURES above)");
  exit (if ok then 0 else 1)

(* ---- bench: one workload, in the BENCHMARK.json result format ------- *)

(* Never fewer than three untraced repetitions (a median), never start a
   new one past this many seconds, whatever [--seconds] asks. *)
let min_reps = 3
let last_start_s = 120.0

let bench_main args =
  guard_env ();
  let flags = parse_flags ~allowed:[ "workload"; "seed"; "seconds"; "trace" ] args in
  let w = workload_flag flags in
  let seed = int_flag flags "seed" ~default:None in
  let seconds = float_of_int (int_flag flags "seconds" ~default:None ~min:1) in
  let trace =
    match List.assoc_opt "trace" flags with
    | Some "0" -> false
    | Some "1" -> true
    | _ -> refuse "--trace must be 0 or 1"
  in
  prerr_endline (Json_out.to_string (Json_out.Obj (stamp ~git:false ())));
  let t0 = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. t0 in
  (* With --trace 1 the traced repetition alone runs, with its own two
     untraced simulations. *)
  let more n =
    (not trace) && (n < min_reps || (elapsed () < seconds && elapsed () < last_start_s))
  in
  let b = measure ~scale:1 ~seed ~more ~traced:trace w in
  if b.golden = None then
    prerr_endline
      (Printf.sprintf
         "ledger: no committed golden for %s at seed %d; checked against the library \
          invariants and sibling digests only"
         w.Workload.name seed);
  let substrates, substrate_failure =
    if not trace then ([], [])
    else
      match substrate_block () with
      | Ok j -> (Metric.list_of_json j, [])
      | Error e -> ([], [ e ])
  in
  let failures = b.failures @ substrate_failure in
  let metrics =
    if trace then
      (* p90 is undefined below 100 ticks (batch-scale has 36), so it is
         not one of the benchmark's per-layer metrics. *)
      List.filter (fun m -> m.Metric.name <> "engine.tick_ms_p90") (per_layer b) @ substrates
    else
      List.filter_map
        (fun name ->
          match samples b.untraced name with
          | [] -> None
          | xs -> Some (Metric.v name (unit_of b.untraced name) (median xs)))
        end_to_end
  in
  List.iter (fun f -> prerr_endline ("ledger: FAILED " ^ f)) failures;
  let json =
    Json_out.Obj
      [
        ("correct", Json_out.Bool (failures = []));
        ("attempted", Json_out.Int (b.attempted + if trace then 1 else 0));
        ("failed", Json_out.Int (List.length failures));
        ( "metrics",
          Json_out.Obj
            (List.filter_map
               (fun (m : Metric.t) ->
                 Option.map
                   (fun v ->
                     (m.name, Json_out.Obj [ ("value", Json_out.Float v); ("unit", Json_out.String m.unit) ]))
                   m.value)
               metrics) );
      ]
  in
  print_endline (Json_out.to_string json);
  exit (if failures = [] then 0 else 1)

(* ---- compare --------------------------------------------------------- *)

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> refuse "cannot read %s" e
  | s -> (
    match Json_in.parse s with
    | Ok j -> j
    | Error e -> refuse "%s is not JSON: %s" path (Json_in.error_to_string e))

let compare_main args =
  let a_path, b_path =
    match args with [ a; b ] -> (a, b) | _ -> refuse "compare needs two ledger JSON files; %s" usage
  in
  let spec = read_json "BENCHMARK.json" in
  let metrics =
    match Option.bind (Json_in.member "end_to_end" spec) Json_in.to_list with
    | Some l ->
      List.filter_map
        (fun m ->
          let str k = Option.bind (Json_in.member k m) Json_in.to_string in
          match (str "name", str "better", Option.bind (Json_in.member "bound" m) Json_in.to_float) with
          | Some n, Some better, Some bound -> Some (n, better = "higher", bound)
          | _ -> None)
        l
    | None -> refuse "BENCHMARK.json has no end_to_end list"
  in
  let a = read_json a_path and b = read_json b_path in
  let workloads j =
    Option.value ~default:[] (Option.bind (Json_in.member "workloads" j) Json_in.to_list)
  in
  let find_workload j name =
    List.find_opt
      (fun w -> Option.bind (Json_in.member "name" w) Json_in.to_string = Some name)
      (workloads j)
  in
  let stat w metric key =
    Option.bind
      (Option.bind (Json_in.member "end_to_end" w) (Json_in.member metric))
      (fun m -> Option.bind (Json_in.member key m) Json_in.to_float)
  in
  let show_stamp label j =
    Printf.printf "%s: %s\n" label
      (Json_out.to_string (Option.value ~default:Json_out.Null (Json_in.member "stamp" j)))
  in
  show_stamp "A" a;
  show_stamp "B" b;
  Printf.printf "%-17s %-13s %12s %7s %12s %7s %6s  %s\n" "workload" "metric" "A median"
    "A iqr" "B median" "B iqr" "bound" "verdict";
  let bad = ref 0 in
  List.iter
    (fun wa ->
      let name = Option.value ~default:"?" (Option.bind (Json_in.member "name" wa) Json_in.to_string) in
      match find_workload b name with
      | None ->
        incr bad;
        Printf.printf "%-17s missing from B\n" name
      | Some wb ->
        List.iter
          (fun (metric, higher, bound) ->
            let side w =
              match (stat w metric "median", stat w metric "p25", stat w metric "p75") with
              | Some med, Some lo, Some hi -> Some (med, (hi -. lo) /. med)
              | _ -> None
            in
            match (side wa, side wb) with
            | Some (ma, sa), Some (mb, sb) ->
              let worse = (if higher then ma -. mb else mb -. ma) /. ma in
              let verdict =
                if sa > bound || sb > bound then "unresolved"
                else if worse > bound then "regressed"
                else "ok"
              in
              if verdict <> "ok" then incr bad;
              Printf.printf "%-17s %-13s %12.6g %6.1f%% %12.6g %6.1f%% %5.0f%%  %s\n" name metric
                ma (100. *. sa) mb (100. *. sb) (100. *. bound) verdict
            | _ ->
              incr bad;
              Printf.printf "%-17s %-13s missing\n" name metric)
          metrics;
        let ff w = Option.value ~default:nan (stat w "failed_frac" "value") in
        let fa = ff wa and fb = ff wb in
        let verdict = if fb > fa || Float.is_nan fb then "regressed" else "ok" in
        if verdict <> "ok" then incr bad;
        Printf.printf "%-17s %-13s %12g %7s %12g %7s %6s  %s\n" name "failed_frac" fa "" fb ""
          "0" verdict)
    (workloads a);
  exit (if !bad = 0 then 0 else 1)

(* ---- smoke ----------------------------------------------------------- *)

(* Every workload at 1/100 size: two untraced repetitions and the traced
   loop must agree on the digest, finish and conserve every task.  Not
   timed, so the instrumentation switches are allowed here. *)
let smoke_main args =
  ignore (parse_flags ~allowed:[] args);
  let failed =
    List.fold_left
      (fun failed w ->
        let b = measure ~scale:100 ~seed:42 ~more:(fun n -> n < 2) ~traced:true w in
        Printf.printf "smoke %-17s digest %s  %d/%d ok\n%!" w.Workload.name
          (Option.value ~default:"-" b.digest)
          (b.attempted - List.length b.failures)
          b.attempted;
        List.iter (Printf.printf "  FAILED %s\n%!") b.failures;
        failed + List.length b.failures)
      0 Workload.all
  in
  if failed > 0 then begin
    Printf.printf "ledger smoke: %d failed repetitions\n" failed;
    exit 1
  end

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "rep" :: args -> rep_main args
  | "run" :: args -> run_main args
  | "bench" :: args -> bench_main args
  | "compare" :: args -> compare_main args
  | "smoke" :: args -> smoke_main args
  | _ -> refuse "%s" usage
