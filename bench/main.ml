(* Regenerates every table and figure of the paper plus the ablations
   and extensions: the entries of Artifacts.all that have a bench
   section, section by section.  Performance is measured by the ledger
   in bench/ledger, not here.

   Environment:
     DHTLB_SCALE=full   paper scale (100 trials); default is quick scale
     DHTLB_TRIALS=n     explicit trial count
     DHTLB_SEED=n       base seed
     DHTLB_DOMAINS=n    trials on n OCaml domains
     DHTLB_ONLY=a,b     run only the named sections (see
                        [Artifacts.sections])
     DHTLB_TRACE_OUT=s  trace sink of every run ([Trace.sink_of_string])
   A bad value or an unknown section is refused with exit 2 and one line
   on stderr before any work. *)

let refuse message =
  prerr_endline message;
  exit 2

let trials, seed =
  match (Scale.trials (), Scale.seed (), Scale.domains (), Trace.sink_of_env ()) with
  | trials, seed, _, _ -> (trials, seed)
  | exception Invalid_argument e -> refuse e

(* One section: each entry's header, text and trailer, with a blank
   line between entries. *)
let section (name, entries) =
  Printf.printf "==== %s ====\n%!" name;
  let t0 = Unix.gettimeofday () in
  List.iteri
    (fun i ((b : Artifacts.bench), e) ->
      if i > 0 then print_newline ();
      let trials = Option.fold ~none:trials ~some:(min trials) b.max_trials in
      print_string b.header;
      print_string (Artifacts.run e ~trials ~seed).Artifacts.text;
      print_string b.trailer)
    entries;
  Printf.printf "---- (%s: %.1fs)\n\n%!" name (Unix.gettimeofday () -. t0)

let () =
  let sections = Artifacts.sections in
  let wanted =
    match Sys.getenv_opt "DHTLB_ONLY" with
    | None | Some "" -> sections
    | Some s ->
      let names = String.split_on_char ',' (String.lowercase_ascii s) in
      (match List.filter (fun n -> not (List.mem_assoc n sections)) names with
      | [] -> ()
      | unknown ->
        refuse
          (Printf.sprintf "DHTLB_ONLY: unknown section(s) %s (valid: %s)"
             (String.concat ", " (List.map (Printf.sprintf "%S") unknown))
             (String.concat " " (List.map fst sections))));
      List.filter (fun (name, _) -> List.mem name names) sections
  in
  Printf.printf "dhtlb benchmark harness (%s)\n\n%!" (Scale.describe ());
  List.iter section wanted
