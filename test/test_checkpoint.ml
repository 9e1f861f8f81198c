(* Checkpoint/resume: the bit-for-bit contract.

   The qcheck property drives the full feature matrix — every strategy,
   churn, faults, crash bursts, live replication, an adversarial attack
   window and open-system arrivals — checkpoints at a random tick, and
   demands the resumed run equal the uninterrupted one field by field.
   The save happens *inside* the engine's hook: the hook's progress
   references the live mutating state, so the file round-trip is what
   provides the deep copy, exactly as a real kill-and-resume would. *)

(* ---- plans: one random simulation configuration ------------------- *)

type plan = {
  pl_strategy : Strategy.t;
  pl_nodes : int;
  pl_tasks : int;
  pl_churn : float;
  pl_drop : float;
  pl_repl_drop : float;  (* enrolment drops leave vnodes dirty across a save *)
  pl_crash : bool;
  pl_replicas : int;
  pl_attack : bool;
  pl_arrivals : bool;
  pl_seed : int;
  pl_every : int;  (* checkpoint_every: which tick gets the snapshot *)
}

let params_of_plan pl =
  let base = Params.default ~nodes:pl.pl_nodes ~tasks:pl.pl_tasks in
  let faults =
    {
      Faults.none with
      Faults.drop = pl.pl_drop;
      repl_drop = pl.pl_repl_drop;
      crash_bursts =
        (if pl.pl_crash then [ { Faults.at = 4; count = 2 } ] else []);
    }
  in
  let arrivals =
    if pl.pl_arrivals then
      {
        Arrivals.none with
        Arrivals.profile = Some (Arrivals.Poisson { rate = 3.0 });
        horizon = 40;
        window = 8;
      }
    else Arrivals.none
  in
  let attack =
    if pl.pl_attack then
      {
        Attack.none with
        Attack.strength = 2;
        machines = 2;
        window = Some (2, 10);
      }
    else Attack.none
  in
  Strategy.default_params pl.pl_strategy
    {
      base with
      Params.churn_rate = pl.pl_churn;
      sybil_threshold = 1;
      seed = pl.pl_seed;
      faults;
      arrivals;
      attack;
      replicas = pl.pl_replicas;
    }

let print_plan pl =
  Printf.sprintf
    "{strategy=%s nodes=%d tasks=%d churn=%g drop=%g repl_drop=%g crash=%b \
     replicas=%d attack=%b arrivals=%b seed=%d every=%d}"
    (Strategy.name pl.pl_strategy)
    pl.pl_nodes pl.pl_tasks pl.pl_churn pl.pl_drop pl.pl_repl_drop pl.pl_crash
    pl.pl_replicas pl.pl_attack pl.pl_arrivals pl.pl_seed pl.pl_every

let gen_plan =
  QCheck.Gen.(
    let* pl_strategy = oneofl Strategy.all in
    let* pl_nodes = int_range 6 24 in
    let* pl_tasks = int_range 40 240 in
    let* pl_churn = oneofl [ 0.0; 0.01; 0.05 ] in
    let* pl_drop = oneofl [ 0.0; 0.2 ] in
    let* pl_repl_drop = oneofl [ 0.0; 0.3 ] in
    let* pl_crash = bool in
    let* pl_replicas = oneofl [ 0; 2 ] in
    let* pl_attack = bool in
    let* pl_arrivals = bool in
    let* pl_seed = int_range 0 10_000 in
    let* pl_every = int_range 1 20 in
    return
      {
        pl_strategy;
        pl_nodes;
        pl_tasks;
        pl_churn;
        pl_drop;
        pl_repl_drop;
        pl_crash;
        pl_replicas;
        pl_attack;
        pl_arrivals;
        pl_seed;
        pl_every;
      })

let arb_plan = QCheck.make ~print:print_plan gen_plan

(* ---- field-by-field result equality ------------------------------- *)

let float_bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* [compare] (not [=]) for the float-bearing structures: steady windows
   legitimately carry NaN percentiles, and [compare nan nan = 0]. *)
let check_results ctx (a : Engine.result) (b : Engine.result) =
  let fail what =
    QCheck.Test.fail_reportf "%s: %s differs between runs" ctx what
  in
  if a.Engine.outcome <> b.Engine.outcome then fail "outcome";
  if a.Engine.ideal <> b.Engine.ideal then fail "ideal";
  if not (float_bits_equal a.Engine.factor b.Engine.factor) then fail "factor";
  if not (float_bits_equal a.Engine.work_per_tick b.Engine.work_per_tick) then
    fail "work_per_tick";
  if compare a.Engine.messages b.Engine.messages <> 0 then fail "messages";
  if a.Engine.final_vnodes <> b.Engine.final_vnodes then fail "final_vnodes";
  if a.Engine.final_active <> b.Engine.final_active then fail "final_active";
  if a.Engine.arrived_total <> b.Engine.arrived_total then fail "arrived_total";
  if compare a.Engine.sojourn_ledger b.Engine.sojourn_ledger <> 0 then
    fail "sojourn_ledger";
  if compare a.Engine.steady b.Engine.steady <> 0 then fail "steady windows";
  if Trace.recorded a.Engine.trace <> Trace.recorded b.Engine.trace then
    fail "trace recorded count";
  if
    not
      (float_bits_equal
         (Trace.work_per_tick_mean a.Engine.trace)
         (Trace.work_per_tick_mean b.Engine.trace))
  then fail "trace work_per_tick_mean"

let with_temp_file suffix f =
  let path = Filename.temp_file "dhtlb_test" suffix in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* ---- the bit-identity property ------------------------------------ *)

let prop_checkpoint_roundtrip pl =
  let params = params_of_plan pl in
  (match Params.validate params with
  | Ok () -> ()
  | Error e -> QCheck.Test.fail_reportf "plan produced invalid params: %s" e);
  let strat () = Strategy.make pl.pl_strategy () in
  with_temp_file ".ckpt" @@ fun path ->
  let full = Engine.run ~sink:Trace.Null params (strat ()) in
  (* Save only the *first* checkpoint the engine offers; later hook
     calls do nothing, so the run completes and doubles as the
     hook-does-not-perturb check. *)
  let saved_tick = ref None in
  let hook (p : Engine.progress) =
    if !saved_tick = None then begin
      saved_tick := Some p.Engine.p_state.State.tick;
      Checkpoint.save ~path params p
    end
  in
  let hooked =
    Engine.run ~sink:Trace.Null ~checkpoint_every:pl.pl_every ~checkpoint:hook
      params (strat ())
  in
  check_results "hooked vs plain" full hooked;
  (match !saved_tick with
  | None -> () (* the run drained before the first checkpoint tick *)
  | Some k -> (
    match Checkpoint.load ~path params with
    | Error e -> QCheck.Test.fail_reportf "load refused its own save: %s" e
    | Ok (p, hdr) ->
      if hdr.Checkpoint.tick <> k then
        QCheck.Test.fail_reportf "header tick %d, saved at %d"
          hdr.Checkpoint.tick k;
      if not (String.equal hdr.Checkpoint.params_digest
                (Checkpoint.digest_of_params params))
      then QCheck.Test.fail_reportf "header digest differs from params digest";
      let resumed = Engine.resume ~sink:Trace.Null p (strat ()) in
      check_results "resumed vs uninterrupted" full resumed));
  true

(* ---- refusals ----------------------------------------------------- *)

let small_params = Params.default ~nodes:10 ~tasks:60

(* Run a short simulation and leave its tick-2 checkpoint at [path]. *)
let write_checkpoint ~path params =
  let saved = ref false in
  let hook p =
    if not !saved then begin
      saved := true;
      Checkpoint.save ~path params p
    end
  in
  ignore
    (Engine.run ~sink:Trace.Null ~checkpoint_every:2 ~checkpoint:hook params
       Engine.no_strategy);
  assert !saved

let check_refused name ~substring = function
  | Ok _ -> Alcotest.failf "%s: load accepted a bad checkpoint" name
  | Error e ->
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      m = 0 || go 0
    in
    if not (contains e substring) then
      Alcotest.failf "%s: error %S does not mention %S" name e substring

let test_refuses_params_mismatch () =
  with_temp_file ".ckpt" @@ fun path ->
  write_checkpoint ~path small_params;
  let other = { small_params with Params.tasks = small_params.Params.tasks + 1 } in
  check_refused "digest" ~substring:"parameter mismatch"
    (Checkpoint.load ~path other);
  (* and the original parameters still load fine *)
  match Checkpoint.load ~path small_params with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "original params refused: %s" e

let test_refuses_garbage () =
  with_temp_file ".ckpt" @@ fun path ->
  let oc = open_out_bin path in
  output_string oc "garbage\nnot a checkpoint\n";
  close_out oc;
  check_refused "magic" ~substring:"not a DHTLB-CKPT"
    (Checkpoint.load ~path small_params)

let test_refuses_future_version () =
  with_temp_file ".ckpt" @@ fun path ->
  let oc = open_out_bin path in
  Printf.fprintf oc "DHTLB-CKPT v%d\ngit_rev x\nparams_digest 0\ntick 0\n"
    (Checkpoint.format_version + 1);
  close_out oc;
  check_refused "version" ~substring:"unsupported checkpoint version"
    (Checkpoint.load ~path small_params)

let test_refuses_truncated_body () =
  with_temp_file ".ckpt" @@ fun path ->
  write_checkpoint ~path small_params;
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  (* keep the whole header plus a sliver of the marshal body *)
  let header_end =
    let rec skip n = if n = 0 then pos_in ic else (ignore (input_line ic); skip (n - 1)) in
    skip 5
  in
  seek_in ic 0;
  let keep = min len (header_end + 8) in
  let bytes = really_input_string ic keep in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc;
  check_refused "truncated" ~substring:"corrupt checkpoint body"
    (Checkpoint.load ~path small_params)

(* The whole file as lines of the header and the body bytes after them. *)
let read_checkpoint path =
  let ic = open_in_bin path in
  let header = List.init 5 (fun _ -> input_line ic) in
  let body = really_input_string ic (in_channel_length ic - pos_in ic) in
  close_in ic;
  (header, body)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* A v1 file: the current header minus its body_sha1 line, over a body of the
   old layout.  Its params digest matches, so only the version refuses
   it — reading that body as the current layout would be undefined. *)
let test_refuses_v1 () =
  with_temp_file ".ckpt" @@ fun path ->
  write_checkpoint ~path small_params;
  let header, body = read_checkpoint path in
  let v1 =
    "DHTLB-CKPT v1" :: List.filteri (fun i _ -> i >= 1 && i <= 3) header
  in
  write_file path (String.concat "\n" v1 ^ "\n" ^ body);
  check_refused "v1" ~substring:"unsupported checkpoint version"
    (Checkpoint.load ~path small_params)

(* A v3 to v6 file: the current header with its version line rolled
   back.  Every other line matches, the body digest included, so only the
   version refuses it — v3 and v4 bodies carry older replica maps, v5
   bodies hash-table sojourn ledgers, v6 bodies generators of four boxed
   words. *)
let test_refuses_rolled_back version () =
  with_temp_file ".ckpt" @@ fun path ->
  write_checkpoint ~path small_params;
  let header, body = read_checkpoint path in
  let old = Printf.sprintf "DHTLB-CKPT v%d" version :: List.tl header in
  write_file path (String.concat "\n" old ^ "\n" ^ body);
  check_refused
    (Printf.sprintf "v%d" version)
    ~substring:"unsupported checkpoint version"
    (Checkpoint.load ~path small_params)

let test_refuses_flipped_body_byte () =
  with_temp_file ".ckpt" @@ fun path ->
  write_checkpoint ~path small_params;
  let header, body = read_checkpoint path in
  let flipped = Bytes.of_string body in
  let at = Bytes.length flipped / 2 in
  Bytes.set flipped at (Char.chr (Char.code (Bytes.get flipped at) lxor 0x01));
  write_file path (String.concat "\n" header ^ "\n" ^ Bytes.to_string flipped);
  check_refused "flipped byte" ~substring:"refused before unmarshaling"
    (Checkpoint.load ~path small_params);
  (* the same header over the intact body still loads *)
  write_file path (String.concat "\n" header ^ "\n" ^ body);
  match Checkpoint.load ~path small_params with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "intact body refused: %s" e

let test_refuses_missing_file () =
  match Checkpoint.load ~path:"/nonexistent/dhtlb.ckpt" small_params with
  | Ok _ -> Alcotest.fail "loaded a nonexistent file"
  | Error _ -> ()

(* ---- the layout pin ----------------------------------------------- *)

(* A marshaled body is readable only under the type layout that wrote
   it, and only [Checkpoint.format_version] tells layouts apart.  The pin
   pairs the version with a digest of the block tags and sizes reachable
   from a small canonical progress (values ignored), so a layout change
   to State, Dht, Trace or Steady fails here until the version moves,
   and the pin with it. *)
let layout_pin = (7, "18841165ca0732c9ece54ed8e896cf74")

module Blocks = Hashtbl.Make (struct
  type t = Obj.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

(* Tag and size of every block reachable from [v], depth first, each
   shared block once: holder lists name other vnode records, so the
   graph has cycles.  [Hashtbl.hash] reads contents, not addresses, so a
   collection moving a block cannot make it unseen. *)
let layout_digest v =
  let seen = Blocks.create 4096 and shape = Buffer.create 4096 in
  let rec visit = function
    | [] -> ()
    | o :: rest when Obj.is_int o || Blocks.mem seen o -> visit rest
    | o :: rest ->
      Blocks.add seen o ();
      let tag = Obj.tag o and size = Obj.size o in
      Printf.bprintf shape "%d:%d;" tag size;
      visit
        (if tag >= Obj.no_scan_tag then rest
         else List.init size (Obj.field o) @ rest)
  in
  visit [ Obj.repr v ];
  Digest.to_hex (Digest.string (Buffer.contents shape))

(* Replicas, arrivals and an attack plan on, so every optional part of
   the state holds data; the digest is taken at the tick-4 snapshot. *)
let canonical_params =
  {
    (Params.default ~nodes:8 ~tasks:60) with
    Params.churn_rate = 0.05;
    seed = 1;
    replicas = 2;
    arrivals =
      {
        Arrivals.none with
        Arrivals.profile = Some (Arrivals.Poisson { rate = 3.0 });
        horizon = 20;
        window = 5;
      };
    attack =
      { Attack.none with Attack.strength = 2; machines = 2; window = Some (2, 10) };
  }

let test_layout_pin () =
  let digest = ref None in
  let hook p = if !digest = None then digest := Some (layout_digest p) in
  ignore
    (Engine.run ~sink:Trace.Null ~checkpoint_every:4 ~checkpoint:hook
       canonical_params Engine.no_strategy);
  Alcotest.(check (pair int string))
    "format_version and the progress layout move together" layout_pin
    (Checkpoint.format_version, Option.get !digest)

(* ---- the draw-free assertion -------------------------------------- *)

let test_hook_that_draws_is_refused () =
  let hook (p : Engine.progress) =
    ignore (Prng.int_below p.Engine.p_state.State.rng 100)
  in
  match
    Engine.run ~sink:Trace.Null ~checkpoint_every:1 ~checkpoint:hook
      small_params Engine.no_strategy
  with
  | _ -> Alcotest.fail "a draw-consuming hook was accepted"
  | exception Invalid_argument msg ->
    Alcotest.(check bool)
      "message names the contract" true
      (let sub = "draw" in
       let n = String.length msg and m = String.length sub in
       let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
       go 0)

let test_checkpoint_every_validated () =
  match
    Engine.run ~sink:Trace.Null ~checkpoint_every:0 small_params
      Engine.no_strategy
  with
  | _ -> Alcotest.fail "checkpoint_every 0 accepted"
  | exception Invalid_argument _ -> ()

(* ---- cooperative interrupt ---------------------------------------- *)

let test_interrupt_writes_final_checkpoint () =
  with_temp_file ".ckpt" @@ fun path ->
  Sys.remove path;
  Engine.clear_interrupt ();
  Fun.protect ~finally:Engine.clear_interrupt @@ fun () ->
  let params = Params.default ~nodes:10 ~tasks:200 in
  let hook p = Checkpoint.save ~path params p in
  (* [decide] is otherwise a no-op, so the interrupted prefix is
     bit-identical to a no_strategy run — letting us check the final
     checkpoint resumes onto the uninterrupted result. *)
  let calls = ref 0 in
  let interrupter =
    {
      Engine.name = "interrupter";
      decide = (fun _ -> incr calls; if !calls = 3 then Engine.request_interrupt ());
    }
  in
  (match Engine.run ~sink:Trace.Null ~checkpoint:hook params interrupter with
  | _ -> Alcotest.fail "expected Interrupted"
  | exception Engine.Interrupted tick ->
    Alcotest.(check bool) "interrupted after some progress" true (tick >= 1));
  Alcotest.(check bool) "final checkpoint written" true (Sys.file_exists path);
  Engine.clear_interrupt ();
  let full = Engine.run ~sink:Trace.Null params Engine.no_strategy in
  match Checkpoint.load ~path params with
  | Error e -> Alcotest.failf "final checkpoint refused: %s" e
  | Ok (p, _) ->
    let resumed = Engine.resume ~sink:Trace.Null p Engine.no_strategy in
    Alcotest.(check bool)
      "resumed outcome equals uninterrupted" true
      (resumed.Engine.outcome = full.Engine.outcome
      && compare resumed.Engine.messages full.Engine.messages = 0)

let test_interrupt_without_hook () =
  Engine.clear_interrupt ();
  Fun.protect ~finally:Engine.clear_interrupt @@ fun () ->
  Engine.request_interrupt ();
  match Engine.run ~sink:Trace.Null small_params Engine.no_strategy with
  | _ -> Alcotest.fail "expected Interrupted"
  | exception Engine.Interrupted tick -> Alcotest.(check int) "at tick 0" 0 tick

(* ---- the sweep journal -------------------------------------------- *)

let int_codec =
  ( (fun v -> Json_out.Int v),
    function Json_out.Int v -> Some v | _ -> None )

let test_journal_skip_and_reload () =
  with_temp_file ".jsonl" @@ fun path ->
  Sys.remove path;
  let encode, decode = int_codec in
  let computes = ref 0 in
  let k n = Journal.key [ ("experiment", Json_out.String "t"); ("cell", Json_out.Int n) ] in
  let j = Journal.open_ path in
  Alcotest.(check int) "fresh journal loads nothing" 0 (Journal.loaded j);
  let v1 = Journal.cell (Some j) ~key:(k 1) ~encode ~decode (fun () -> incr computes; 11) in
  let v1' = Journal.cell (Some j) ~key:(k 1) ~encode ~decode (fun () -> incr computes; 99) in
  Journal.close j;
  Alcotest.(check int) "computed once" 1 !computes;
  Alcotest.(check int) "first value" 11 v1;
  Alcotest.(check int) "cached value" 11 v1';
  (* reopen: the recorded cell is skipped exactly, new cells compute *)
  let j = Journal.open_ path in
  Alcotest.(check int) "one cell recovered" 1 (Journal.loaded j);
  let v1'' = Journal.cell (Some j) ~key:(k 1) ~encode ~decode (fun () -> incr computes; 99) in
  let v2 = Journal.cell (Some j) ~key:(k 2) ~encode ~decode (fun () -> incr computes; 22) in
  Journal.close j;
  Alcotest.(check int) "only the new cell computed" 2 !computes;
  Alcotest.(check int) "recovered value survives the file round-trip" 11 v1'';
  Alcotest.(check int) "new cell value" 22 v2;
  (* a different seed/trials field changes the key, hence recomputes *)
  let k' = Journal.key [ ("experiment", Json_out.String "t"); ("cell", Json_out.Int 1); ("seed", Json_out.Int 7) ] in
  Alcotest.(check bool) "extended key differs" true (k 1 <> k');
  let j = Journal.open_ path in
  let v3 = Journal.cell (Some j) ~key:k' ~encode ~decode (fun () -> incr computes; 33) in
  Journal.close j;
  Alcotest.(check int) "changed key recomputed" 3 !computes;
  Alcotest.(check int) "changed-key value" 33 v3

let test_journal_torn_line () =
  with_temp_file ".jsonl" @@ fun path ->
  Sys.remove path;
  let encode, decode = int_codec in
  let j = Journal.open_ path in
  ignore (Journal.cell (Some j) ~key:"a" ~encode ~decode (fun () -> 1));
  ignore (Journal.cell (Some j) ~key:"b" ~encode ~decode (fun () -> 2));
  Journal.close j;
  (* simulate a crash mid-append: a torn, unterminated trailing line *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "{\"key\":\"c\",\"cel";
  close_out oc;
  let j = Journal.open_ path in
  Alcotest.(check int) "torn line skipped, intact lines kept" 2 (Journal.loaded j);
  Alcotest.(check bool) "torn cell absent" true (Journal.find j ~key:"c" = None);
  (* the journal stays appendable after the torn line *)
  let v = Journal.cell (Some j) ~key:"c" ~encode ~decode (fun () -> 3) in
  Journal.close j;
  Alcotest.(check int) "recomputed torn cell" 3 v;
  let j = Journal.open_ path in
  Alcotest.(check int) "recovered after repair" 3 (Journal.loaded j);
  Journal.close j

let test_journal_undecodable_payload_recomputed () =
  with_temp_file ".jsonl" @@ fun path ->
  Sys.remove path;
  let encode, decode = int_codec in
  let j = Journal.open_ path in
  (* record a payload the int codec cannot decode *)
  Journal.record j ~key:"a" (Json_out.String "not an int");
  let v = Journal.cell (Some j) ~key:"a" ~encode ~decode (fun () -> 5) in
  Journal.close j;
  Alcotest.(check int) "bad payload recomputed" 5 v;
  let j = Journal.open_ path in
  (* last write wins on reload: the recomputed line shadows the bad one *)
  Alcotest.(check bool) "overwritten entry decodes" true
    (Option.bind (Journal.find j ~key:"a") decode = Some 5);
  Journal.close j

(* A real sweep through the journal: resuming must reproduce the
   uninterrupted table exactly, computing only the missing cells. *)
let test_journaled_sweep_resumes_bit_identical () =
  with_temp_file ".jsonl" @@ fun path ->
  Sys.remove path;
  let spec =
    {
      Sweep.churn with
      Sweep.axes = [ Sweep.churn_rates [ 0.0; 0.01 ]; Sweep.shapes [ (12, 100) ] ];
    }
  in
  let fresh = Sweep.run ~trials:2 ~seed:5 spec in
  (* full journaled run, then truncate the journal to its first line *)
  let j = Journal.open_ path in
  let journaled = Sweep.run ~trials:2 ~seed:5 ~journal:j spec in
  Journal.close j;
  Alcotest.(check bool) "journaled run matches plain run" true
    (compare fresh journaled = 0);
  let lines =
    let ic = open_in_bin path in
    let rec go acc = match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file -> close_in ic; List.rev acc
    in
    go []
  in
  Alcotest.(check int) "one journal line per cell" (List.length fresh)
    (List.length lines);
  let oc = open_out_bin path in
  output_string oc (List.hd lines);
  output_string oc "\n";
  close_out oc;
  let j = Journal.open_ path in
  Alcotest.(check int) "one cell survives truncation" 1 (Journal.loaded j);
  let resumed = Sweep.run ~trials:2 ~seed:5 ~journal:j spec in
  Journal.close j;
  Alcotest.(check bool) "resumed sweep is bit-identical" true
    (compare fresh resumed = 0);
  (* a different seed shares no keys: everything recomputes, the journal
     doubles in size *)
  let j = Journal.open_ path in
  ignore (Sweep.run ~trials:2 ~seed:6 ~journal:j spec);
  Alcotest.(check int) "changed seed recomputes every cell"
    (2 * List.length fresh)
    (Hashtbl.length
       (let tbl = Hashtbl.create 8 in
        let ic = open_in_bin path in
        (try
           while true do
             let l = input_line ic in
             Hashtbl.replace tbl l ()
           done
         with End_of_file -> close_in ic);
        tbl));
  Journal.close j

let test_aggregate_codec_roundtrip () =
  let params = { small_params with Params.seed = 3 } in
  let a = Runner.run_trials ~trials:3 params (fun () -> Engine.no_strategy) in
  match Journal.aggregate_of_json (Journal.aggregate_to_json a) with
  | None -> Alcotest.fail "aggregate codec failed to decode its own output"
  | Some b ->
    Alcotest.(check bool) "aggregate survives the codec bit-for-bit" true
      (compare a b = 0)

(* Serialized JSON must also survive a *textual* round trip — that is
   what actually sits in the journal file. *)
let test_aggregate_codec_textual_roundtrip () =
  let a = Runner.run_trials ~trials:2 small_params (fun () -> Engine.no_strategy) in
  let text = Json_out.to_string (Journal.aggregate_to_json a) in
  match Json_in.parse text with
  | Error e ->
    Alcotest.failf "unparseable aggregate JSON: %s" (Json_in.error_to_string e)
  | Ok v -> (
    match Journal.aggregate_of_json v with
    | None -> Alcotest.fail "parsed aggregate JSON failed to decode"
    | Some b ->
      Alcotest.(check bool) "textual round trip is exact" true (compare a b = 0))

(* ---- per-trial trace sink suffixing ------------------------------- *)

let test_sink_for_trial () =
  (match Trace.sink_for_trial (Trace.Csv_file "trace.csv") ~trial:3 with
  | Trace.Csv_file p -> Alcotest.(check string) "csv suffix" "trace.3.csv" p
  | _ -> Alcotest.fail "sink kind changed");
  (match Trace.sink_for_trial (Trace.Jsonl_file "out/points") ~trial:0 with
  | Trace.Jsonl_file p -> Alcotest.(check string) "extensionless" "out/points.0" p
  | _ -> Alcotest.fail "sink kind changed");
  (match Trace.sink_for_trial Trace.Memory ~trial:5 with
  | Trace.Memory -> ()
  | _ -> Alcotest.fail "memory sink must pass through");
  match Trace.sink_for_trial (Trace.Ring 7) ~trial:5 with
  | Trace.Ring 7 -> ()
  | _ -> Alcotest.fail "ring sink must pass through"

(* ---- suites ------------------------------------------------------- *)

let () =
  Alcotest.run "checkpoint"
    [
      ( "bit-identity",
        [ Testutil.prop ~count:80 "checkpoint at a random tick, resume, equal \
                                   bit-for-bit" arb_plan prop_checkpoint_roundtrip ] );
      ( "refusals",
        [
          Alcotest.test_case "params digest mismatch" `Quick
            test_refuses_params_mismatch;
          Alcotest.test_case "garbage magic" `Quick test_refuses_garbage;
          Alcotest.test_case "future version" `Quick test_refuses_future_version;
          Alcotest.test_case "truncated body" `Quick test_refuses_truncated_body;
          Alcotest.test_case "v1 checkpoint" `Quick test_refuses_v1;
          Alcotest.test_case "v3 checkpoint" `Quick (test_refuses_rolled_back 3);
          Alcotest.test_case "v4 checkpoint" `Quick (test_refuses_rolled_back 4);
          Alcotest.test_case "v5 checkpoint" `Quick (test_refuses_rolled_back 5);
          Alcotest.test_case "v6 checkpoint" `Quick (test_refuses_rolled_back 6);
          Alcotest.test_case "flipped body byte" `Quick test_refuses_flipped_body_byte;
          Alcotest.test_case "missing file" `Quick test_refuses_missing_file;
        ] );
      ( "layout",
        [ Alcotest.test_case "version pinned to the layout" `Quick test_layout_pin ] );
      ( "draw-free",
        [
          Alcotest.test_case "hook that draws is refused" `Quick
            test_hook_that_draws_is_refused;
          Alcotest.test_case "checkpoint_every < 1 rejected" `Quick
            test_checkpoint_every_validated;
        ] );
      ( "interrupt",
        [
          Alcotest.test_case "final checkpoint on interrupt" `Quick
            test_interrupt_writes_final_checkpoint;
          Alcotest.test_case "interrupt without hook" `Quick
            test_interrupt_without_hook;
        ] );
      ( "journal",
        [
          Alcotest.test_case "skip-or-compute and reload" `Quick
            test_journal_skip_and_reload;
          Alcotest.test_case "torn trailing line" `Quick test_journal_torn_line;
          Alcotest.test_case "undecodable payload recomputed" `Quick
            test_journal_undecodable_payload_recomputed;
          Alcotest.test_case "journaled sweep resumes bit-identical" `Quick
            test_journaled_sweep_resumes_bit_identical;
          Alcotest.test_case "aggregate codec round trip" `Quick
            test_aggregate_codec_roundtrip;
          Alcotest.test_case "aggregate codec textual round trip" `Quick
            test_aggregate_codec_textual_roundtrip;
        ] );
      ( "trace-sinks",
        [ Alcotest.test_case "sink_for_trial suffixing" `Quick test_sink_for_trial ] );
    ]
