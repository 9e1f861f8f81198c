(* The plan-spec grammar of --faults, --arrivals and --attack, pinned
   byte for byte.

   Each corpus entry is a spec and its exact result: an accepted spec
   maps to the canonical [to_string] of its plan, a refused one to the
   exact [Error] string.  Together the entries cover every key of the
   three plans; each value error (a non-integer, a non-number, a missing
   separator, a wrong arity, a bad second half); each grammar error (no
   [=], the empty clause of a stray comma, a duplicate and an unknown
   key); uppercase keys, blank specs, [off], [OFF] and surrounding
   blanks; and every [validate] refusal a spec can reach, with the
   arrival plan's two-profile and no-profile errors.

   One fuzz property, run for each plan, feeds the parsers arbitrary
   bytes and the corpus's canonical specs with one character changed. *)

let faults =
  [
    ("drop=0.1", Ok "drop=0.1");
    ("drop=0.123456789", Ok "drop=0.123456789");
    ("crash=5@200", Ok "crash=5@200");
    ("crash=5@200+3@400", Ok "crash=5@200+3@400");
    ("straggle=3", Ok "straggle=3");
    ("straggle=3,straggle-delay=4", Ok "straggle=3,straggle-delay=4");
    ("straggle-delay=4", Ok "off");
    ("straggle=3,straggle-delay=2", Ok "straggle=3");
    ("drop=0.1,retry-budget=5", Ok "drop=0.1,retry-budget=5");
    ("retry-budget=5", Ok "off");
    ("drop=0.1,backoff=2:16", Ok "drop=0.1,backoff=2:16");
    ("backoff=1:8", Ok "off");
    ("partition=100-250", Ok "partition=100-250");
    ("repl-drop=0.2", Ok "repl-drop=0.2");
    ( "drop=0.1,crash=5@200+3@400,straggle=3,straggle-delay=4,retry-budget=3,\
       backoff=2:16,partition=100-250,repl-drop=0.2",
      Ok
        "drop=0.1,crash=5@200+3@400,straggle=3,straggle-delay=4,retry-budget=3,\
         backoff=2:16,partition=100-250,repl-drop=0.2" );
    ( "repl-drop=0.2,partition=100-250,drop=0.1",
      Ok "drop=0.1,partition=100-250,repl-drop=0.2" );
    ("DROP=0.1", Ok "drop=0.1");
    ("Crash=1@2,Straggle=1", Ok "crash=1@2,straggle=1");
    ("", Ok "off");
    ("   ", Ok "off");
    ("off", Ok "off");
    ("OFF", Ok "off");
    (" Off ", Ok "off");
    ("  drop=0.1  ", Ok "drop=0.1");
    ("drop=abc", Error "drop: expected a number, got \"abc\"");
    ("drop=", Error "drop: expected a number, got \"\"");
    ("straggle=abc", Error "straggle: expected an integer, got \"abc\"");
    ("straggle=1.5", Error "straggle: expected an integer, got \"1.5\"");
    ("straggle-delay=x", Error "straggle-delay: expected an integer, got \"x\"");
    ("retry-budget=x", Error "retry-budget: expected an integer, got \"x\"");
    ("repl-drop=x", Error "repl-drop: expected a number, got \"x\"");
    ("crash=5", Error "crash: expected COUNT@TICK, got \"5\"");
    ("crash=5@200+", Error "crash: expected COUNT@TICK, got \"\"");
    ("crash=x@5", Error "crash count: expected an integer, got \"x\"");
    ("crash=5@x", Error "crash tick: expected an integer, got \"x\"");
    ("crash=5@200+3", Error "crash: expected COUNT@TICK, got \"3\"");
    ("backoff=4", Error "backoff: expected BASE:CAP, got \"4\"");
    ("backoff=1:2:3", Error "backoff cap: expected an integer, got \"2:3\"");
    ("backoff=x:4", Error "backoff base: expected an integer, got \"x\"");
    ("partition=10", Error "partition: expected START-STOP, got \"10\"");
    ("partition=10-x", Error "partition stop: expected an integer, got \"x\"");
    ("partition=-5-10", Error "partition start: expected an integer, got \"\"");
    ("drop", Error "expected key=value, got \"drop\"");
    ("drop=0.1,", Error "expected key=value, got \"\"");
    (",drop=0.1", Error "expected key=value, got \"\"");
    ("drop=0.1,,straggle=1", Error "expected key=value, got \"\"");
    ("drop=0.1,drop=0.2", Error "duplicate fault key \"drop\" (each key at most once)");
    ("Drop=0.1,DROP=0.2", Error "duplicate fault key \"drop\" (each key at most once)");
    ( "crash=2@3,straggle=1,crash=1@9",
      Error "duplicate fault key \"crash\" (each key at most once)" );
    ( "bogus=1",
      Error
        "unknown fault key \"bogus\" (valid keys: drop, crash, straggle, \
         straggle-delay, retry-budget, backoff, partition, repl-drop)" );
    ( "drop=0.1,typo=3",
      Error
        "unknown fault key \"typo\" (valid keys: drop, crash, straggle, \
         straggle-delay, retry-budget, backoff, partition, repl-drop)" );
    ( "drop=0.1, straggle=1",
      Error
        "unknown fault key \" straggle\" (valid keys: drop, crash, straggle, \
         straggle-delay, retry-budget, backoff, partition, repl-drop)" );
    ( "=5",
      Error
        "unknown fault key \"\" (valid keys: drop, crash, straggle, \
         straggle-delay, retry-budget, backoff, partition, repl-drop)" );
    ("drop==0.1", Error "drop: expected a number, got \"=0.1\"");
    ("drop=1.5", Error "drop must be in [0, 1]");
    ("drop=-0.1", Error "drop must be in [0, 1]");
    ("drop=nan", Error "drop must be in [0, 1]");
    ("crash=1@-1", Error "crash burst tick must be >= 0");
    ("crash=0@5", Error "crash burst count must be >= 1");
    ("straggle=-1", Error "stragglers must be >= 0");
    ("straggle-delay=-1", Error "straggle_delay must be >= 0");
    ("retry-budget=-1", Error "retry_budget must be >= 0");
    ("backoff=0:8", Error "backoff_base must be >= 1");
    ("backoff=4:2", Error "backoff_cap must be >= backoff_base");
    ("repl-drop=2", Error "repl_drop must be in [0, 1]");
    (* '-' splits the window, so only a hex literal that wraps past
       max_int reaches the negative-start refusal. *)
    ("partition=0x7FFFFFFFFFFFFFFF-10", Error "partition start must be >= 0");
    ("partition=10-5", Error "partition window must be non-empty");
    ("partition=5-5", Error "partition window must be non-empty");
    ("drop=2,straggle=-1", Error "drop must be in [0, 1]");
  ]

let arrivals =
  [
    ("poisson=8.5", Ok "poisson=8.5");
    ("poisson=8.5,horizon=500,window=50", Ok "poisson=8.5,horizon=500,window=50");
    ("burst=2:40:10:50", Ok "burst=2:40:10:50");
    ("diurnal=10:6:100", Ok "diurnal=10:6:100");
    ("poisson=4,hot=16:0.05:1.1", Ok "poisson=4,hot=16:0.05:1.1");
    ("poisson=4,horizon=200,window=25", Ok "poisson=4");
    ("window=10,poisson=2", Ok "poisson=2,window=10");
    ("POISSON=3", Ok "poisson=3");
    ("Burst=1:2:3:4", Ok "burst=1:2:3:4");
    ("", Ok "off");
    ("off", Ok "off");
    ("OFF", Ok "off");
    ("  ", Ok "off");
    ("  poisson=1  ", Ok "poisson=1");
    ("poisson=abc", Error "poisson: expected a number, got \"abc\"");
    ("horizon=abc", Error "horizon: expected an integer, got \"abc\"");
    ("poisson=1,window=1.5", Error "window: expected an integer, got \"1.5\"");
    ("burst=1:2:3", Error "burst: expected LO:HI:ON:OFF, got \"1:2:3\"");
    ("burst=1:2:3:4:5", Error "burst: expected LO:HI:ON:OFF, got \"1:2:3:4:5\"");
    ("diurnal=1:2", Error "diurnal: expected MEAN:AMP:PERIOD, got \"1:2\"");
    ("poisson=1,hot=1:2", Error "hot: expected HOTSPOTS:SPREAD:ZIPF_S, got \"1:2\"");
    ("burst=x:2:3:4", Error "burst base rate: expected a number, got \"x\"");
    ("burst=1:x:3:4", Error "burst high rate: expected a number, got \"x\"");
    ("burst=1:2:x:4", Error "burst on-phase: expected an integer, got \"x\"");
    ("burst=1:2:3:x", Error "burst off-phase: expected an integer, got \"x\"");
    ("diurnal=x:1:2", Error "diurnal mean rate: expected a number, got \"x\"");
    ("diurnal=1:x:2", Error "diurnal amplitude: expected a number, got \"x\"");
    ("diurnal=1:1:x", Error "diurnal period: expected an integer, got \"x\"");
    ("poisson=1,hot=x:0.1:1", Error "hot spots: expected an integer, got \"x\"");
    ("poisson=1,hot=1:x:1", Error "hot spread: expected a number, got \"x\"");
    ("poisson=1,hot=1:0.1:x", Error "hot zipf exponent: expected a number, got \"x\"");
    ("poisson", Error "expected key=value, got \"poisson\"");
    ("poisson=1,", Error "expected key=value, got \"\"");
    ( "poisson=2,poisson=3",
      Error "duplicate arrival key \"poisson\" (each key at most once)" );
    ( "poisson=1,POISSON=2",
      Error "duplicate arrival key \"poisson\" (each key at most once)" );
    ( "nonsense=3",
      Error
        "unknown arrival key \"nonsense\" (valid keys: poisson, burst, \
         diurnal, hot, horizon, window)" );
    ( "poisson=1,burst=1:2:1:1",
      Error "at most one rate profile (poisson, burst or diurnal) per plan" );
    ( "diurnal=1:1:1,poisson=1",
      Error "at most one rate profile (poisson, burst or diurnal) per plan" );
    ( "hot=2:0.1:1.0",
      Error "arrival plan needs a rate profile (poisson, burst or diurnal)" );
    ("horizon=10", Error "arrival plan needs a rate profile (poisson, burst or diurnal)");
    ("poisson=-1", Error "poisson rate must be in [0, 10000]");
    ("poisson=20000", Error "poisson rate must be in [0, 10000]");
    ("poisson=inf", Error "poisson rate must be in [0, 10000]");
    ("burst=-1:2:1:1", Error "burst base rate must be in [0, 10000]");
    ("burst=1:nan:1:1", Error "burst high rate must be in [0, 10000]");
    ("burst=1:2:0:1", Error "burst on-phase must be >= 1 tick");
    ("burst=1:2:1:0", Error "burst off-phase must be >= 1 tick");
    ("diurnal=nan:1:5", Error "diurnal mean rate must be in [0, 10000]");
    ("diurnal=5:-1:10", Error "diurnal amplitude must be >= 0");
    ("diurnal=5:inf:10", Error "diurnal amplitude must be >= 0");
    ("diurnal=5:6:10", Error "diurnal amplitude must not exceed the mean rate");
    ("diurnal=5:1:0", Error "diurnal period must be >= 1 tick");
    ("poisson=1,hot=0:0.1:1", Error "hot spots must be >= 1");
    ("poisson=1,hot=2:1.5:1", Error "hot spread must be in [0, 1]");
    ("poisson=1,hot=2:0.1:-1", Error "hot zipf exponent must be >= 0");
    ("poisson=1,horizon=0", Error "horizon must be >= 1 tick");
    ("poisson=1,window=0", Error "window must be >= 1 tick");
  ]

let attack =
  [
    ("strength=2,machines=5", Ok "strength=2,machines=5");
    ( "strength=2,machines=5,target=0.25,width=0.15,window=5:40",
      Ok "strength=2,machines=5,target=0.25,width=0.15,window=5:40" );
    ("window=10:40,machines=4,strength=2", Ok "strength=2,machines=4,window=10:40");
    ("strength=2,machines=5,target=0,width=0.1", Ok "strength=2,machines=5");
    ("STRENGTH=1,Machines=1", Ok "strength=1,machines=1");
    ("strength=0,machines=0", Ok "off");
    ("target=0.5", Ok "off");
    ("", Ok "off");
    ("off", Ok "off");
    ("OFF", Ok "off");
    (" OFF ", Ok "off");
    ("  strength=1,machines=1  ", Ok "strength=1,machines=1");
    ("strength=two,machines=1", Error "strength: expected an integer, got \"two\"");
    ("strength=1,machines=1,target=x", Error "target: expected a number, got \"x\"");
    ("width=", Error "width: expected a number, got \"\"");
    ("window=5", Error "window: expected START:STOP, got \"5\"");
    ("window=5:x", Error "window stop: expected an integer, got \"x\"");
    ("window=x:5", Error "window start: expected an integer, got \"x\"");
    ("window=1:2:3", Error "window stop: expected an integer, got \"2:3\"");
    ("strength", Error "expected key=value, got \"strength\"");
    ("strength=1,machines=1,", Error "expected key=value, got \"\"");
    ( "strength=1,machines=1,strength=2",
      Error "duplicate attack key \"strength\" (each key at most once)" );
    ( "nonsense=3",
      Error
        "unknown attack key \"nonsense\" (valid keys: strength, machines, \
         target, width, window)" );
    ("strength=1;machines=1", Error "strength: expected an integer, got \"1;machines=1\"");
    ("strength=-1,machines=1", Error "strength must be >= 0");
    ("strength=1,machines=-1", Error "machines must be >= 0");
    ("strength=3", Error "strength and machines must be enabled together");
    ("machines=3", Error "strength and machines must be enabled together");
    ("strength=1,machines=1,target=1", Error "target must be in [0, 1)");
    ("strength=1,machines=1,target=0.9999999", Ok "strength=1,machines=1,target=0.9999999");
    ("strength=1,machines=1,target=-0.5", Error "target must be in [0, 1)");
    ("strength=1,machines=1,target=nan", Error "target must be in [0, 1)");
    ("strength=1,machines=1,width=0", Error "width must be in (0, 1]");
    ("strength=1,machines=1,width=1.5", Error "width must be in (0, 1]");
    ("strength=1,machines=1,window=-1:5", Error "window start must be >= 0");
    ("strength=1,machines=1,window=5:5", Error "window must be non-empty");
  ]

let test_corpus name of_string to_string cases () =
  List.iter
    (fun (spec, expect) ->
      Alcotest.(check (result string string))
        (Printf.sprintf "%s %S" name spec) expect
        (Result.map to_string (of_string spec)))
    cases

(* [of_string] never raises, an accepted plan passes [validate], and
   its printed spec parses back to a plan that prints the same and
   equals the plan, up to what [inert] resets: the fields a printer
   leaves out because they have no effect. *)
let fuzz name of_string to_string validate ~inert cases =
  let canonical = List.filter_map (fun (_, r) -> Result.to_option r) cases in
  let gen =
    QCheck.Gen.(
      oneof
        [
          string_size ~gen:char (int_bound 40);
          (let* s = oneofl canonical in
           let* i = int_bound (String.length s - 1) in
           let* c = oneof [ char; oneofl [ ','; '='; ':'; '@'; '+'; '-'; '.'; 'e'; ' ' ] ] in
           return (String.mapi (fun j d -> if j = i then c else d) s));
        ])
  in
  Testutil.prop ~count:3000 (name ^ " specs: total, valid, print-stable")
    (QCheck.make ~print:(Printf.sprintf "%S") gen)
    (fun s ->
      match of_string s with
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
      | Error _ -> true
      | Ok plan -> (
        validate plan = Ok ()
        &&
        let printed = to_string plan in
        match of_string printed with
        | Ok again -> to_string again = printed && compare again (inert plan) = 0
        | Error e -> QCheck.Test.fail_reportf "%S does not parse back: %s" printed e))

(* A disabled plan prints as [off] whatever its fields hold, and the
   fault printer drops a straggle delay without stragglers. *)
let inert_fault (p : Faults.t) =
  if not (Faults.enabled p) then Faults.none
  else if p.stragglers = 0 then { p with straggle_delay = Faults.none.straggle_delay }
  else p

let inert_arrival p = if Arrivals.enabled p then p else Arrivals.none
let inert_attack p = if Attack.enabled p then p else Attack.none

let () =
  Alcotest.run "spec"
    [
      ( "fuzz",
        [
          fuzz "fault" Faults.of_string Faults.to_string Faults.validate
            ~inert:inert_fault faults;
          fuzz "arrival" Arrivals.of_string Arrivals.to_string Arrivals.validate
            ~inert:inert_arrival arrivals;
          fuzz "attack" Attack.of_string Attack.to_string Attack.validate
            ~inert:inert_attack attack;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "faults" `Quick
            (test_corpus "faults" Faults.of_string Faults.to_string faults);
          Alcotest.test_case "arrivals" `Quick
            (test_corpus "arrivals" Arrivals.of_string Arrivals.to_string arrivals);
          Alcotest.test_case "attack" `Quick
            (test_corpus "attack" Attack.of_string Attack.to_string attack);
        ] );
    ]
