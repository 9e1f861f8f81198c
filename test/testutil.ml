(* Helpers shared across the test executables. *)

let arb_id =
  QCheck.make
    ~print:(fun id -> Id.to_hex id)
    (QCheck.Gen.map
       (fun s -> Id.of_raw_string s)
       (QCheck.Gen.string_size ~gen:QCheck.Gen.char (QCheck.Gen.return 20)))

(* Small ids (two low bytes random) generate frequent collisions and
   adjacencies, which exercise wrap/equality edge cases far more than
   uniform 160-bit draws. *)
let arb_small_id =
  QCheck.make
    ~print:(fun id -> Id.to_hex id)
    (QCheck.Gen.map (fun n -> Id.of_int n) (QCheck.Gen.int_bound 65535))

(* One explicit seed per test executable so every qcheck failure is
   reproducible: honour QCHECK_SEED when set, otherwise self-initialise
   and print the chosen seed before the suites run, on stderr as well as
   stdout, so a run that discards stdout still keeps it. *)
let qcheck_seed =
  lazy
    (let seed =
       match Sys.getenv_opt "QCHECK_SEED" with
       | Some s -> (
         match int_of_string_opt (String.trim s) with
         | Some n -> n
         | None -> invalid_arg "QCHECK_SEED must be an integer")
       | None ->
         Random.self_init ();
         Random.int 1_000_000_000
     in
     let line =
       Printf.sprintf "qcheck random seed: %d (set QCHECK_SEED=%d to reproduce)"
         seed seed
     in
     Printf.printf "%s\n%!" line;
     Printf.eprintf "%s\n%!" line;
     seed)

let prop ?(count = 300) name law_arb law =
  (* Each property gets a fresh state from the same seed, so a single
     failing test can be re-run alone and still hit the same inputs. *)
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| Lazy.force qcheck_seed |])
    (QCheck.Test.make ~name ~count law_arb law)

let check_id = Alcotest.testable Id.pp_full Id.equal

let ids_of_ints = List.map Id.of_int

let fresh_rng ?(seed = 42) () = Prng.create seed

(* A ring-consistent DHT with [n] nodes and [m] keys, deterministic. *)
let sample_dht ?(seed = 42) ~nodes ~keys () =
  let rng = Prng.create seed in
  let dht = Dht.create () in
  Array.iter
    (fun id ->
      match Dht.join dht ~id ~payload:() with
      | Ok _ -> ()
      | Error `Occupied -> ())
    (Keygen.node_ids rng nodes);
  for _ = 1 to keys do
    match Dht.insert_key dht (Keygen.fresh rng) with
    | Ok () | Error `Duplicate -> ()
    | Error `Empty_ring -> assert false
  done;
  (dht, rng)
