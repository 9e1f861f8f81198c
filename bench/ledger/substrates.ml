(* The substrate table: ns/op of the public functions the engine steps
   are built from, by Bechamel OLS, sized like the workloads (10k-vnode
   rings holding 100k keys, 100-key sets).  Each row is
   [(metric, ns per unit, r²)]. *)

open Bechamel

let seed = 42

(* Distinct fresh ring positions, as the engine draws them. *)
let ring ~rng ~vnodes =
  let dht = Dht.create () in
  Array.iter
    (fun id -> ignore (Dht.join dht ~id ~payload:()))
    (Keygen.node_ids rng vnodes);
  dht

let loaded_ring ~rng ~vnodes ~keys =
  let dht = ring ~rng ~vnodes in
  ignore (Dht.insert_keys dht (Keygen.task_keys rng keys));
  dht

(* A round-robin cursor over a pool, for operations that consume what
   they touch. *)
let cycle pool =
  let i = ref (-1) in
  fun () ->
    i := (!i + 1) mod Array.length pool;
    pool.(!i)

let measure ?(cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~stabilize:false ())
    ~per name fn =
  let test = Test.make ~name (Staged.stage fn) in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let est = Hashtbl.find results name in
  let ns = match Analyze.OLS.estimates est with Some (e :: _) -> e | _ -> nan in
  let r2 = Option.value ~default:nan (Analyze.OLS.r_square est) in
  (name, ns /. float_of_int per, r2)

let table () =
  let rng = Prng.create seed in
  let payload = Bytes.create 64 in
  Prng.fill_bytes rng payload;
  let payload = Bytes.to_string payload in
  let set100 = Id_set.of_list (Array.to_list (Keygen.task_keys rng 100)) in
  let arc = Interval.make ~after:(Id_set.nth set100 25) ~upto:(Id_set.nth set100 75) in
  let pick = Prng.int_below rng in
  let insert_keys =
    (* Inserting mutates the ring, so every call gets a fresh one: the
       linear sampling below makes exactly 1 + 2 + 3 + 4 calls. *)
    let keys = Keygen.task_keys rng 100_000 in
    let next = cycle (Array.init 10 (fun _ -> ring ~rng ~vnodes:10_000)) in
    measure
      ~cfg:(Benchmark.cfg ~limit:4 ~sampling:(`Linear 1) ~quota:(Time.second 30.) ~stabilize:false ())
      ~per:100_000 "dht.insert_keys_ns_per_key"
      (fun () -> Dht.insert_keys (next ()) keys)
  in
  let join_leave =
    let dht = loaded_ring ~rng ~vnodes:10_000 ~keys:100_000 in
    let next = cycle (Array.init 1024 (fun _ -> Keygen.fresh rng)) in
    measure ~per:1 "dht.join_leave_ns" (fun () ->
        let id = next () in
        ignore (Dht.join dht ~id ~payload:());
        Dht.leave dht id)
  in
  let consume =
    (* A call is one consume tick over 500 vnodes: one task from each, as
       every machine completes one task per tick.  The linear sampling
       makes 1 + 2 + ... + 13 = 91 calls, so the vnodes only drain from
       400 keys to 309 and the cost per call stays put across samples. *)
    let dht = loaded_ring ~rng ~vnodes:500 ~keys:200_000 in
    let vnodes = Array.of_list (Dht.fold List.cons dht []) in
    measure
      ~cfg:(Benchmark.cfg ~limit:13 ~sampling:(`Linear 1) ~quota:(Time.second 30.) ~stabilize:false ())
      ~per:(Array.length vnodes) "dht.consume_vnode_ns"
      (fun () -> Array.iter (fun v -> ignore (Dht.consume_vnode ~pick dht v 1)) vnodes)
  in
  let note =
    (* A call is one whole 50-tick window, so every call pays exactly one
       window close (the percentile sorts) like the stream workload does
       once per 50 ticks. *)
    let collector = Steady.create ~window:50 in
    let sojourns = List.init 1_000 (fun i -> 1 + (i mod 40)) in
    measure ~per:50 "steady.note_ns" (fun () ->
        for _ = 1 to 50 do
          Steady.note collector ~arrivals:1_000 ~completions:1_000 ~queue:100_000
            ~sybils:0 ~sojourns
        done)
  in
  [
    measure ~per:1 "keygen.fresh_ns" (fun () -> Keygen.fresh rng);
    measure ~per:1 "sha1.digest_string_64B_ns" (fun () -> Sha1.digest_string payload);
    measure ~per:10_000 "keygen.task_keys_ns_per_key" (fun () -> Keygen.task_keys rng 10_000);
    insert_keys;
    join_leave;
    consume;
    measure ~per:1 "idset.take_random_n_ns" (fun () -> Id_set.take_random_n ~rand:pick set100 1);
    measure ~per:1 "idset.split_arc_ns" (fun () -> Id_set.split_arc arc set100);
    measure ~per:1 "prng.int_below_ns" (fun () -> Prng.int_below rng 100);
    measure ~per:1 "sample.indices_ns" (fun () -> Sample.indices rng ~n:10_000 ~k:500);
    measure ~per:1 "arrivals.poisson_count_ns" (fun () -> Arrivals.poisson_count rng 700.0);
    note;
  ]
