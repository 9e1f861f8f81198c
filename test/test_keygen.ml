(* Key and id generation. *)

let test_fresh_deterministic () =
  let a = Keygen.fresh (Prng.create 1) and b = Keygen.fresh (Prng.create 1) in
  Alcotest.check Testutil.check_id "same seed same id" a b;
  let c = Keygen.fresh (Prng.create 2) in
  Alcotest.(check bool) "different seed" false (Id.equal a c)

let test_distinct () =
  let ids = Keygen.node_ids (Prng.create 3) 500 in
  let set = Id_set.of_list (Array.to_list ids) in
  Alcotest.(check int) "all distinct" 500 (Id_set.cardinal set)

let test_fresh_distinct_avoids () =
  let rng = Prng.create 4 in
  (* Force the next draw to collide by pre-inserting it. *)
  let probe = Keygen.fresh (Prng.create 4) in
  let taken = Id_set.add probe Id_set.empty in
  let id = Keygen.fresh_distinct rng taken in
  Alcotest.(check bool) "avoided" false (Id.equal id probe)

let test_even_ids () =
  let ids = Keygen.even_ids 4 in
  Alcotest.(check int) "count" 4 (Array.length ids);
  Alcotest.check Testutil.check_id "first at zero" Id.zero ids.(0);
  (* spacing: consecutive fractions differ by 1/4 *)
  Array.iteri
    (fun k id ->
      let f = Id.to_fraction id in
      if Float.abs (f -. (float_of_int k /. 4.0)) > 1e-9 then
        Alcotest.failf "id %d at fraction %f" k f)
    ids;
  Alcotest.check_raises "n<1" (Invalid_argument "Keygen.even_ids: n < 1") (fun () ->
      ignore (Keygen.even_ids 0))

let test_zipf_bounds () =
  let rng = Prng.create 5 and ranks = Keygen.zipf_table ~n:50 ~s:1.1 in
  for _ = 1 to 1000 do
    let r = Keygen.zipf rng ranks in
    if r < 1 || r > 50 then Alcotest.failf "zipf rank %d out of [1,50]" r
  done

let test_zipf_skew () =
  let rng = Prng.create 6 and ranks = Keygen.zipf_table ~n:50 ~s:1.2 in
  let counts = Array.make 51 0 in
  for _ = 1 to 20_000 do
    let r = Keygen.zipf rng ranks in
    counts.(r) <- counts.(r) + 1
  done;
  Alcotest.(check bool) "rank 1 most popular" true (counts.(1) > counts.(2));
  Alcotest.(check bool) "heavy head" true (counts.(1) > 10 * counts.(50));
  Alcotest.check_raises "n<1" (Invalid_argument "Keygen.zipf_table: n < 1")
    (fun () -> ignore (Keygen.zipf_table ~n:0 ~s:1.0))

let test_zipf_uniform_when_s0 () =
  let rng = Prng.create 7 and ranks = Keygen.zipf_table ~n:10 ~s:0.0 in
  let counts = Array.make 11 0 in
  for _ = 1 to 20_000 do
    let r = Keygen.zipf rng ranks in
    counts.(r) <- counts.(r) + 1
  done;
  Array.iteri
    (fun i c ->
      if i >= 1 && (c < 1600 || c > 2400) then
        Alcotest.failf "s=0 bucket %d count %d not ~2000" i c)
    counts

let prop_fresh_is_sha1_output =
  Testutil.prop ~count:100 "fresh ids differ draw to draw" QCheck.small_int
    (fun seed ->
      let rng = Prng.create seed in
      let a = Keygen.fresh rng and b = Keygen.fresh rng in
      not (Id.equal a b))

(* The prefix table picks the rank the oracle's linear scan picks, from
   the same single draw, so both leave the generator in the same state. *)
let prop_zipf_table_is_scan =
  Testutil.prop ~count:300 "zipf table draw = the oracle's scan"
    QCheck.(
      triple (int_range 1 2000) (oneofl [ 0.0; 0.5; 1.0; 1.1; 2.5 ]) int)
    (fun (n, s, seed) ->
      let ranks = Keygen.zipf_table ~n ~s in
      let a = Prng.create seed and b = Prng.create seed in
      List.for_all
        (fun _ -> Keygen.zipf a ranks = Oracle.zipf_scan b ~n ~s)
        (List.init 20 Fun.id)
      && Prng.state_equal (Prng.capture a) (Prng.capture b))

let () =
  Alcotest.run "keygen"
    [
      ( "unit",
        [
          Alcotest.test_case "deterministic" `Quick test_fresh_deterministic;
          Alcotest.test_case "distinct" `Quick test_distinct;
          Alcotest.test_case "fresh_distinct avoids" `Quick test_fresh_distinct_avoids;
          Alcotest.test_case "even_ids" `Quick test_even_ids;
          Alcotest.test_case "zipf bounds" `Quick test_zipf_bounds;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
          Alcotest.test_case "zipf s=0 uniform" `Quick test_zipf_uniform_when_s0;
        ] );
      ("properties", [ prop_fresh_is_sha1_output; prop_zipf_table_is_scan ]);
    ]
