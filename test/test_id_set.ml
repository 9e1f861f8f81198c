(* Ring-aware range splitting — the operation every DHT join depends on. *)

let i = Id.of_int
let set_of ints = Id_set.of_list (Testutil.ids_of_ints ints)
let to_ints s = List.map (fun id -> int_of_string ("0x" ^ Id.to_hex id)) (Id_set.elements s)

let test_split_no_wrap () =
  let s = set_of [ 1; 5; 10; 15; 20; 25 ] in
  let arc = Interval.make ~after:(i 5) ~upto:(i 20) in
  let inside, outside = Id_set.split_arc arc s in
  Alcotest.(check (list int)) "inside" [ 10; 15; 20 ] (to_ints inside);
  Alcotest.(check (list int)) "outside" [ 1; 5; 25 ] (to_ints outside)

let test_split_wrap () =
  let s = set_of [ 1; 5; 10; 15; 20; 25 ] in
  let arc = Interval.make ~after:(i 20) ~upto:(i 5) in
  let inside, outside = Id_set.split_arc arc s in
  Alcotest.(check (list int)) "inside" [ 1; 5; 25 ] (to_ints inside);
  Alcotest.(check (list int)) "outside" [ 10; 15; 20 ] (to_ints outside)

let test_split_full_ring () =
  let s = set_of [ 3; 7; 9 ] in
  let inside, outside = Id_set.split_arc (Interval.full (i 7)) s in
  Alcotest.(check int) "all inside" 3 (Id_set.cardinal inside);
  Alcotest.(check int) "none outside" 0 (Id_set.cardinal outside)

let test_boundaries () =
  let s = set_of [ 10; 20 ] in
  let arc = Interval.make ~after:(i 10) ~upto:(i 20) in
  let inside, outside = Id_set.split_arc arc s in
  (* after is excluded, upto included *)
  Alcotest.(check (list int)) "inside" [ 20 ] (to_ints inside);
  Alcotest.(check (list int)) "outside" [ 10 ] (to_ints outside)

let arb_id_list = QCheck.small_list Testutil.arb_small_id

let prop_partition =
  Testutil.prop ~count:1000 "split_arc partitions the set"
    (QCheck.triple arb_id_list Testutil.arb_small_id Testutil.arb_small_id)
    (fun (ids, a, b) ->
      let s = Id_set.of_list ids in
      let arc = Interval.make ~after:a ~upto:b in
      let inside, outside = Id_set.split_arc arc s in
      Id_set.check_invariants inside;
      Id_set.check_invariants outside;
      Id_set.cardinal inside + Id_set.cardinal outside = Id_set.cardinal s
      && List.for_all (fun x -> Interval.mem x arc) (Id_set.elements inside)
      && List.for_all (fun x -> not (Interval.mem x arc)) (Id_set.elements outside)
      && List.for_all (fun x -> Id_set.mem x s)
           (Id_set.elements inside @ Id_set.elements outside))

let prop_complement =
  Testutil.prop ~count:500 "inside of arc = outside of complement"
    (QCheck.triple arb_id_list Testutil.arb_small_id Testutil.arb_small_id)
    (fun (ids, a, b) ->
      QCheck.assume (not (Id.equal a b));
      let s = Id_set.of_list ids in
      let in1, _ = Id_set.split_arc (Interval.make ~after:a ~upto:b) s in
      let _, out2 = Id_set.split_arc (Interval.make ~after:b ~upto:a) s in
      (* (a,b] and (b,a] partition the ring, except the boundary points:
         b is in (a,b] and also not in... b IS the upto of arc1 and the
         'after' of arc2, so b ∈ arc1, b ∉ arc2 → b ∈ out2.  Likewise a. *)
      Id_set.elements in1 = Id_set.elements out2)

let () =
  Alcotest.run "id_set"
    [
      ( "unit",
        [
          Alcotest.test_case "no wrap" `Quick test_split_no_wrap;
          Alcotest.test_case "wrap" `Quick test_split_wrap;
          Alcotest.test_case "full ring" `Quick test_split_full_ring;
          Alcotest.test_case "boundaries" `Quick test_boundaries;
        ] );
      ("properties", [ prop_partition; prop_complement ]);
    ]
