(* Model-based tests of the size-augmented AVL set against Stdlib.Set. *)

module IntOrd = struct
  type t = int

  let compare = Int.compare
end

module S = Ordset.Make (IntOrd)
module M = Set.Make (IntOrd)


type op = Add of int | Remove of int | TakeMin

let arb_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (5, map (fun n -> Add n) (int_bound 200));
        (3, map (fun n -> Remove n) (int_bound 200));
        (1, return TakeMin);
      ]
  in
  (* Shrink both the sequence (dropping ops) and the individual
     arguments, so a failing trace minimises to the shortest op list
     with the smallest elements that still breaks. *)
  let shrink_op op yield =
    match op with
    | Add n -> QCheck.Shrink.int n (fun n' -> yield (Add n'))
    | Remove n -> QCheck.Shrink.int n (fun n' -> yield (Remove n'))
    | TakeMin -> ()
  in
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Add n -> Printf.sprintf "add %d" n
             | Remove n -> Printf.sprintf "rem %d" n
             | TakeMin -> "takemin")
           ops))
    ~shrink:(QCheck.Shrink.list ~shrink:shrink_op)
    (list_size (int_range 0 200) op)

let apply_ops ops =
  List.fold_left
    (fun (s, m) op ->
      match op with
      | Add n -> (S.add n s, M.add n m)
      | Remove n -> (S.remove n s, M.remove n m)
      | TakeMin -> (
        match (S.take_min s, M.min_elt_opt m) with
        | Some (x, s'), Some y ->
          assert (x = y);
          (s', M.remove y m)
        | None, None -> (s, m)
        | _ -> failwith "take_min disagrees with model"))
    (S.empty, M.empty) ops

let prop_model =
  Testutil.prop ~count:500 "random ops agree with Stdlib.Set" arb_ops (fun ops ->
      let s, m = apply_ops ops in
      S.check_invariants s;
      S.cardinal s = M.cardinal m
      && S.elements s = M.elements m
      && S.min_elt_opt s = M.min_elt_opt m
      && S.max_elt_opt s = M.max_elt_opt m)

let prop_split =
  Testutil.prop ~count:500 "split partitions correctly"
    QCheck.(pair (small_list (int_bound 500)) (int_bound 500))
    (fun (xs, pivot) ->
      let s = S.of_list xs in
      let lt, present, gt = S.split pivot s in
      S.check_invariants lt;
      S.check_invariants gt;
      List.for_all (fun x -> x < pivot) (S.elements lt)
      && List.for_all (fun x -> x > pivot) (S.elements gt)
      && present = S.mem pivot s
      && S.cardinal lt + S.cardinal gt + (if present then 1 else 0) = S.cardinal s)

let prop_union =
  Testutil.prop ~count:500 "union agrees with model"
    QCheck.(pair (small_list (int_bound 300)) (small_list (int_bound 300)))
    (fun (xs, ys) ->
      let u = S.union (S.of_list xs) (S.of_list ys) in
      S.check_invariants u;
      S.elements u = M.elements (M.union (M.of_list xs) (M.of_list ys)))

let prop_nth =
  Testutil.prop ~count:300 "nth enumerates in order"
    QCheck.(small_list (int_bound 1000))
    (fun xs ->
      let s = S.of_list xs in
      let elems = S.elements s in
      List.for_all2
        (fun i x -> S.nth s i = x)
        (List.init (List.length elems) Fun.id)
        elems)

let prop_extract_rank =
  Testutil.prop ~count:300 "extract_rank = (nth, remove nth)"
    QCheck.(pair (small_list (int_bound 500)) small_nat)
    (fun (xs, i) ->
      let s = S.of_list xs in
      QCheck.assume (S.cardinal s > 0);
      let i = i mod S.cardinal s in
      let x, s' = S.extract_rank s i in
      S.check_invariants s';
      x = S.nth s i && S.elements s' = S.elements (S.remove x s))

let prop_extract_ranks =
  Testutil.prop ~count:300 "extract_ranks removes exactly those ranks"
    QCheck.(pair (small_list (int_bound 500)) (small_list small_nat))
    (fun (xs, picks) ->
      let s = S.of_list xs in
      QCheck.assume (S.cardinal s > 0);
      let ranks =
        List.sort_uniq Int.compare (List.map (fun i -> i mod S.cardinal s) picks)
      in
      let taken, s' = S.extract_ranks s ranks in
      S.check_invariants s';
      let expected = List.map (S.nth s) ranks in
      taken = expected
      && S.cardinal s' = S.cardinal s - List.length ranks
      && List.for_all (fun x -> not (S.mem x s')) taken)

(* The load-bearing property for Dht.consume_vnode stream compatibility:
   with the same [rand] draw sequence, the one-pass bulk removal picks
   exactly the elements the old nth-then-remove loop picked, in the same
   order of draws. *)
let prop_take_random_n_matches_loop =
  Testutil.prop ~count:300 "take_random_n = sequential nth/remove loop"
    QCheck.(triple (small_list (int_bound 1000)) small_nat small_nat)
    (fun (xs, n, seed) ->
      let s = S.of_list xs in
      let reference rand =
        let rec go acc s k =
          if k = 0 || S.cardinal s = 0 then (List.rev acc, s)
          else begin
            let x = S.nth s (rand (S.cardinal s)) in
            go (x :: acc) (S.remove x s) (k - 1)
          end
        in
        go [] s n
      in
      let mk_rand () =
        let rng = Prng.create seed in
        fun bound -> Prng.int_below rng bound
      in
      let ref_taken, ref_rest = reference (mk_rand ()) in
      let bulk_taken, bulk_rest = S.take_random_n ~rand:(mk_rand ()) s n in
      S.check_invariants bulk_rest;
      (* the loop reports draw order, the bulk pass rank order *)
      List.sort Int.compare bulk_taken = List.sort Int.compare ref_taken
      && S.elements bulk_rest = S.elements ref_rest)

let test_extract_ranks_rejects () =
  let s = S.of_list [ 1; 2; 3 ] in
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Ordset.extract_ranks: rank out of bounds") (fun () ->
      ignore (S.extract_ranks s [ 3 ]));
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Ordset.extract_ranks: ranks not strictly increasing")
    (fun () -> ignore (S.extract_ranks s [ 1; 0 ]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Ordset.extract_ranks: negative rank") (fun () ->
      ignore (S.extract_ranks s [ -1 ]))

let test_take_random_n_edges () =
  let s = S.of_list [ 1; 2; 3 ] in
  let no_rand _ = Alcotest.fail "rand must not be consulted" in
  Alcotest.(check bool) "n=0 unchanged" true
    (let taken, s' = S.take_random_n ~rand:no_rand s 0 in
     taken = [] && S.elements s' = [ 1; 2; 3 ]);
  Alcotest.(check bool) "empty set" true
    (let taken, s' = S.take_random_n ~rand:no_rand S.empty 5 in
     taken = [] && S.is_empty s');
  (* n beyond cardinal drains the set with exactly [cardinal] draws *)
  let draws = ref [] in
  let rand b =
    draws := b :: !draws;
    0
  in
  let taken, s' = S.take_random_n ~rand s 10 in
  Alcotest.(check (list int)) "drained" [ 1; 2; 3 ] (List.sort Int.compare taken);
  Alcotest.(check bool) "empty after" true (S.is_empty s');
  Alcotest.(check (list int)) "bounds shrink" [ 3; 2; 1 ] (List.rev !draws);
  Alcotest.check_raises "rand out of range"
    (Invalid_argument "Ordset.take_random_n: rand out of range") (fun () ->
      ignore (S.take_random_n ~rand:(fun b -> b) (S.of_list [ 1; 2 ]) 2))

let test_empty () =
  Alcotest.(check bool) "is_empty" true (S.is_empty S.empty);
  Alcotest.(check int) "cardinal" 0 (S.cardinal S.empty);
  Alcotest.(check bool) "take_min none" true (S.take_min S.empty = None);
  Alcotest.(check bool) "min none" true (S.min_elt_opt S.empty = None)

let test_add_idempotent () =
  let s = S.add 5 (S.add 5 S.empty) in
  Alcotest.(check int) "cardinal 1" 1 (S.cardinal s);
  let s0 = S.add 5 S.empty in
  (* physical equality when the element is already present *)
  Alcotest.(check bool) "physically equal" true (S.add 5 s0 == s0)

let test_nth_bounds () =
  let s = S.of_list [ 1; 2; 3 ] in
  Alcotest.(check int) "nth 0" 1 (S.nth s 0);
  Alcotest.(check int) "nth 2" 3 (S.nth s 2);
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Ordset.nth: index out of bounds") (fun () ->
      ignore (S.nth s 3))

let test_large_sequential () =
  (* Sequential inserts are the worst case for naive BSTs; the AVL must
     stay balanced (checked) and retain all elements. *)
  let s = ref S.empty in
  for i = 1 to 10_000 do
    s := S.add i !s
  done;
  S.check_invariants !s;
  Alcotest.(check int) "cardinal" 10_000 (S.cardinal !s);
  Alcotest.(check (option int)) "min" (Some 1) (S.min_elt_opt !s);
  Alcotest.(check (option int)) "max" (Some 10_000) (S.max_elt_opt !s);
  Alcotest.(check int) "nth 5000" 5001 (S.nth !s 5000)

let () =
  Alcotest.run "ordset"
    [
      ( "unit",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "add idempotent" `Quick test_add_idempotent;
          Alcotest.test_case "nth bounds" `Quick test_nth_bounds;
          Alcotest.test_case "10k sequential inserts" `Quick test_large_sequential;
          Alcotest.test_case "extract_ranks rejects" `Quick test_extract_ranks_rejects;
          Alcotest.test_case "take_random_n edges" `Quick test_take_random_n_edges;
        ] );
      ( "properties",
        [
          prop_model;
          prop_split;
          prop_union;
          prop_nth;
          prop_extract_rank;
          prop_extract_ranks;
          prop_take_random_n_matches_loop;
        ] );
    ]
