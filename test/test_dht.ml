(* DHT join/leave key-transfer semantics: the heart of the simulator. *)

let i = Id.of_int

(* Deterministic leftmost pick: tests below assert counts, not spread. *)
let leftmost _ = 0
(* Consume by vnode id; a non-member consumes nothing. *)
let consume dht id n =
  match Dht.find dht id with
  | Some vn -> Dht.consume_vnode ~pick:leftmost dht vn n
  | None -> 0

let mk_dht node_ints key_ints =
  let dht = Dht.create () in
  List.iter
    (fun n ->
      match Dht.join dht ~id:(i n) ~payload:n with
      | Ok _ -> ()
      | Error `Occupied -> Alcotest.fail "duplicate join in fixture")
    node_ints;
  List.iter
    (fun k ->
      match Dht.insert_key dht (i k) with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "insert in fixture")
    key_ints;
  dht

let test_join_takes_range () =
  let dht = mk_dht [ 100; 200 ] [ 120; 150; 180; 250 ] in
  (* keys 120..180 belong to 200; 250 wraps to 100 *)
  Alcotest.(check int) "owner 200" 3 (Dht.workload dht (i 200));
  Alcotest.(check int) "owner 100" 1 (Dht.workload dht (i 100));
  (* join at 150: takes (100, 150] = {120, 150} from 200 *)
  (match Dht.join dht ~id:(i 150) ~payload:150 with
  | Ok vn -> Alcotest.(check int) "acquired" 2 (Id_set.cardinal vn.Dht.keys)
  | Error `Occupied -> Alcotest.fail "join");
  Alcotest.(check int) "200 keeps" 1 (Dht.workload dht (i 200));
  Dht.check_invariants dht

let test_join_occupied () =
  let dht = mk_dht [ 100 ] [] in
  match Dht.join dht ~id:(i 100) ~payload:0 with
  | Error `Occupied -> ()
  | Ok _ -> Alcotest.fail "should refuse occupied id"

let test_leave_hands_keys_over () =
  let dht = mk_dht [ 100; 200; 300 ] [ 150; 250; 350 ] in
  (match Dht.leave dht (i 200) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "leave");
  Alcotest.(check int) "size" 2 (Dht.size dht);
  (* 200's key (150) goes to its successor 300 *)
  Alcotest.(check int) "300 inherits" 2 (Dht.workload dht (i 300));
  Alcotest.(check int) "total conserved" 3 (Dht.total_keys dht);
  Dht.check_invariants dht

let test_leave_last_node () =
  let dht = mk_dht [ 100 ] [ 50 ] in
  (match Dht.leave dht (i 100) with
  | Error `Last_node -> ()
  | _ -> Alcotest.fail "must protect the last key holder");
  (* consume the key, then leaving is allowed *)
  let _ = consume dht (i 100) 1 in
  match Dht.leave dht (i 100) with
  | Ok () -> Alcotest.(check int) "empty" 0 (Dht.size dht)
  | Error _ -> Alcotest.fail "empty last node may leave"

let test_leave_not_member () =
  let dht = mk_dht [ 100 ] [] in
  match Dht.leave dht (i 5) with
  | Error `Not_member -> ()
  | _ -> Alcotest.fail "unknown id"

let test_insert_and_owner () =
  let dht = mk_dht [ 100; 200 ] [] in
  Alcotest.(check bool) "empty ring insert" true
    (Dht.insert_key (Dht.create ()) (i 5) = Error `Empty_ring);
  (match Dht.insert_key dht (i 150) with Ok () -> () | Error _ -> Alcotest.fail "insert");
  Alcotest.(check bool) "duplicate" true (Dht.insert_key dht (i 150) = Error `Duplicate);
  (match Dht.owner_of dht (i 150) with
  | Some vn -> Alcotest.(check int) "owner payload" 200 vn.Dht.payload
  | None -> Alcotest.fail "owner");
  match Dht.owner_of dht (i 250) with
  | Some vn -> Alcotest.(check int) "wrap owner" 100 vn.Dht.payload
  | None -> Alcotest.fail "wrap owner"

let test_consume () =
  let dht = mk_dht [ 100 ] [ 10; 20; 30 ] in
  Alcotest.(check int) "consume 2" 2 (consume dht (i 100) 2);
  Alcotest.(check int) "remaining" 1 (Dht.workload dht (i 100));
  Alcotest.(check int) "consume beyond" 1 (consume dht (i 100) 5);
  Alcotest.(check int) "drained" 0 (consume dht (i 100) 5);
  Alcotest.(check int) "non-member" 0 (consume dht (i 999) 5);
  Alcotest.(check int) "total zero" 0 (Dht.total_keys dht)

let test_neighbors () =
  let dht = mk_dht [ 100; 200; 300 ] [] in
  (match Dht.successor dht (i 100) with
  | Some vn -> Alcotest.(check int) "succ" 200 vn.Dht.payload
  | None -> Alcotest.fail "succ");
  (match Dht.predecessor dht (i 100) with
  | Some vn -> Alcotest.(check int) "pred wraps" 300 vn.Dht.payload
  | None -> Alcotest.fail "pred");
  Alcotest.(check int) "k_successors" 2
    (List.length (Dht.k_successors dht (i 100) 5))

let test_fold_and_vnode_ids () =
  let dht = mk_dht [ 100; 200; 300 ] [ 150; 250 ] in
  Alcotest.(check (list int)) "vnode ids sorted"
    [ 100; 200; 300 ]
    (List.map
       (fun id -> int_of_string ("0x" ^ Id.to_hex id))
       (Dht.vnode_ids dht));
  let payload_sum = Dht.fold (fun vn acc -> acc + vn.Dht.payload) dht 0 in
  Alcotest.(check int) "fold payloads" 600 payload_sum;
  (match Dht.find dht (i 200) with
  | Some vn -> Alcotest.(check int) "find payload" 200 vn.Dht.payload
  | None -> Alcotest.fail "find");
  Alcotest.(check bool) "find missing" true (Dht.find dht (i 999) = None)

(* Random operation sequences must conserve keys and keep every key
   inside its owner's arc. *)
let prop_random_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (4, map (fun n -> `Join n) (int_bound 1023));
        (2, map (fun n -> `Leave n) (int_bound 1023));
        (3, map (fun n -> `Insert n) (int_bound 1023));
        (2, map (fun (a, b) -> `Consume (a, b)) (pair (int_bound 1023) (int_bound 3)));
      ]
  in
  (* Print the full op trace (not just its length) and shrink both the
     sequence and the ids, so a failure reproduces from the output. *)
  let print_op = function
    | `Join n -> Printf.sprintf "join %d" n
    | `Leave n -> Printf.sprintf "leave %d" n
    | `Insert n -> Printf.sprintf "insert %d" n
    | `Consume (n, c) -> Printf.sprintf "consume %d x%d" n c
  in
  let shrink_op o yield =
    match o with
    | `Join n -> QCheck.Shrink.int n (fun n' -> yield (`Join n'))
    | `Leave n -> QCheck.Shrink.int n (fun n' -> yield (`Leave n'))
    | `Insert n -> QCheck.Shrink.int n (fun n' -> yield (`Insert n'))
    | `Consume (n, c) ->
      QCheck.Shrink.int n (fun n' -> yield (`Consume (n', c)));
      QCheck.Shrink.int c (fun c' -> yield (`Consume (n, c')))
  in
  let arb =
    QCheck.make
      ~print:(fun ops -> String.concat ";" (List.map print_op ops))
      ~shrink:(QCheck.Shrink.list ~shrink:shrink_op)
      (list_size (int_range 1 120) op)
  in
  Testutil.prop ~count:200 "random join/leave/insert/consume keeps invariants" arb
    (fun ops ->
      let dht = Dht.create () in
      let inserted = ref 0 and consumed = ref 0 in
      List.iter
        (function
          | `Join n -> ignore (Dht.join dht ~id:(i n) ~payload:n)
          | `Leave n -> ignore (Dht.leave dht (i n))
          | `Insert n -> (
            match Dht.insert_key dht (i n) with
            | Ok () -> incr inserted
            | Error _ -> ())
          | `Consume (n, c) -> consumed := !consumed + consume dht (i n) c)
        ops;
      Dht.check_invariants dht;
      Dht.total_keys dht = !inserted - !consumed)

let test_consume_rejects_bad_pick () =
  let dht = mk_dht [ 100 ] [ 10; 20; 30 ] in
  Alcotest.check_raises "pick out of range"
    (Invalid_argument "Dht.consume_vnode_keys: pick out of range") (fun () ->
      let vn = Option.get (Dht.find dht (i 100)) in
      ignore (Dht.consume_vnode ~pick:(fun c -> c) dht vn 1))

(* Bulk loading must land every key on the same owner as one-at-a-time
   insertion, drop duplicates the same way, and count what it stored. *)
let test_insert_keys_bulk_matches_single () =
  let nodes = [ 100; 300; 700 ] in
  let keys = [ 50; 100; 150; 300; 301; 650; 700; 701; 900; 50 (* dup *) ] in
  let bulk = mk_dht nodes [] in
  (match Dht.insert_keys bulk (Array.of_list (List.map i keys)) with
  | Ok n -> Alcotest.(check int) "inserted count" 9 n
  | Error `Empty_ring -> Alcotest.fail "ring not empty");
  (* a second bulk load of the same batch stores nothing new *)
  (match Dht.insert_keys bulk (Array.of_list (List.map i keys)) with
  | Ok n -> Alcotest.(check int) "all duplicates" 0 n
  | Error `Empty_ring -> Alcotest.fail "ring not empty");
  let single = mk_dht nodes [] in
  List.iter (fun k -> ignore (Dht.insert_key single (i k))) keys;
  List.iter
    (fun node ->
      Alcotest.(check int)
        (Printf.sprintf "workload of %d" node)
        (Dht.workload single (i node))
        (Dht.workload bulk (i node)))
    nodes;
  Alcotest.(check int) "total" (Dht.total_keys single) (Dht.total_keys bulk);
  Dht.check_invariants bulk

let test_insert_keys_edge_rings () =
  (match Dht.insert_keys (Dht.create ()) [| i 5 |] with
  | Error `Empty_ring -> ()
  | Ok _ -> Alcotest.fail "empty ring must be rejected");
  let lone = mk_dht [ 100 ] [] in
  (match Dht.insert_keys lone [| i 5; i 100; i 900 |] with
  | Ok n -> Alcotest.(check int) "lone vnode takes all" 3 n
  | Error `Empty_ring -> Alcotest.fail "ring not empty");
  Alcotest.(check int) "lone workload" 3 (Dht.workload lone (i 100));
  Dht.check_invariants lone;
  let empty_batch = mk_dht [ 100; 200 ] [] in
  match Dht.insert_keys empty_batch [||] with
  | Ok n -> Alcotest.(check int) "empty batch" 0 n
  | Error `Empty_ring -> Alcotest.fail "ring not empty"

let test_check_invariants_sample () =
  let dht, _ = Testutil.sample_dht ~nodes:200 ~keys:2000 () in
  Dht.check_invariants dht;
  Alcotest.(check int) "size" 200 (Dht.size dht);
  Alcotest.(check bool) "keys stored" true (Dht.total_keys dht > 1900)

let () =
  Alcotest.run "dht"
    [
      ( "unit",
        [
          Alcotest.test_case "join takes range" `Quick test_join_takes_range;
          Alcotest.test_case "join occupied" `Quick test_join_occupied;
          Alcotest.test_case "leave hands keys" `Quick test_leave_hands_keys_over;
          Alcotest.test_case "last node protection" `Quick test_leave_last_node;
          Alcotest.test_case "leave non-member" `Quick test_leave_not_member;
          Alcotest.test_case "insert/owner" `Quick test_insert_and_owner;
          Alcotest.test_case "consume" `Quick test_consume;
          Alcotest.test_case "consume bad pick" `Quick test_consume_rejects_bad_pick;
          Alcotest.test_case "insert_keys bulk = single" `Quick
            test_insert_keys_bulk_matches_single;
          Alcotest.test_case "insert_keys edge rings" `Quick
            test_insert_keys_edge_rings;
          Alcotest.test_case "neighbors" `Quick test_neighbors;
          Alcotest.test_case "bulk fixture invariants" `Quick
            test_check_invariants_sample;
          Alcotest.test_case "fold/vnode_ids/find" `Quick test_fold_and_vnode_ids;
        ] );
      ("properties", [ prop_random_ops ]);
    ]
