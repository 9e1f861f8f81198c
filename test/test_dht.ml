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
  | Ok vn -> Alcotest.(check int) "acquired" 2 (Dht.load vn)
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
  (* consume the key: the keyless last vnode must still stay, or the
     next insert would find an empty ring *)
  let _ = consume dht (i 100) 1 in
  match Dht.leave dht (i 100) with
  | Error `Last_node -> Alcotest.(check int) "still a member" 1 (Dht.size dht)
  | _ -> Alcotest.fail "the last vnode must stay even when keyless"

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

(* ---- the ordered index against a [Ring.t] model ------------------- *)

(* Members and keys are drawn from a pool of ids of one family.  Small
   ids all share prefix 0 and the two shared-head families tie on the
   top 62 bits, so every comparison in those rings and in the packed key
   stores takes the full-id path.  Keys and member ids share the pool,
   so keys landing exactly on an arc's ends are common.  The pool is
   sorted, so a run of pool slots is a run of ring neighbours: a few
   hundred joins split chunks, and a sweep of leaves and crashes over
   consecutive slots empties them again. *)
type family = Fresh | Small | Shared_head | Shared_prefix

let family_name = function
  | Fresh -> "fresh"
  | Small -> "small"
  | Shared_head -> "shared-head"
  | Shared_prefix -> "shared-prefix"

let pool_size = 512

module Keys = Set.Make (Id)

let id_pool family seed =
  let rng = Prng.create seed in
  let head = Bytes.create 8 in
  Prng.fill_bytes rng head;
  let with_head () =
    let b = Bytes.create Id.bytes_len in
    Prng.fill_bytes rng b;
    Bytes.blit head 0 b 0 8;
    b
  in
  let pool =
    Array.init pool_size (fun n ->
        match family with
        | Fresh -> Keygen.fresh rng
        | Small -> Id.of_int (Prng.int_below rng 4096)
        | Shared_head -> Id.of_raw_string (Bytes.to_string (with_head ()))
        | Shared_prefix ->
          (* Same top 62 bits; bits 62-63 and the tail vary. *)
          let b = with_head () in
          Bytes.set b 7
            (Char.chr ((Char.code (Bytes.get b 7) land 0xfc) lor (n land 3)));
          Id.of_raw_string (Bytes.to_string b))
  in
  Array.sort Id.compare pool;
  pool

type model_op =
  | M_join of int
  | M_leave of int
  | M_crash of int
  | M_insert of int
  | M_bulk of int * int
  | M_consume of int * int * int  (** slot, budget, pick seed *)

let print_model_op = function
  | M_join n -> Printf.sprintf "join %d" n
  | M_leave n -> Printf.sprintf "leave %d" n
  | M_crash n -> Printf.sprintf "crash %d" n
  | M_insert n -> Printf.sprintf "insert %d" n
  | M_bulk (n, c) -> Printf.sprintf "bulk %d x%d" n c
  | M_consume (n, c, seed) -> Printf.sprintf "consume %d x%d seed=%d" n c seed

let prop_index_matches_ring =
  let open QCheck.Gen in
  let slot = int_bound (pool_size - 1) in
  let grow =
    frequency [ (5, map (fun n -> M_join n) slot); (1, map (fun n -> M_insert n) slot) ]
  in
  let mixed =
    frequency
      [
        (3, map (fun n -> M_join n) slot);
        (4, map (fun n -> M_leave n) slot);
        (2, map (fun n -> M_crash n) slot);
        (2, map (fun n -> M_insert n) slot);
        (1, map (fun (n, c) -> M_bulk (n, c)) (pair slot (int_bound 40)));
        ( 2,
          map
            (fun (n, c, seed) -> M_consume (n, c, seed))
            (triple slot (int_bound 6) (int_bound 1_000_000)) );
      ]
  in
  let sweep =
    let* start = slot in
    let* width = int_range 0 300 in
    let* crash = bool in
    return
      (List.init width (fun j ->
           let n = (start + j) mod pool_size in
           if crash then M_crash n else M_leave n))
  in
  let gen =
    let* family = oneofl [ Fresh; Small; Shared_head; Shared_prefix ] in
    let* seed = int_bound 1_000_000 in
    let* grown = list_size (int_range 0 400) grow in
    let* before = list_size (int_range 0 150) mixed in
    let* swept = sweep in
    let* after = list_size (int_range 0 150) mixed in
    return (family, seed, List.concat [ grown; before; swept; after ])
  in
  let shrink_op o yield =
    match o with
    | M_join n -> QCheck.Shrink.int n (fun n' -> yield (M_join n'))
    | M_leave n -> QCheck.Shrink.int n (fun n' -> yield (M_leave n'))
    | M_crash n -> QCheck.Shrink.int n (fun n' -> yield (M_crash n'))
    | M_insert n -> QCheck.Shrink.int n (fun n' -> yield (M_insert n'))
    | M_bulk (n, c) ->
      QCheck.Shrink.int n (fun n' -> yield (M_bulk (n', c)));
      QCheck.Shrink.int c (fun c' -> yield (M_bulk (n, c')))
    | M_consume (n, c, seed) ->
      QCheck.Shrink.int n (fun n' -> yield (M_consume (n', c, seed)));
      QCheck.Shrink.int c (fun c' -> yield (M_consume (n, c', seed)))
  in
  let arb =
    QCheck.make
      ~print:(fun (family, seed, ops) ->
        Printf.sprintf "family=%s seed=%d ops=[%s]" (family_name family) seed
          (String.concat ";" (List.map print_model_op ops)))
      ~shrink:(fun (family, seed, ops) yield ->
        QCheck.Shrink.list ~shrink:shrink_op ops (fun ops' -> yield (family, seed, ops')))
      gen
  in
  Testutil.prop ~count:60 "index matches a Ring model after every op" arb
    (fun (family, seed, ops) ->
      let pool = id_pool family seed in
      let dht = Dht.create () in
      let ring = ref Ring.empty and keys = ref Keys.empty in
      let ids = List.map (fun vn -> vn.Dht.id) in
      let fail step what =
        QCheck.Test.fail_reportf "op %d (%s): %s" step
          (print_model_op (List.nth ops step))
          what
      in
      let same_vnode step what got want =
        match (got, want) with
        | None, None -> ()
        | Some vn, Some (id, _) when Id.equal vn.Dht.id id -> ()
        | _ -> fail step what
      in
      (* The keys a member owns: its arc's share of the stored keys. *)
      let arc_keys id =
        match Ring.arc_of id !ring with
        | None -> Keys.empty
        | Some arc -> Keys.filter (fun k -> Interval.mem k arc) !keys
      in
      let stored vn =
        let acc = ref [] in
        Dht.iter_keys (fun k -> acc := k :: !acc) vn;
        List.rev !acc
      in
      let compare_with_model step probe_id =
        let n = Ring.cardinal !ring in
        if Dht.size dht <> n then fail step "size";
        if Dht.total_keys dht <> Keys.cardinal !keys then fail step "total_keys";
        let order = List.map fst (Ring.bindings !ring) in
        if not (List.equal Id.equal (Dht.vnode_ids dht) order) then
          fail step "vnode_ids order";
        let visited = ref [] in
        Dht.iter (fun vn -> visited := vn.Dht.id :: !visited) dht;
        if not (List.equal Id.equal (List.rev !visited) order) then
          fail step "iter order";
        let probes =
          [ probe_id; pool.((step * 37) mod pool_size); Id.zero; Id.max_id ]
        in
        List.iteri
          (fun j p ->
            (match (Dht.find dht p, Ring.find_opt p !ring) with
            | None, None -> ()
            | Some vn, Some () when Id.equal vn.Dht.id p -> ()
            | _ -> fail step "find");
            same_vnode step "owner_of" (Dht.owner_of dht p) (Ring.successor_incl p !ring);
            (* The owner's whole key store, in order, against its arc. *)
            Option.iter
              (fun vn ->
                let want = Keys.elements (arc_keys vn.Dht.id) in
                if Dht.load vn <> List.length want then fail step "load";
                if not (List.equal Id.equal (stored vn) want) then fail step "stored keys")
              (Dht.owner_of dht p);
            same_vnode step "successor" (Dht.successor dht p) (Ring.successor p !ring);
            same_vnode step "predecessor" (Dht.predecessor dht p)
              (Ring.predecessor p !ring);
            (match (Dht.arc_of dht p, Ring.arc_of p !ring) with
            | None, None -> ()
            | Some a, Some b
              when Id.equal a.Interval.after b.Interval.after
                   && Id.equal a.Interval.upto b.Interval.upto ->
              ()
            | _ -> fail step "arc_of");
            let k = if j = 0 then n + 1 else (step + j) mod (n + 2) in
            if
              not
                (List.equal Id.equal
                   (ids (Dht.k_successors dht p k))
                   (List.map fst (Ring.k_successors p k !ring)))
            then fail step (Printf.sprintf "k_successors k=%d" k);
            if
              not
                (List.equal Id.equal
                   (ids (Dht.k_predecessors dht p k))
                   (List.map fst (Ring.k_predecessors p k !ring)))
            then fail step (Printf.sprintf "k_predecessors k=%d" k))
          probes;
        Dht.check_invariants dht
      in
      List.iteri
        (fun step op ->
          let probe_id =
            match op with
            | M_join n | M_leave n | M_crash n | M_insert n | M_bulk (n, _)
            | M_consume (n, _, _) ->
              pool.(n)
          in
          (match op with
          | M_join n -> (
            let id = pool.(n) in
            match (Dht.join dht ~id ~payload:(), Ring.mem id !ring) with
            | Ok _, false -> ring := Ring.add id () !ring
            | Error `Occupied, true -> ()
            | _ -> fail step "join verdict")
          | M_leave n -> (
            let id = pool.(n) in
            let member = Ring.mem id !ring in
            let last = Ring.cardinal !ring = 1 in
            match Dht.leave dht id with
            | Ok () when member && not last -> ring := Ring.remove id !ring
            | Error `Not_member when not member -> ()
            | Error `Last_node when member && last -> ()
            | _ -> fail step "leave verdict")
          | M_crash n -> (
            let id = pool.(n) in
            let lost = arc_keys id in
            match (Dht.crash dht id, Ring.mem id !ring) with
            | Ok got, true ->
              let listed = ref [] in
              Dht.keys_iter (fun k -> listed := k :: !listed) got;
              if
                Dht.keys_count got <> Keys.cardinal lost
                || not (List.equal Id.equal (List.rev !listed) (Keys.elements lost))
              then fail step "crashed keys";
              ring := Ring.remove id !ring;
              keys := Keys.diff !keys lost
            | Error `Not_member, false -> ()
            | _ -> fail step "crash verdict")
          | M_insert n -> (
            let key = pool.(n) in
            match Dht.insert_key dht key with
            | Ok () when (not (Ring.is_empty !ring)) && not (Keys.mem key !keys) ->
              keys := Keys.add key !keys
            | Error `Duplicate when Keys.mem key !keys -> ()
            | Error `Empty_ring when Ring.is_empty !ring -> ()
            | _ -> fail step "insert verdict")
          | M_bulk (n, c) -> (
            let batch = Array.init c (fun j -> pool.((n + j) mod pool_size)) in
            let fresh = Keys.diff (Keys.of_seq (Array.to_seq batch)) !keys in
            match Dht.insert_keys dht batch with
            | Ok got when not (Ring.is_empty !ring) ->
              if got <> Keys.cardinal fresh then fail step "bulk count";
              keys := Keys.union !keys fresh
            | Error `Empty_ring when Ring.is_empty !ring -> ()
            | _ -> fail step "bulk verdict")
          | M_consume (n, budget, seed) -> (
            (* The model draws the same ranks from the owner's arc keys in
               id order and removes each as it goes. *)
            match (Dht.owner_of dht pool.(n), Ring.successor_incl pool.(n) !ring) with
            | None, None -> ()
            | Some vn, Some (id, ()) when Id.equal vn.Dht.id id ->
              let pick = Prng.int_below (Prng.create seed) in
              let model_pick = Prng.int_below (Prng.create seed) in
              let rest = ref (Keys.elements (arc_keys id)) and gone = ref [] in
              for _ = 1 to min budget (List.length !rest) do
                let r = model_pick (List.length !rest) in
                gone := List.nth !rest r :: !gone;
                rest := List.filteri (fun j _ -> j <> r) !rest
              done;
              let gone = List.sort Id.compare !gone in
              (* Odd seeds take the keys, even ones only count them. *)
              if seed land 1 = 1 then begin
                if not (List.equal Id.equal (Dht.consume_vnode_keys ~pick dht vn budget) gone)
                then fail step "consumed keys"
              end
              else if Dht.consume_vnode ~pick dht vn budget <> List.length gone then
                fail step "consumed count";
              keys := Keys.diff !keys (Keys.of_list gone)
            | _ -> fail step "consume owner"));
          compare_with_model step probe_id)
        ops;
      true)

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

(* ---- the packed key store ----------------------------------------- *)

let keys_of vn =
  let acc = ref [] in
  Dht.iter_keys (fun k -> acc := k :: !acc) vn;
  List.rev !acc

let id_list = Alcotest.(list (testable Id.pp Id.equal))

(* Ids that tie on the top 62 bits, so every comparison between two of
   them reads the full bytes: [low] sets bits 62-63, [tail] the last
   byte. *)
let tied ~low ~tail =
  let b = Bytes.make Id.bytes_len '\000' in
  Bytes.blit_string "\x80\x11\x22\x33\x44\x55\x66" 0 b 0 7;
  Bytes.set b 7 (Char.chr (0xa4 lor low));
  Bytes.set b (Id.bytes_len - 1) (Char.chr tail);
  Id.of_raw_string (Bytes.to_string b)

let test_key_at_order () =
  let keys =
    [
      tied ~low:3 ~tail:0; tied ~low:0 ~tail:9; tied ~low:0 ~tail:2;
      tied ~low:2 ~tail:5; tied ~low:1 ~tail:7;
    ]
  in
  let dht = mk_dht [ 100 ] [] in
  List.iter (fun k -> ignore (Dht.insert_key dht k)) keys;
  let vn = Option.get (Dht.find dht (i 100)) in
  let want = List.sort Id.compare keys in
  Alcotest.(check int) "load" 5 (Dht.load vn);
  Alcotest.check id_list "iter_keys ascends" want (keys_of vn);
  Alcotest.check id_list "key_at ranks" want (List.init (Dht.load vn) (Dht.key_at vn));
  Alcotest.check_raises "rank = load"
    (Invalid_argument "Dht.key_at: rank out of range") (fun () -> ignore (Dht.key_at vn 5));
  Alcotest.check_raises "negative rank"
    (Invalid_argument "Dht.key_at: rank out of range") (fun () -> ignore (Dht.key_at vn (-1)));
  Dht.check_invariants dht

(* An empty store keeps no buffer, a removal zeroes the bytes it
   vacates, and a departed record reads as empty. *)
let test_store_buffers () =
  let dht = mk_dht [ 100; 200 ] [ 10; 20; 30; 150 ] in
  (match Dht.join dht ~id:(i 120) ~payload:120 with
  | Ok vn -> Alcotest.(check bool) "empty joiner holds no buffer" true (vn.Dht.packed == Bytes.empty)
  | Error `Occupied -> Alcotest.fail "join");
  let vn100 = Option.get (Dht.find dht (i 100)) in
  ignore (Dht.consume_vnode ~pick:(fun _ -> 1) dht vn100 1);
  Alcotest.check id_list "middle rank removed" [ i 10; i 30 ] (keys_of vn100);
  let b = vn100.Dht.packed in
  for o = 2 * Id.bytes_len to Bytes.length b - 1 do
    if Bytes.get b o <> '\000' then Alcotest.failf "spare byte %d not zeroed" o
  done;
  Alcotest.(check int) "drained" 2 (Dht.consume_vnode ~pick:leftmost dht vn100 5);
  Alcotest.(check bool) "drained store drops its buffer" true (vn100.Dht.packed == Bytes.empty);
  let vn200 = Option.get (Dht.find dht (i 200)) in
  (match Dht.leave dht (i 200) with Ok () -> () | Error _ -> Alcotest.fail "leave");
  Alcotest.(check int) "departed load" 0 (Dht.load vn200);
  Alcotest.(check bool) "departed record holds no buffer" true (vn200.Dht.packed == Bytes.empty);
  Alcotest.(check int) "consuming a departed record" 0
    (Dht.consume_vnode ~pick:leftmost dht vn200 3);
  Alcotest.check id_list "successor inherits" [ i 150 ] (keys_of vn100);
  Dht.check_invariants dht

(* A crash detaches the keys; a restore hands them to the surviving
   owner, merging when a later arrival landed among them, and leaves the
   crashed set readable. *)
let test_crash_restore () =
  let dht = mk_dht [ 100; 200; 300 ] [ 120; 150; 180; 250 ] in
  let crashed =
    match Dht.crash dht (i 200) with Ok k -> k | Error `Not_member -> Alcotest.fail "crash"
  in
  let listed k =
    let acc = ref [] in
    Dht.keys_iter (fun x -> acc := x :: !acc) k;
    List.rev !acc
  in
  Alcotest.(check int) "crashed count" 3 (Dht.keys_count crashed);
  Alcotest.check id_list "crashed keys ascend" [ i 120; i 150; i 180 ] (listed crashed);
  Alcotest.(check int) "total drops" 1 (Dht.total_keys dht);
  (match Dht.insert_key dht (i 160) with Ok () -> () | Error _ -> Alcotest.fail "insert");
  let transfers = (Dht.messages dht).Messages.key_transfers in
  Alcotest.(check int) "restored" 3 (Dht.restore dht ~near:(i 200) crashed);
  Alcotest.(check int) "one transfer per key" (transfers + 3)
    (Dht.messages dht).Messages.key_transfers;
  let vn300 = Option.get (Dht.find dht (i 300)) in
  Alcotest.check id_list "merged into the owner"
    [ i 120; i 150; i 160; i 180; i 250 ]
    (keys_of vn300);
  Alcotest.check id_list "crashed set still readable" [ i 120; i 150; i 180 ] (listed crashed);
  Alcotest.(check int) "total" 5 (Dht.total_keys dht);
  Dht.check_invariants dht;
  (match Dht.crash dht (i 100) with
  | Ok none -> Alcotest.(check int) "empty restore" 0 (Dht.restore dht ~near:(i 100) none)
  | Error `Not_member -> Alcotest.fail "crash");
  let lone = mk_dht [ 100 ] [ 5 ] in
  let last =
    match Dht.crash lone (i 100) with Ok k -> k | Error `Not_member -> Alcotest.fail "crash"
  in
  Alcotest.check_raises "restore into an empty ring"
    (Invalid_argument "Dht.restore: empty ring") (fun () ->
      ignore (Dht.restore lone ~near:(i 100) last))

(* A work transfer keeps ownership, bills each moved key, and never
   collapses a picked key that the receiver already holds. *)
let test_transfer_keys () =
  let dht = mk_dht [ 100; 200 ] [ 10; 20; 30; 150 ] in
  let src = Option.get (Dht.find dht (i 100)) and dst = Option.get (Dht.find dht (i 200)) in
  let no_draw _ = Alcotest.fail "pick must not be consulted" in
  Alcotest.(check int) "n = 0" 0 (Dht.transfer_keys ~pick:no_draw dht ~src ~dst 0);
  Alcotest.(check int) "src = dst" 0 (Dht.transfer_keys ~pick:no_draw dht ~src ~dst:src 2);
  Alcotest.(check int) "moved" 2 (Dht.transfer_keys ~pick:leftmost dht ~src ~dst 2);
  Alcotest.check id_list "src keeps the rest" [ i 30 ] (keys_of src);
  Alcotest.check id_list "dst ascends" [ i 10; i 20; i 150 ] (keys_of dst);
  Alcotest.(check int) "billed" 2 (Dht.messages dht).Messages.work_transfers;
  Alcotest.(check int) "conserved" 4 (Dht.total_keys dht);
  Dht.check_invariants dht;
  (* The owner no longer holds 10, so a second copy is accepted there. *)
  (match Dht.insert_key dht (i 10) with Ok () -> () | Error _ -> Alcotest.fail "insert");
  Alcotest.(check int) "held copy stays" 0 (Dht.transfer_keys ~pick:leftmost dht ~src ~dst 1);
  Alcotest.check id_list "src unchanged" [ i 10; i 30 ] (keys_of src);
  Alcotest.(check int) "not billed" 2 (Dht.messages dht).Messages.work_transfers;
  Alcotest.check_raises "pick out of range"
    (Invalid_argument "Dht.transfer_keys: pick out of range") (fun () ->
      ignore (Dht.transfer_keys ~pick:(fun c -> c) dht ~src ~dst 1))

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
          Alcotest.test_case "key_at order" `Quick test_key_at_order;
          Alcotest.test_case "store buffers" `Quick test_store_buffers;
          Alcotest.test_case "crash/restore" `Quick test_crash_restore;
          Alcotest.test_case "transfer_keys" `Quick test_transfer_keys;
        ] );
      ("properties", [ prop_random_ops; prop_index_matches_ring ]);
    ]
