(* Kademlia XOR-metric overlay. *)

let i = Id.of_int

let build ?(seed = 7) ?(k = 8) n =
  let rng = Prng.create seed in
  let ids = Keygen.node_ids rng n in
  (ids, Kademlia.build rng ~ids ~k)

let test_distance_metric () =
  let a = i 0b1010 and b = i 0b0110 in
  Alcotest.check Testutil.check_id "xor" (i 0b1100) (Kademlia.distance a b);
  Alcotest.check Testutil.check_id "symmetric" (Kademlia.distance a b)
    (Kademlia.distance b a);
  Alcotest.check Testutil.check_id "identity" Id.zero (Kademlia.distance a a)

let prop_distance_triangle =
  Testutil.prop ~count:300 "XOR satisfies the triangle inequality"
    (QCheck.triple Testutil.arb_id Testutil.arb_id Testutil.arb_id)
    (fun (a, b, c) ->
      let d_ac = Kademlia.distance a c in
      let d_ab = Kademlia.distance a b and d_bc = Kademlia.distance b c in
      (* d(a,c) <= d(a,b) + d(b,c); with XOR, d_ac = d_ab XOR d_bc <=
         d_ab + d_bc unless addition overflows — compare via max bound *)
      Id.compare d_ac (Id.add d_ab d_bc) <= 0
      || Id.compare (Id.add d_ab d_bc) d_ab < 0 (* wrapped: sum >= 2^160 *))

let test_bucket_index () =
  let self = Id.zero in
  Alcotest.(check (option int)) "self has no bucket" None
    (Kademlia.bucket_index ~self self);
  Alcotest.(check (option int)) "lsb differs -> bucket 0" (Some 0)
    (Kademlia.bucket_index ~self (i 1));
  Alcotest.(check (option int)) "bit 7 -> bucket 7" (Some 7)
    (Kademlia.bucket_index ~self (i 128));
  Alcotest.(check (option int)) "top bit -> bucket 159" (Some 159)
    (Kademlia.bucket_index ~self (Id.add_pow2 Id.zero 159))

let test_build_buckets () =
  let k = 3 in
  let ids, net = build ~k 64 in
  Alcotest.(check int) "size" 64 (Kademlia.size net);
  (* every bucket holds exactly the k XOR-closest members with that
     bucket index, closest first; at k = 3 the top buckets fill *)
  let full = ref 0 in
  Array.iter
    (fun self ->
      for b = 0 to Id.bits - 1 do
        let expected =
          Array.to_list ids
          |> List.filter (fun m -> Kademlia.bucket_index ~self m = Some b)
          |> List.sort (fun x y ->
                 Id.compare (Kademlia.distance self x) (Kademlia.distance self y))
          |> List.filteri (fun i _ -> i < k)
        in
        if List.length expected = k then incr full;
        Alcotest.(check (list Testutil.check_id))
          (Printf.sprintf "bucket %d" b) expected
          (Kademlia.bucket_of net ~self b)
      done)
    ids;
  Alcotest.(check bool) "some buckets full" true (!full > 64);
  Alcotest.check_raises "k<1" (Invalid_argument "Kademlia.build: k < 1")
    (fun () -> ignore (Kademlia.build (Prng.create 1) ~ids ~k:0))

let test_owner_is_xor_closest () =
  let ids, net = build 64 in
  let rng = Prng.create 3 in
  for _ = 1 to 50 do
    let key = Keygen.fresh rng in
    let owner = Kademlia.owner net key in
    Array.iter
      (fun m ->
        if
          Id.compare (Kademlia.distance key m) (Kademlia.distance key owner) < 0
        then Alcotest.fail "someone closer than the owner")
      ids
  done

let test_lookup_finds_owner () =
  let ids, net = build 256 in
  let rng = Prng.create 5 in
  for _ = 1 to 100 do
    let key = Keygen.fresh rng in
    let start = ids.(Prng.int_below rng 256) in
    match Kademlia.lookup net ~start ~key with
    | None -> Alcotest.fail "lookup failed"
    | Some (found, hops) ->
      Alcotest.check Testutil.check_id "lookup = global owner"
        (Kademlia.owner net key) found;
      if hops > 20 then Alcotest.failf "%d hops in a 256-node network" hops
  done

let test_lookup_hops_logarithmic () =
  let ids, net = build 1024 in
  let rng = Prng.create 9 in
  let total = ref 0 in
  for _ = 1 to 300 do
    let start = ids.(Prng.int_below rng 1024) in
    match Kademlia.lookup net ~start ~key:(Keygen.fresh rng) with
    | Some (_, h) -> total := !total + h
    | None -> Alcotest.fail "lookup failed"
  done;
  let mean = float_of_int !total /. 300.0 in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.2f <= log2(n)" mean)
    true
    (mean <= Kademlia.expected_hops 1024)

let test_nonmember_start () =
  let _, net = build 16 in
  Alcotest.(check bool) "non-member" true
    (Kademlia.lookup net ~start:(Keygen.fresh (Prng.create 99)) ~key:Id.zero = None)

let test_lookup_from_owner_is_free () =
  let ids, net = build 32 in
  (* looking up a key you own takes 0 hops *)
  let key = ids.(7) in
  match Kademlia.lookup net ~start:ids.(7) ~key with
  | Some (found, 0) -> Alcotest.check Testutil.check_id "self" ids.(7) found
  | _ -> Alcotest.fail "owner lookup should be free"

let test_add_node () =
  let ids, net = build 32 in
  let newcomer = Keygen.fresh (Prng.create 1234) in
  Kademlia.add_node net newcomer;
  Alcotest.(check int) "grew" 33 (Kademlia.size net);
  Alcotest.(check bool) "member now" true
    (List.exists (Id.equal newcomer) (Kademlia.members net));
  (* newcomer is findable from everywhere *)
  Array.iter
    (fun start ->
      match Kademlia.lookup net ~start ~key:newcomer with
      | Some (found, _) ->
        Alcotest.check Testutil.check_id "newcomer found" newcomer found
      | None -> Alcotest.fail "lookup failed")
    ids;
  (* idempotent *)
  Kademlia.add_node net newcomer;
  Alcotest.(check int) "idempotent" 33 (Kademlia.size net)

let test_remove_node () =
  let ids, net = build 32 in
  let victim = ids.(5) in
  Kademlia.remove_node net victim;
  Alcotest.(check int) "shrank" 31 (Kademlia.size net);
  (* no bucket anywhere still references the victim *)
  List.iter
    (fun self ->
      for b = 0 to Id.bits - 1 do
        if List.exists (Id.equal victim) (Kademlia.bucket_of net ~self b) then
          Alcotest.fail "stale bucket entry"
      done)
    (Kademlia.members net);
  (* lookups still resolve to the (new) XOR-closest member *)
  let rng = Prng.create 6 in
  let start = List.hd (Kademlia.members net) in
  for _ = 1 to 30 do
    let key = Keygen.fresh rng in
    match Kademlia.lookup net ~start ~key with
    | Some (found, _) ->
      Alcotest.check Testutil.check_id "owner after removal"
        (Kademlia.owner net key) found
    | None -> Alcotest.fail "lookup failed after removal"
  done;
  Kademlia.remove_node net victim (* no-op *)

let test_churned_membership_stays_correct () =
  let _, net = build ~seed:21 64 in
  let rng = Prng.create 22 in
  for _ = 1 to 40 do
    if Prng.bernoulli rng 0.5 then Kademlia.add_node net (Keygen.fresh rng)
    else begin
      match Kademlia.members net with
      | _ :: _ :: _ as ms ->
        Kademlia.remove_node net (List.nth ms (Prng.int_below rng (List.length ms)))
      | _ -> ()
    end
  done;
  let members = Array.of_list (Kademlia.members net) in
  for _ = 1 to 30 do
    let key = Keygen.fresh rng in
    let start = members.(Prng.int_below rng (Array.length members)) in
    match Kademlia.lookup net ~start ~key with
    | Some (found, _) ->
      Alcotest.check Testutil.check_id "owner under churn"
        (Kademlia.owner net key) found
    | None -> Alcotest.fail "lookup failed under churn"
  done

let () =
  Alcotest.run "kademlia"
    [
      ( "unit",
        [
          Alcotest.test_case "distance metric" `Quick test_distance_metric;
          Alcotest.test_case "bucket index" `Quick test_bucket_index;
          Alcotest.test_case "build buckets" `Quick test_build_buckets;
          Alcotest.test_case "owner is closest" `Quick test_owner_is_xor_closest;
          Alcotest.test_case "lookup finds owner" `Quick test_lookup_finds_owner;
          Alcotest.test_case "hops logarithmic" `Quick test_lookup_hops_logarithmic;
          Alcotest.test_case "non-member start" `Quick test_nonmember_start;
          Alcotest.test_case "own key free" `Quick test_lookup_from_owner_is_free;
          Alcotest.test_case "add node" `Quick test_add_node;
          Alcotest.test_case "remove node" `Quick test_remove_node;
          Alcotest.test_case "membership churn" `Quick
            test_churned_membership_stays_correct;
        ] );
      ("properties", [ prop_distance_triangle ]);
    ]
