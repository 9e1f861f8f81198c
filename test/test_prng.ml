(* Determinism and distribution sanity for the simulation PRNG. *)

let test_determinism () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Prng.bits64 a) (Prng.bits64 b) then incr same
  done;
  Alcotest.(check int) "different seeds diverge" 0 !same

let test_split_independent () =
  let parent = Prng.create 9 in
  let child1 = Prng.split parent in
  let child2 = Prng.split parent in
  Alcotest.(check bool) "children differ" false
    (Int64.equal (Prng.bits64 child1) (Prng.bits64 child2))

let test_int_below_bounds () =
  let rng = Prng.create 3 in
  for _ = 1 to 10_000 do
    let v = Prng.int_below rng 7 in
    if v < 0 || v >= 7 then Alcotest.fail "int_below out of range"
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int_below: bound must be positive")
    (fun () -> ignore (Prng.int_below rng 0))

let test_int_below_uniform () =
  let rng = Prng.create 11 in
  let n = 10 and draws = 100_000 in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let v = Prng.int_below rng n in
    counts.(v) <- counts.(v) + 1
  done;
  let expected = float_of_int draws /. float_of_int n in
  Array.iteri
    (fun i c ->
      let dev = Float.abs (float_of_int c -. expected) /. expected in
      if dev > 0.05 then
        Alcotest.failf "bucket %d deviates %.1f%% from uniform" i (100.0 *. dev))
    counts

let test_int_in () =
  let rng = Prng.create 5 in
  for _ = 1 to 1000 do
    let v = Prng.int_in rng ~lo:3 ~hi:5 in
    if v < 3 || v > 5 then Alcotest.fail "int_in out of range"
  done;
  Alcotest.(check int) "singleton range" 4 (Prng.int_in rng ~lo:4 ~hi:4);
  Alcotest.check_raises "empty range" (Invalid_argument "Prng.int_in: empty range")
    (fun () -> ignore (Prng.int_in rng ~lo:5 ~hi:4))

let test_float_unit () =
  let rng = Prng.create 13 in
  let sum = ref 0.0 in
  for _ = 1 to 100_000 do
    let f = Prng.float_unit rng in
    if not (f >= 0.0 && f < 1.0) then Alcotest.fail "float_unit out of [0,1)";
    sum := !sum +. f
  done;
  let mean = !sum /. 100_000.0 in
  if Float.abs (mean -. 0.5) > 0.01 then
    Alcotest.failf "float_unit mean %.4f far from 0.5" mean

let test_bernoulli () =
  let rng = Prng.create 17 in
  Alcotest.(check bool) "p=0 never" false (Prng.bernoulli rng 0.0);
  Alcotest.(check bool) "p=1 always" true (Prng.bernoulli rng 1.0);
  let hits = ref 0 in
  for _ = 1 to 100_000 do
    if Prng.bernoulli rng 0.01 then incr hits
  done;
  (* 1000 expected; allow 4 sigma (~126). *)
  if abs (!hits - 1000) > 130 then
    Alcotest.failf "bernoulli(0.01) hit %d times out of 100k" !hits

let test_bernoulli_rejects_out_of_range () =
  let rng = Prng.create 17 in
  let expect p =
    Alcotest.check_raises
      (Printf.sprintf "p=%g" p)
      (Invalid_argument "Prng.bernoulli: probability outside [0, 1]")
      (fun () -> ignore (Prng.bernoulli rng p))
  in
  expect 1.3;
  (* churn 0.8 + fail 0.5, the State.apply_churn regression *)
  expect (-0.1);
  expect Float.nan;
  expect Float.infinity

let test_fill_bytes () =
  let rng = Prng.create 19 in
  let b = Bytes.make 33 '\x00' in
  Prng.fill_bytes rng b;
  (* 33 zero bytes after filling would mean the filler is broken. *)
  Alcotest.(check bool) "not all zero" false
    (Bytes.for_all (fun c -> c = '\x00') b);
  let b2 = Bytes.make 33 '\x00' in
  Prng.fill_bytes (Prng.create 19) b2;
  Alcotest.(check bytes) "deterministic" b2
    (let b3 = Bytes.make 33 '\x00' in
     Prng.fill_bytes (Prng.create 19) b3;
     b3)

let test_shuffle () =
  let rng = Prng.create 23 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted;
  Alcotest.(check bool) "actually moved" false (a = Array.init 50 Fun.id)

(* capture/restore is the checkpoint primitive: a generator restored
   from a captured state (or a fresh one built from it) must replay
   exactly the draw sequence the original produced. *)
let prop_capture_restore_replays =
  Testutil.prop ~count:300 "capture/restore replays the draw sequence"
    QCheck.(pair small_int (int_range 1 64))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      (* advance to an arbitrary mid-stream point before capturing *)
      for _ = 1 to n do
        ignore (Prng.int_below rng 1_000_000)
      done;
      let state = Prng.capture rng in
      let original = Array.init n (fun _ -> Prng.int_below rng 1_000_000) in
      Prng.restore rng state;
      let restored = Array.init n (fun _ -> Prng.int_below rng 1_000_000) in
      let detached = Prng.of_state state in
      let fresh = Array.init n (fun _ -> Prng.int_below detached 1_000_000) in
      Prng.state_equal state state
      && original = restored && original = fresh
      (* after replaying, the live generator sits at the same state as
         the detached copy *)
      && Prng.state_equal (Prng.capture rng) (Prng.capture detached))

(* The first draws of seed 42, as the generator has always produced
   them: every golden and pin downstream rests on these words. *)
let test_known_answers () =
  let first4 f =
    let rng = Prng.create 42 in
    List.init 4 (fun _ -> f rng)
  in
  Alcotest.(check (list int64)) "bits64"
    [ 1546998764402558742L; 6990951692964543102L; -5902157311460992607L;
      -1389169964527427423L ]
    (first4 Prng.bits64);
  Alcotest.(check (list int)) "int_below 1000" [ 685; 775; 752; 48 ]
    (first4 (fun rng -> Prng.int_below rng 1000));
  Alcotest.(check (list (float 0.0))) "float_unit"
    [ 0x1.5780b2e0c2ecp-4; 0x1.84136619b444ep-2; 0x1.5c2ea66473c93p-1;
      0x1.d9715a8e0766cp-1 ]
    (first4 Prng.float_unit)

(* The generator's words live unboxed in one buffer, so a draw that
   returns an immediate allocates nothing: 40,000 of them may cost only
   the bracket's own few words, where boxed state words cost 23-42 per
   draw. *)
let test_draws_allocate_nothing () =
  let rng = Prng.create 29 and buf = Bytes.create 16 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Prng.int_below rng 1024);
    ignore (Prng.int_below rng 1000);
    ignore (Prng.bernoulli rng 0.02);
    Prng.fill_bytes rng buf
  done;
  let words = Gc.minor_words () -. before in
  if words >= 64.0 then
    Alcotest.failf "40,000 draws allocated %.0f minor words" words

(* The generator as first written: xoshiro256** over four mutable int64
   record fields, seeded by SplitMix64.  Kept as the reference that the
   library must match draw for draw, with the argument guards left out
   and [fill_bytes] written a byte at a time, least significant first. *)
module Reference = struct
  type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

  let splitmix_next state =
    let open Int64 in
    state := add !state 0x9e3779b97f4a7c15L;
    let z = !state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
    logxor z (shift_right_logical z 31)

  let of_seed64 seed =
    let st = ref seed in
    let s0 = splitmix_next st in
    let s1 = splitmix_next st in
    let s2 = splitmix_next st in
    let s3 = splitmix_next st in
    if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then
      { s0 = 1L; s1 = 2L; s2 = 3L; s3 = 4L }
    else { s0; s1; s2; s3 }

  let create seed = of_seed64 (Int64.of_int seed)

  let rotl x k =
    Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

  let bits64 t =
    let open Int64 in
    let result = mul (rotl (mul t.s1 5L) 7) 9L in
    let tmp = shift_left t.s1 17 in
    t.s2 <- logxor t.s2 t.s0;
    t.s3 <- logxor t.s3 t.s1;
    t.s1 <- logxor t.s1 t.s2;
    t.s0 <- logxor t.s0 t.s3;
    t.s2 <- logxor t.s2 tmp;
    t.s3 <- rotl t.s3 45;
    result

  let split t = of_seed64 (bits64 t)

  let int_below t n =
    if n land (n - 1) = 0 then
      Int64.to_int (Int64.shift_right_logical (bits64 t) 1) land (n - 1)
    else begin
      let bound = Int64.of_int n in
      let max62 = Int64.shift_right_logical Int64.minus_one 2 in
      let limit = Int64.sub max62 (Int64.rem max62 bound) in
      let rec draw () =
        let v = Int64.shift_right_logical (bits64 t) 2 in
        if v >= limit then draw () else Int64.to_int (Int64.rem v bound)
      in
      draw ()
    end

  let float_unit t =
    let v = Int64.shift_right_logical (bits64 t) 11 in
    Int64.to_float v *. 0x1.0p-53

  let bernoulli t p =
    if p = 0.0 then false else if p = 1.0 then true else float_unit t < p

  let fill_bytes t buf =
    let n = Bytes.length buf in
    let i = ref 0 in
    while !i < n do
      let v = bits64 t in
      let take = min 8 (n - !i) in
      for j = 0 to take - 1 do
        Bytes.set buf (!i + j)
          (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * j)) land 0xff))
      done;
      i := !i + take
    done

  type state = { c0 : int64; c1 : int64; c2 : int64; c3 : int64 }

  let capture t = { c0 = t.s0; c1 = t.s1; c2 = t.s2; c3 = t.s3 }

  let restore t s =
    t.s0 <- s.c0;
    t.s1 <- s.c1;
    t.s2 <- s.c2;
    t.s3 <- s.c3

  let of_state s =
    let t = { s0 = 1L; s1 = 2L; s2 = 3L; s3 = 4L } in
    restore t s;
    t

  (* [Prng.state] is abstract, but it is the same plain record of four
     words, so a marshal round trip carries a reference state across
     for [Prng.state_equal] to judge. *)
  let to_prng (s : state) : Prng.state =
    Marshal.from_string (Marshal.to_string s []) 0
end

type op =
  | Bits64
  | Int_below of int
  | Float_unit
  | Bernoulli of float
  | Fill_bytes of int
  | Split
  | Capture
  | Restore
  | Of_state

let show_op = function
  | Bits64 -> "bits64"
  | Int_below n -> Printf.sprintf "int_below %d" n
  | Float_unit -> "float_unit"
  | Bernoulli p -> Printf.sprintf "bernoulli %h" p
  | Fill_bytes n -> Printf.sprintf "fill_bytes %d" n
  | Split -> "split"
  | Capture -> "capture"
  | Restore -> "restore"
  | Of_state -> "of_state"

(* Bounds cover the mask path (1 and every power of two up to 2^61),
   small and large rejection bounds, and 2^61 + 1, which rejects about
   half of its 62-bit draws. *)
let gen_op =
  let open QCheck.Gen in
  frequency
    [
      (3, return Bits64);
      ( 4,
        map
          (fun n -> Int_below n)
          (oneof
             [
               oneofl [ 1; 3; 1000; (1 lsl 61) + 1; max_int ];
               map (fun k -> 1 lsl k) (int_bound 61);
               int_range 1 max_int;
             ]) );
      (2, return Float_unit);
      ( 3,
        map (fun p -> Bernoulli p)
          (oneof [ oneofl [ 0.0; 1.0; 0.5; 0x1.0p-53 ]; float_bound_exclusive 1.0 ]) );
      (2, map (fun n -> Fill_bytes n) (int_bound 40));
      (1, return Split);
      (1, return Capture);
      (1, return Restore);
      (1, return Of_state);
    ]

(* Run one sequence on the library and on the reference side by side.
   [Split] compares the two children and carries on with the parents;
   [Capture] saves both states, which [Restore] and [Of_state] bring
   back. *)
let same_as_reference (seed, ops) =
  let lib = ref (Prng.create seed) and rf = ref (Reference.create seed) in
  let saved = ref (Prng.capture !lib, Reference.capture !rf) in
  let agree (l, r) = Prng.state_equal l (Reference.to_prng r) in
  let step = function
    | Bits64 -> Int64.equal (Prng.bits64 !lib) (Reference.bits64 !rf)
    | Int_below n -> Prng.int_below !lib n = Reference.int_below !rf n
    | Float_unit ->
      Int64.equal
        (Int64.bits_of_float (Prng.float_unit !lib))
        (Int64.bits_of_float (Reference.float_unit !rf))
    | Bernoulli p -> Bool.equal (Prng.bernoulli !lib p) (Reference.bernoulli !rf p)
    | Fill_bytes n ->
      let a = Bytes.make n '\xaa' and b = Bytes.make n '\x55' in
      Prng.fill_bytes !lib a;
      Reference.fill_bytes !rf b;
      Bytes.equal a b
    | Split ->
      agree
        ( Prng.capture (Prng.split !lib),
          Reference.capture (Reference.split !rf) )
    | Capture ->
      saved := (Prng.capture !lib, Reference.capture !rf);
      agree !saved
    | Restore ->
      Prng.restore !lib (fst !saved);
      Reference.restore !rf (snd !saved);
      true
    | Of_state ->
      lib := Prng.of_state (fst !saved);
      rf := Reference.of_state (snd !saved);
      true
  in
  List.for_all step ops && agree (Prng.capture !lib, Reference.capture !rf)

let prop_matches_reference =
  Testutil.prop ~count:500 "matches the record-based reference"
    QCheck.(
      make
        ~print:(fun (seed, ops) ->
          Printf.sprintf "seed %d: %s" seed
            (String.concat "; " (List.map show_op ops)))
        ~shrink:Shrink.(pair int (list ~shrink:nil))
        Gen.(pair int (list_size (int_range 0 60) gen_op)))
    same_as_reference

let prop_int_below_in_range =
  Testutil.prop ~count:500 "int_below always in range"
    QCheck.(pair (int_range 1 1_000_000) small_int)
    (fun (bound, seed) ->
      let rng = Prng.create seed in
      let v = Prng.int_below rng bound in
      v >= 0 && v < bound)

let () =
  Alcotest.run "prng"
    [
      ( "unit",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seeds differ" `Quick test_seeds_differ;
          Alcotest.test_case "split independence" `Quick test_split_independent;
          Alcotest.test_case "int_below bounds" `Quick test_int_below_bounds;
          Alcotest.test_case "int_below uniformity" `Quick test_int_below_uniform;
          Alcotest.test_case "int_in" `Quick test_int_in;
          Alcotest.test_case "float_unit" `Quick test_float_unit;
          Alcotest.test_case "bernoulli" `Quick test_bernoulli;
          Alcotest.test_case "bernoulli range guard" `Quick
            test_bernoulli_rejects_out_of_range;
          Alcotest.test_case "fill_bytes" `Quick test_fill_bytes;
          Alcotest.test_case "shuffle" `Quick test_shuffle;
          Alcotest.test_case "known answers, seed 42" `Quick test_known_answers;
          Alcotest.test_case "draws allocate nothing" `Quick
            test_draws_allocate_nothing;
        ] );
      ( "properties",
        [
          prop_int_below_in_range;
          prop_capture_restore_replays;
          prop_matches_reference;
        ] );
    ]
