(* xoshiro256**'s four state words live little-endian at offsets 0, 8,
   16 and 24 of one 32-byte buffer.  [Bytes.get_int64_le] and
   [set_int64_le] read and write them unboxed, so a draw allocates
   nothing: mutable [int64] record fields would box four fresh words on
   every step. *)
type t = Bytes.t

(* SplitMix64: used only for seeding and stream splitting. *)
let splitmix_next state =
  let open Int64 in
  state := add !state 0x9e3779b97f4a7c15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let[@inline] set_words t s0 s1 s2 s3 =
  Bytes.set_int64_le t 0 s0;
  Bytes.set_int64_le t 8 s1;
  Bytes.set_int64_le t 16 s2;
  Bytes.set_int64_le t 24 s3

let of_words s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set_words t s0 s1 s2 s3;
  t

let of_seed64 seed =
  let st = ref seed in
  let s0 = splitmix_next st in
  let s1 = splitmix_next st in
  let s2 = splitmix_next st in
  let s3 = splitmix_next st in
  (* xoshiro must not start in the all-zero state; SplitMix64 outputs zero
     for at most one of the four draws, so this is already impossible, but
     guard anyway. *)
  if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then
    of_words 1L 2L 3L 4L
  else of_words s0 s1 s2 s3

let create seed = of_seed64 (Int64.of_int seed)

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256** step.  Inlined into every draw below, so its words
   and its result stay unboxed up to the draw's own return value. *)
let[@inline] step t =
  let open Int64 in
  let s0 = Bytes.get_int64_le t 0
  and s1 = Bytes.get_int64_le t 8
  and s2 = Bytes.get_int64_le t 16
  and s3 = Bytes.get_int64_le t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set_words t
    (logxor s0 s3)
    (logxor s1 s2)
    (logxor s2 (shift_left s1 17))
    (rotl s3 45);
  result

let bits64 t = step t

let split t = of_seed64 (step t)

(* Rejection sampling over 62 bits to avoid modulo bias.  [max_int] is
   2^62 - 1, so the draw, the limit and the remainder all fit in a
   native int. *)
let rec below_limit t n limit =
  let v = Int64.to_int (Int64.shift_right_logical (step t) 2) in
  if v >= limit then below_limit t n limit else v mod n

let int_below t n =
  if n <= 0 then invalid_arg "Prng.int_below: bound must be positive";
  if n land (n - 1) = 0 then
    (* Power of two: mask the top bits. *)
    Int64.to_int (Int64.shift_right_logical (step t) 1) land (n - 1)
  else below_limit t n (max_int - (max_int mod n))

let int_in t ~lo ~hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + int_below t (hi - lo + 1)

let[@inline] unit_of_step t =
  Int64.to_float (Int64.shift_right_logical (step t) 11) *. 0x1.0p-53

let float_unit t = unit_of_step t

let bernoulli t p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg "Prng.bernoulli: probability outside [0, 1]";
  if p = 0.0 then false else if p = 1.0 then true else unit_of_step t < p

(* Each draw fills the next 8 bytes least significant first; a short
   tail takes the low bytes of one more draw. *)
let fill_bytes t buf =
  let n = Bytes.length buf in
  let full = n land lnot 7 in
  let i = ref 0 in
  while !i < full do
    Bytes.set_int64_le buf !i (step t);
    i := !i + 8
  done;
  if full < n then begin
    let v = Int64.to_int (step t) in
    (* bits 0-62; a tail is at most 7 bytes, bits 0-55 *)
    for j = 0 to n - full - 1 do
      Bytes.unsafe_set buf (full + j) (Char.unsafe_chr ((v lsr (j * 8)) land 0xff))
    done
  end

type state = { c0 : int64; c1 : int64; c2 : int64; c3 : int64 }

let capture t =
  {
    c0 = Bytes.get_int64_le t 0;
    c1 = Bytes.get_int64_le t 8;
    c2 = Bytes.get_int64_le t 16;
    c3 = Bytes.get_int64_le t 24;
  }

let restore t s = set_words t s.c0 s.c1 s.c2 s.c3

let state_equal a b =
  Int64.equal a.c0 b.c0 && Int64.equal a.c1 b.c1 && Int64.equal a.c2 b.c2
  && Int64.equal a.c3 b.c3

let of_state s = of_words s.c0 s.c1 s.c2 s.c3

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int_below t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
