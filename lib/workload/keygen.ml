let fresh_of rng buf =
  Prng.fill_bytes rng buf;
  Id.of_raw_string (Sha1.digest_bytes buf)

let fresh rng = fresh_of rng (Bytes.create 16)

let rec fresh_distinct rng taken =
  let id = fresh rng in
  if Id_set.mem id taken then fresh_distinct rng taken else id

let distinct rng n =
  (* Dedup structure: membership consumes no randomness, so the id
     stream is identical whatever the structure — a redraw happens
     exactly on a true 160-bit duplicate.  A flat open-addressing probe
     table (slot = leading id bytes, which are SHA-1 output and hence
     uniform; value = index + 1 into [out]) replaces the chained
     [Hashtbl] that used to cost as much as the digests themselves at
     the scale-leg sizes: one cache line per probe, zero allocation,
     load factor <= 1/4.  One scratch buffer serves every draw. *)
  if n = 0 then [||]
  else begin
    let out = Array.make n Id.zero in
    let cap =
      let c = ref 16 in
      while !c < 4 * n do
        c := !c * 2
      done;
      !c
    in
    let mask = cap - 1 in
    let table = Array.make cap 0 in
    let buf = Bytes.create 16 in
    let slot_of id =
      (* 56 uniform bits, comfortably inside the 63-bit int. *)
      let s = Id.to_raw_string id in
      let h = ref 0 in
      for k = 0 to 6 do
        h := (!h lsl 8) lor Char.code (String.unsafe_get s k)
      done;
      !h land mask
    in
    let i = ref 0 in
    while !i < n do
      let id = fresh_of rng buf in
      let s = ref (slot_of id) in
      while
        Array.unsafe_get table !s <> 0
        && not (Id.equal out.(Array.unsafe_get table !s - 1) id)
      do
        s := (!s + 1) land mask
      done;
      if Array.unsafe_get table !s = 0 then begin
        table.(!s) <- !i + 1;
        out.(!i) <- id;
        incr i
      end
      (* else: a true duplicate — redraw, exactly like the naive loop *)
    done;
    out
  end

let node_ids = distinct
let task_keys = distinct

let even_ids n =
  if n < 1 then invalid_arg "Keygen.even_ids: n < 1";
  Array.init n (fun k -> Id.of_fraction (float_of_int k /. float_of_int n))

(* Zipf(s) over ranks 1..n by inverse CDF on the truncated harmonic
   weights: [prefix.(k - 1)] is the sum of the first [k] weights, added
   in rank order, so the last entry is the normaliser bit for bit. *)
type zipf = float array

let zipf_table ~n ~s =
  if n < 1 then invalid_arg "Keygen.zipf_table: n < 1";
  if s < 0.0 then invalid_arg "Keygen.zipf_table: s < 0";
  let prefix = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 1 to n do
    acc := !acc +. (1.0 /. Float.pow (float_of_int k) s);
    prefix.(k - 1) <- !acc
  done;
  prefix

(* The first rank k < n whose prefix reaches the target, else n: the
   prefixes never decrease, so a binary search finds it. *)
let zipf rng prefix =
  let n = Array.length prefix in
  let target = Prng.float_unit rng *. prefix.(n - 1) in
  let lo = ref 1 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if prefix.(mid - 1) >= target then hi := mid else lo := mid + 1
  done;
  !lo
