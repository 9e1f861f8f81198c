(* SHA-1 over untagged OCaml ints masked to 32 bits: on a 64-bit system
   this avoids Int32 boxing in the hot compression loop. *)

let mask32 = 0xffffffff

type ctx = {
  mutable h0 : int;
  mutable h1 : int;
  mutable h2 : int;
  mutable h3 : int;
  mutable h4 : int;
  block : bytes; (* 64-byte staging buffer *)
  mutable fill : int; (* bytes currently staged *)
  mutable total : int; (* total bytes absorbed *)
  w : int array; (* 16-word circular message schedule, reused *)
}

let init () =
  {
    h0 = 0x67452301;
    h1 = 0xefcdab89;
    h2 = 0x98badcfe;
    h3 = 0x10325476;
    h4 = 0xc3d2e1f0;
    block = Bytes.create 64;
    fill = 0;
    total = 0;
    w = Array.make 16 0;
  }

let rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

(* The 80 rounds of one block, shared by [compress] and [digest_short]:
   [w] is a 16-word circular schedule that starts out holding the block.
   The four round groups are mutually tail-recursive functions: the five
   chaining words travel as arguments — registers, not ref cells — and
   each group has its fixed f/k instead of a per-round comparison chain.
   Round i passes (temp, a, rotl30 b, c, d) along.  The circular
   schedule update (w[i-16] lives at w[i land 15]) is spelled out in
   each body: without flambda a shared helper would be a real call, 64
   of them per digest. *)
let rec rounds1 w i a b c d e =
  if i = 20 then rounds2 w 20 a b c d e
  else
    let wi =
      if i < 16 then Array.unsafe_get w i
      else begin
        let v =
          rotl32
            (Array.unsafe_get w ((i - 3) land 15)
            lxor Array.unsafe_get w ((i - 8) land 15)
            lxor Array.unsafe_get w ((i - 14) land 15)
            lxor Array.unsafe_get w (i land 15))
            1
        in
        Array.unsafe_set w (i land 15) v;
        v
      end
    in
    rounds1 w (i + 1)
      ((rotl32 a 5
       + (((b land c) lor (lnot b land d)) land mask32)
       + e + 0x5a827999 + wi)
      land mask32)
      a (rotl32 b 30) c d

and rounds2 w i a b c d e =
  if i = 40 then rounds3 w 40 a b c d e
  else begin
    let wi =
      rotl32
        (Array.unsafe_get w ((i - 3) land 15)
        lxor Array.unsafe_get w ((i - 8) land 15)
        lxor Array.unsafe_get w ((i - 14) land 15)
        lxor Array.unsafe_get w (i land 15))
        1
    in
    Array.unsafe_set w (i land 15) wi;
    rounds2 w (i + 1)
      ((rotl32 a 5 + (b lxor c lxor d) + e + 0x6ed9eba1 + wi) land mask32)
      a (rotl32 b 30) c d
  end

and rounds3 w i a b c d e =
  if i = 60 then rounds4 w 60 a b c d e
  else begin
    let wi =
      rotl32
        (Array.unsafe_get w ((i - 3) land 15)
        lxor Array.unsafe_get w ((i - 8) land 15)
        lxor Array.unsafe_get w ((i - 14) land 15)
        lxor Array.unsafe_get w (i land 15))
        1
    in
    Array.unsafe_set w (i land 15) wi;
    rounds3 w (i + 1)
      ((rotl32 a 5
       + ((b land c) lor (b land d) lor (c land d))
       + e + 0x8f1bbcdc + wi)
      land mask32)
      a (rotl32 b 30) c d
  end

and rounds4 w i a b c d e =
  if i = 80 then (a, b, c, d, e)
  else begin
    let wi =
      rotl32
        (Array.unsafe_get w ((i - 3) land 15)
        lxor Array.unsafe_get w ((i - 8) land 15)
        lxor Array.unsafe_get w ((i - 14) land 15)
        lxor Array.unsafe_get w (i land 15))
        1
    in
    Array.unsafe_set w (i land 15) wi;
    rounds4 w (i + 1)
      ((rotl32 a 5 + (b lxor c lxor d) + e + 0xca62c1d6 + wi) land mask32)
      a (rotl32 b 30) c d
  end

let compress ctx block off =
  let w = ctx.w in
  for i = 0 to 15 do
    let j = off + (i * 4) in
    w.(i) <-
      (Char.code (Bytes.unsafe_get block j) lsl 24)
      lor (Char.code (Bytes.unsafe_get block (j + 1)) lsl 16)
      lor (Char.code (Bytes.unsafe_get block (j + 2)) lsl 8)
      lor Char.code (Bytes.unsafe_get block (j + 3))
  done;
  let a, b, c, d, e = rounds1 w 0 ctx.h0 ctx.h1 ctx.h2 ctx.h3 ctx.h4 in
  ctx.h0 <- (ctx.h0 + a) land mask32;
  ctx.h1 <- (ctx.h1 + b) land mask32;
  ctx.h2 <- (ctx.h2 + c) land mask32;
  ctx.h3 <- (ctx.h3 + d) land mask32;
  ctx.h4 <- (ctx.h4 + e) land mask32

let feed_bytes ctx ?(off = 0) ?len src =
  let len = match len with Some l -> l | None -> Bytes.length src - off in
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "Sha1.feed_bytes: bad bounds";
  ctx.total <- ctx.total + len;
  let pos = ref off and remaining = ref len in
  (* Top up a partially filled staging block first. *)
  if ctx.fill > 0 then begin
    let take = min !remaining (64 - ctx.fill) in
    Bytes.blit src !pos ctx.block ctx.fill take;
    ctx.fill <- ctx.fill + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.fill = 64 then begin
      compress ctx ctx.block 0;
      ctx.fill <- 0
    end
  end;
  while !remaining >= 64 do
    compress ctx src !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit src !pos ctx.block ctx.fill !remaining;
    ctx.fill <- ctx.fill + !remaining
  end

let feed_string ctx ?(off = 0) ?len src =
  let len = match len with Some l -> l | None -> String.length src - off in
  if off < 0 || len < 0 || off + len > String.length src then
    invalid_arg "Sha1.feed_string: bad bounds";
  feed_bytes ctx ~off ~len (Bytes.unsafe_of_string src)

let get ctx =
  let clone =
    {
      ctx with
      block = Bytes.copy ctx.block;
      w = Array.make 16 0;
    }
  in
  let bitlen = clone.total * 8 in
  let pad_len =
    let r = (clone.total + 1) mod 64 in
    if r <= 56 then 56 - r else 120 - r
  in
  let tail = Bytes.make (1 + pad_len + 8) '\x00' in
  Bytes.set tail 0 '\x80';
  for i = 0 to 7 do
    Bytes.set tail
      (1 + pad_len + i)
      (Char.chr ((bitlen lsr (8 * (7 - i))) land 0xff))
  done;
  feed_bytes clone tail;
  assert (clone.fill = 0);
  let out = Bytes.create 20 in
  let put i v =
    Bytes.set out i (Char.chr ((v lsr 24) land 0xff));
    Bytes.set out (i + 1) (Char.chr ((v lsr 16) land 0xff));
    Bytes.set out (i + 2) (Char.chr ((v lsr 8) land 0xff));
    Bytes.set out (i + 3) (Char.chr (v land 0xff))
  in
  put 0 clone.h0;
  put 4 clone.h1;
  put 8 clone.h2;
  put 12 clone.h3;
  put 16 clone.h4;
  Bytes.unsafe_to_string out

(* One-shot digest of a short input — at most 55 bytes, so message,
   0x80 terminator and the 8-byte length all fit a single padded block.
   Produces exactly the init/feed/get digest while allocating only a
   16-word schedule and the output: keygen hashes millions of 16-byte
   seeds during setup, and the ctx path's per-digest ctx, staging block
   and clone dominated minor-heap traffic there. *)
let digest_short b off len =
  (* Build the padded schedule directly from the input — message bytes
     big-endian, the 0x80 terminator, zeros, then the bit length — with
     no 64-byte staging block: [len <= 55] guarantees the terminator
     falls before word 14 and the length fits word 15. *)
  let w = Array.make 16 0 in
  let full = len lsr 2 in
  for i = 0 to full - 1 do
    let j = off + (i * 4) in
    w.(i) <-
      (Char.code (Bytes.unsafe_get b j) lsl 24)
      lor (Char.code (Bytes.unsafe_get b (j + 1)) lsl 16)
      lor (Char.code (Bytes.unsafe_get b (j + 2)) lsl 8)
      lor Char.code (Bytes.unsafe_get b (j + 3))
  done;
  (* Boundary word: the 0-3 trailing message bytes followed by the 0x80
     terminator, left-aligned; remaining words stay zero. *)
  let r = len land 3 in
  let bw = ref 0 in
  for j = 0 to r - 1 do
    bw := (!bw lsl 8) lor Char.code (Bytes.unsafe_get b (off + (full * 4) + j))
  done;
  bw := ((!bw lsl 8) lor 0x80) lsl (8 * (3 - r));
  w.(full) <- !bw;
  w.(15) <- len * 8;
  let a, b', c, d, e =
    rounds1 w 0 0x67452301 0xefcdab89 0x98badcfe 0x10325476 0xc3d2e1f0
  in
  let out = Bytes.create 20 in
  let put i v =
    Bytes.set out i (Char.chr ((v lsr 24) land 0xff));
    Bytes.set out (i + 1) (Char.chr ((v lsr 16) land 0xff));
    Bytes.set out (i + 2) (Char.chr ((v lsr 8) land 0xff));
    Bytes.set out (i + 3) (Char.chr (v land 0xff))
  in
  put 0 ((0x67452301 + a) land mask32);
  put 4 ((0xefcdab89 + b') land mask32);
  put 8 ((0x98badcfe + c) land mask32);
  put 12 ((0x10325476 + d) land mask32);
  put 16 ((0xc3d2e1f0 + e) land mask32);
  Bytes.unsafe_to_string out

let digest_bytes ?(off = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - off in
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Sha1.digest_bytes: bad bounds";
  if len <= 55 then digest_short b off len
  else begin
    let ctx = init () in
    feed_bytes ctx ~off ~len b;
    get ctx
  end

let digest_string s = digest_bytes (Bytes.unsafe_of_string s)

let hex_of_digest d =
  let b = Buffer.create 40 in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) d;
  Buffer.contents b

let digest_hex s = hex_of_digest (digest_string s)
