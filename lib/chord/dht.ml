type 'a vnode = { id : Id.t; mutable nkeys : int; mutable packed : Bytes.t; payload : 'a }

(* The ring index: every vnode in ascending id order, in a two-level
   array of fixed-capacity chunks.  Sybil injection makes joins and
   leaves the hot path, so each is one search plus an in-place shift of
   at most [cap] slots, with no tree path to walk again or copy.

   Each slot keeps the id's top 62 bits as an unboxed int next to the
   vnode, so a search compares ints and reads an id string only when two
   prefixes tie; the order is exactly [Id.compare].  [lasts] caches every
   chunk's last prefix, so choosing the chunk touches one int array.

   The capacity is a constant, not a knob: chunks hold boxed vnodes in
   the major heap, where every shifted slot pays a write barrier, and 32
   measured fastest of 32, 64, 128 and 256 (a join+leave pair on a
   187k-vnode ring, 2-core Xeon: 1.3-1.5 us at 32, 2.3-3.1 us at 256).
   No chunk is ever empty
   (an emptied chunk is dropped); slots at [len] and beyond hold a live
   vnode of the same chunk as filler, so a departed record is never kept
   alive.  The index holds no closure: checkpoints marshal it. *)
let chunk_bits = 5
let cap = 1 lsl chunk_bits
let slot_mask = cap - 1

type 'a chunk = {
  mutable len : int;
  pfx : int array;  (** [pfx.(s)] is [prefix vns.(s).id], for [s < len] *)
  vns : 'a vnode array;
}

type 'a t = {
  mutable chunks : 'a chunk array;  (** live in [0, nchunks), in id order *)
  mutable lasts : int array;  (** [lasts.(c)]: prefix of chunk [c]'s last slot *)
  mutable nchunks : int;
  mutable size : int;
  mutable total_keys : int;
  messages : Messages.t;
}

let create () =
  {
    chunks = [||];
    lasts = [||];
    nchunks = 0;
    size = 0;
    total_keys = 0;
    messages = Messages.create ();
  }

let messages t = t.messages
let size t = t.size
let total_keys t = t.total_keys

(* The id's top 62 bits: non-negative, so int order is unsigned order and
   agrees with [Id.compare] whenever two prefixes differ. *)
let prefix id =
  Int64.to_int
    (Int64.shift_right_logical (String.get_int64_be (Id.to_raw_string id) 0) 2)

(* The key store: a vnode's keys live inline in its record, [nkeys] ids
   of [kw] bytes packed back to back in ascending id order at the front
   of [packed].  Consumption touches almost every vnode every tick, so a
   removal is one [Bytes.blit], and a join or leave cuts or splices a
   byte range instead of splitting or joining a tree.

   Keys are ordered like ring members: by the top-62-bit prefix, with
   the full bytes read only on a prefix tie — exactly [Id.compare].  An
   empty store holds the shared [Bytes.empty] (a buffer that drains is
   dropped), and spare capacity past [nkeys] is kept zero-filled, so a
   marshaled state never carries stale or uninitialized bytes. *)
let kw = Id.bytes_len

(* A buffer view of an id, as key 0 of a one-key store. *)
let key_bytes id = Bytes.unsafe_of_string (Id.to_raw_string id)

let key_of b i = Id.of_raw_string (Bytes.sub_string b (i * kw) kw)

let key_prefix b i =
  Int64.to_int (Int64.shift_right_logical (Bytes.get_int64_be b (i * kw)) 2)

(* Order of key [i] of [a] against key [j] of [b], whose prefix is [pb]. *)
let compare_keys a i pb b j =
  let pa = key_prefix a i in
  if pa <> pb then Int.compare pa pb
  else begin
    let oa = i * kw and ob = j * kw in
    let rec from k =
      if k = kw then 0
      else
        let c = Char.compare (Bytes.get a (oa + k)) (Bytes.get b (ob + k)) in
        if c <> 0 then c else from (k + 1)
    in
    from 0
  end

(* The first rank in [0, n) of [a] whose key is above key [j] of [b]
   ([~strict:true]) or at least it ([~strict:false]); [n] if none. *)
let bound a n ~strict b j =
  let pb = key_prefix b j in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let c = compare_keys a mid pb b j in
    if c < 0 || (strict && c = 0) then lo := mid + 1 else hi := mid
  done;
  !lo

(* Make room for [bytes] bytes, doubling so single inserts stay
   amortized O(1); the new spare is zero-filled. *)
let reserve vn bytes =
  let b = vn.packed in
  if Bytes.length b < bytes then begin
    let grown = Bytes.make (max bytes (2 * Bytes.length b)) '\000' in
    Bytes.blit b 0 grown 0 (vn.nkeys * kw);
    vn.packed <- grown
  end

(* Keep the first [n] keys; the vacated bytes are zeroed, and an emptied
   store drops its buffer. *)
let truncate vn n =
  if n = 0 then vn.packed <- Bytes.empty
  else Bytes.fill vn.packed (n * kw) ((vn.nkeys - n) * kw) '\000';
  vn.nkeys <- n

let remove_rank vn i =
  let n = vn.nkeys - 1 in
  let b = vn.packed in
  Bytes.blit b ((i + 1) * kw) b (i * kw) ((n - i) * kw);
  truncate vn n

(* Store [key] unless present; [true] iff it was added.  A search plus a
   shift. *)
let add_key vn key =
  let n = vn.nkeys and kb = key_bytes key in
  let r = bound vn.packed n ~strict:false kb 0 in
  if r < n && compare_keys vn.packed r (prefix key) kb 0 = 0 then false
  else begin
    reserve vn ((n + 1) * kw);
    let b = vn.packed in
    Bytes.blit b (r * kw) b ((r + 1) * kw) ((n - r) * kw);
    Bytes.blit kb 0 b (r * kw) kw;
    vn.nkeys <- n + 1;
    true
  end

(* Set union of the [m] ascending keys of [src] into [dst]; returns how
   many were new.  [dst] takes ownership of [src].  When no key of [dst]
   falls between [src]'s first and last, the block is spliced in whole
   at that one position — the usual case, since a leaver's arc precedes
   its successor's; otherwise the two merge and duplicates collapse. *)
let absorb dst m src =
  let n = dst.nkeys in
  if m = 0 then 0
  else if n = 0 then begin
    dst.packed <- src;
    dst.nkeys <- m;
    m
  end
  else begin
    let b = dst.packed in
    let p = bound b n ~strict:false src 0 in
    if p = bound b n ~strict:true src (m - 1) then begin
      reserve dst ((n + m) * kw);
      let b = dst.packed in
      Bytes.blit b (p * kw) b ((p + m) * kw) ((n - p) * kw);
      Bytes.blit src 0 b (p * kw) (m * kw);
      dst.nkeys <- n + m;
      m
    end
    else begin
      let out = Bytes.make ((n + m) * kw) '\000' in
      let i = ref 0 and j = ref 0 and k = ref 0 in
      while !i < n || !j < m do
        let c =
          if !i = n then 1
          else if !j = m then -1
          else compare_keys b !i (key_prefix src !j) src !j
        in
        if c <= 0 then begin
          Bytes.blit b (!i * kw) out (!k * kw) kw;
          incr i;
          if c = 0 then incr j
        end
        else begin
          Bytes.blit src (!j * kw) out (!k * kw) kw;
          incr j
        end;
        incr k
      done;
      dst.packed <- out;
      dst.nkeys <- !k;
      !k - n
    end
  end

(* Cut the keys of [vn] inside the arc [(after, upto]] out into a fresh
   exact-size buffer and compact [vn]'s in place.  Keys are in linear id
   order, so a wrapping arc is two pieces: the head up to [upto], then
   the tail above [after]. *)
let take_arc vn ~after ~upto =
  let n = vn.nkeys and b = vn.packed in
  let above id = bound b n ~strict:true (key_bytes id) 0 in
  (* [lo, hi) is the range that leaves when the arc does not wrap, and
     the range that stays when it does. *)
  let wraps = Id.compare after upto > 0 in
  let lo, hi =
    if Id.equal after upto then (0, n) (* the full ring *)
    else if wraps then (above upto, above after)
    else (above after, above upto)
  in
  let taken = if wraps then n - (hi - lo) else hi - lo in
  if taken = 0 then Bytes.empty
  else begin
    let out = Bytes.create (taken * kw) in
    if wraps then begin
      Bytes.blit b 0 out 0 (lo * kw);
      Bytes.blit b (hi * kw) out (lo * kw) ((n - hi) * kw);
      Bytes.blit b (lo * kw) b 0 ((hi - lo) * kw)
    end
    else begin
      Bytes.blit b (lo * kw) out 0 (taken * kw);
      Bytes.blit b (hi * kw) b (lo * kw) ((n - hi) * kw)
    end;
    truncate vn (n - taken);
    out
  end

let load vn = vn.nkeys

let key_at vn i =
  if i < 0 || i >= vn.nkeys then invalid_arg "Dht.key_at: rank out of range";
  key_of vn.packed i

let iter_keys f vn =
  for i = 0 to vn.nkeys - 1 do
    f (key_at vn i)
  done

(* A crashed vnode's keys, detached from any vnode. *)
type keys = { count : int; bytes : Bytes.t }

let keys_count k = k.count

let keys_iter f k =
  for i = 0 to k.count - 1 do
    f (key_of k.bytes i)
  done

(* A position is [chunk lsl chunk_bits lor slot]; [nchunks lsl
   chunk_bits] is one past the last slot. *)
let vnode_at t pos = t.chunks.(pos lsr chunk_bits).vns.(pos land slot_mask)

(* Lower bound: the position of the first slot whose id is >= [id]
   (prefix [px]), or the end position when every id is smaller. *)
let search t px id =
  let lasts = t.lasts and chunks = t.chunks in
  let lo = ref 0 and hi = ref t.nchunks in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let p = lasts.(mid) in
    if
      p < px
      || p = px
         &&
         let ch = chunks.(mid) in
         Id.compare ch.vns.(ch.len - 1).id id < 0
    then lo := mid + 1
    else hi := mid
  done;
  let c = !lo in
  if c = t.nchunks then c lsl chunk_bits
  else begin
    let ch = chunks.(c) in
    let lo = ref 0 and hi = ref (ch.len - 1) in
    (* The chunk's last slot is >= id, so the bound is below [len]. *)
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      let p = ch.pfx.(mid) in
      if p < px || (p = px && Id.compare ch.vns.(mid).id id < 0) then lo := mid + 1
      else hi := mid
    done;
    (c lsl chunk_bits) lor !lo
  end

(* Does [pos] (a lower bound for [id]) hold [id] itself? *)
let holds t pos px id =
  let c = pos lsr chunk_bits in
  c < t.nchunks
  &&
  let ch = t.chunks.(c) and s = pos land slot_mask in
  ch.pfx.(s) = px && Id.equal ch.vns.(s).id id

(* Clockwise and counterclockwise neighbors of a slot, wrapping; on a
   non-empty index.  [prev] of the end position is the last slot, and
   [wrap] maps the end position to the first slot. *)
let next t pos =
  let c = pos lsr chunk_bits in
  if (pos land slot_mask) + 1 < t.chunks.(c).len then pos + 1
  else if c + 1 < t.nchunks then (c + 1) lsl chunk_bits
  else 0

let prev t pos =
  if pos land slot_mask > 0 then pos - 1
  else begin
    let c = (if pos = 0 then t.nchunks else pos lsr chunk_bits) - 1 in
    (c lsl chunk_bits) lor (t.chunks.(c).len - 1)
  end

let wrap t pos = if pos lsr chunk_bits = t.nchunks then 0 else pos

let new_chunk filler = { len = 0; pfx = Array.make cap 0; vns = Array.make cap filler }

(* Open a chunk slot at index [c] of the top level. *)
let insert_chunk t c ch =
  let n = t.nchunks in
  if n = Array.length t.chunks then begin
    let room = max 16 (2 * n) in
    let chunks = Array.make room ch and lasts = Array.make room 0 in
    Array.blit t.chunks 0 chunks 0 n;
    Array.blit t.lasts 0 lasts 0 n;
    t.chunks <- chunks;
    t.lasts <- lasts
  end;
  let chunks = t.chunks and lasts = t.lasts in
  Array.blit chunks c chunks (c + 1) (n - c);
  for i = n downto c + 1 do
    lasts.(i) <- lasts.(i - 1)
  done;
  chunks.(c) <- ch;
  lasts.(c) <- ch.pfx.(ch.len - 1);
  t.nchunks <- n + 1

let remove_chunk t c =
  let n = t.nchunks - 1 in
  if n = 0 then begin
    t.chunks <- [||];
    t.lasts <- [||]
  end
  else begin
    let chunks = t.chunks and lasts = t.lasts in
    Array.blit chunks (c + 1) chunks c (n - c);
    for i = c to n - 1 do
      lasts.(i) <- lasts.(i + 1)
    done;
    chunks.(n) <- chunks.(0)
  end;
  t.nchunks <- n

(* Shift slots [s, len) of chunk [c] up by one and put [vn] at [s]. *)
let insert_slot t c s px vn =
  let ch = t.chunks.(c) in
  let n = ch.len in
  for i = n downto s + 1 do
    ch.pfx.(i) <- ch.pfx.(i - 1)
  done;
  Array.blit ch.vns s ch.vns (s + 1) (n - s);
  ch.pfx.(s) <- px;
  ch.vns.(s) <- vn;
  ch.len <- n + 1;
  if s = n then t.lasts.(c) <- px

(* Put [vn] at slot [s] of chunk [c]; a full chunk first splits in half. *)
let insert_in t c s px vn =
  let ch = t.chunks.(c) in
  if ch.len < cap then insert_slot t c s px vn
  else begin
    let half = cap / 2 in
    let upper = new_chunk ch.vns.(half) in
    Array.blit ch.pfx half upper.pfx 0 half;
    Array.blit ch.vns half upper.vns 0 half;
    upper.len <- half;
    Array.fill ch.vns half half ch.vns.(0);
    ch.len <- half;
    t.lasts.(c) <- ch.pfx.(half - 1);
    insert_chunk t (c + 1) upper;
    if s <= half then insert_slot t c s px vn else insert_slot t (c + 1) (s - half) px vn
  end

(* Insert at lower bound [pos]; past the last slot means the end of the
   last chunk. *)
let insert_at t pos px vn =
  let c = pos lsr chunk_bits in
  if t.nchunks = 0 then begin
    let ch = new_chunk vn in
    ch.pfx.(0) <- px;
    ch.len <- 1;
    insert_chunk t 0 ch
  end
  else if c = t.nchunks then insert_in t (c - 1) t.chunks.(c - 1).len px vn
  else insert_in t c (pos land slot_mask) px vn;
  t.size <- t.size + 1

let remove_at t pos =
  let c = pos lsr chunk_bits and s = pos land slot_mask in
  let ch = t.chunks.(c) in
  let n = ch.len - 1 in
  if n = 0 then remove_chunk t c
  else begin
    for i = s to n - 1 do
      ch.pfx.(i) <- ch.pfx.(i + 1)
    done;
    Array.blit ch.vns (s + 1) ch.vns s (n - s);
    ch.vns.(n) <- ch.vns.(0);
    ch.len <- n;
    if s = n then t.lasts.(c) <- ch.pfx.(n - 1)
  end;
  t.size <- t.size - 1

let iter f t =
  for c = 0 to t.nchunks - 1 do
    let ch = t.chunks.(c) in
    for s = 0 to ch.len - 1 do
      f ch.vns.(s)
    done
  done

let fold f t acc =
  let acc = ref acc in
  iter (fun vn -> acc := f vn !acc) t;
  !acc

(* The position of member [id], or -1. *)
let locate t id =
  let px = prefix id in
  let pos = search t px id in
  if holds t pos px id then pos else -1

let find t id =
  let pos = locate t id in
  if pos < 0 then None else Some (vnode_at t pos)

let join t ~id ~payload =
  let px = prefix id in
  let pos = search t px id in
  if holds t pos px id then Error `Occupied
  else begin
    t.messages.joins <- t.messages.joins + 1;
    (* The newcomer's arc is (pred(id), id]; it cuts those keys out of
       its successor's store.  The first vnode has nothing to take. *)
    let packed =
      if t.size = 0 then Bytes.empty
      else
        take_arc (vnode_at t (wrap t pos)) ~after:(vnode_at t (prev t pos)).id ~upto:id
    in
    let nkeys = Bytes.length packed / kw in
    t.messages.key_transfers <- t.messages.key_transfers + nkeys;
    let vn = { id; nkeys; packed; payload } in
    insert_at t pos px vn;
    Ok vn
  end

let leave t id =
  let pos = locate t id in
  if pos < 0 then Error `Not_member
  else if t.size = 1 then Error `Last_node
  else begin
    let vn = vnode_at t pos in
    t.messages.leaves <- t.messages.leaves + 1;
    let succ = vnode_at t (next t pos) in
    remove_at t pos;
    let moved = vn.nkeys in
    if moved > 0 then begin
      ignore (absorb succ moved vn.packed);
      t.messages.key_transfers <- t.messages.key_transfers + moved
    end;
    (* The record is out of the ring; empty it so a caller still
       holding it cannot read phantom workload. *)
    vn.nkeys <- 0;
    vn.packed <- Bytes.empty;
    Ok ()
  end

(* Ungraceful removal: the vnode vanishes with no key handover.  Its
   keys leave the store (total_keys drops) and are handed back to the
   caller, who either restores the survivors' copies ({!restore}) or
   writes them off as lost.  Unlike {!leave} the last vnode may crash —
   a crash does not ask permission — so the ring can empty out. *)
let crash t id =
  let pos = locate t id in
  if pos < 0 then Error `Not_member
  else begin
    let vn = vnode_at t pos in
    t.messages.leaves <- t.messages.leaves + 1;
    remove_at t pos;
    let keys = { count = vn.nkeys; bytes = vn.packed } in
    vn.nkeys <- 0;
    vn.packed <- Bytes.empty;
    t.total_keys <- t.total_keys - keys.count;
    Ok keys
  end

let owner_of t key =
  if t.size = 0 then None else Some (vnode_at t (wrap t (search t (prefix key) key)))

(* Recovery after a crash: re-insert a crashed vnode's keys at their
   current owner — the first surviving vnode clockwise of [near] (the
   crashed id), which owns the whole vacated arc.  Bills one transfer
   per key (the fetch from a replica holder).  The owner gets a copy, so
   the crashed key set stays readable. *)
let restore t ~near keys =
  let moved = keys.count in
  if moved > 0 then begin
    match owner_of t near with
    | None -> invalid_arg "Dht.restore: empty ring"
    | Some vn ->
      ignore (absorb vn moved (Bytes.sub keys.bytes 0 (moved * kw)));
      t.total_keys <- t.total_keys + moved;
      t.messages.key_transfers <- t.messages.key_transfers + moved
  end;
  moved

let insert_key t key =
  match owner_of t key with
  | None -> Error `Empty_ring
  | Some vn ->
    if add_key vn key then begin
      t.total_keys <- t.total_keys + 1;
      Ok ()
    end
    else Error `Duplicate

(* Bulk load: sort the batch once, then hand every vnode its arc's slice
   packed straight from the sorted batch instead of one owner lookup and
   one insert per key.  Duplicates (within the batch or against stored
   keys) are dropped, exactly as repeated [insert_key] calls would drop
   them. *)
let insert_keys t keys =
  if t.size = 0 then Error `Empty_ring
  else begin
    let sorted = Array.copy keys in
    Id.sort_array sorted;
    let distinct =
      let n = Array.length sorted in
      if n = 0 then [||]
      else begin
        let out = Array.make n sorted.(0) in
        let m = ref 1 in
        for i = 1 to n - 1 do
          if not (Id.equal sorted.(i) sorted.(i - 1)) then begin
            out.(!m) <- sorted.(i);
            incr m
          end
        done;
        Array.sub out 0 !m
      end
    in
    let n = Array.length distinct in
    (* First index holding an id strictly greater than [x]; [n] if none. *)
    let first_gt x =
      let lo = ref 0 and hi = ref n in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if Id.compare distinct.(mid) x <= 0 then lo := mid + 1 else hi := mid
      done;
      !lo
    in
    let inserted = ref 0 in
    (* Give [vn] the batch's slice [lo, hi). *)
    let give vn lo hi =
      if hi > lo then begin
        let b = Bytes.create ((hi - lo) * kw) in
        for i = lo to hi - 1 do
          Bytes.blit_string (Id.to_raw_string distinct.(i)) 0 b ((i - lo) * kw) kw
        done;
        inserted := !inserted + absorb vn (hi - lo) b
      end
    in
    let first = t.chunks.(0).vns.(0) in
    if t.size = 1 then
      (* A lone vnode owns the whole ring. *)
      give first 0 n
    else begin
      (* Wrap arc (last, first]: the head up to and including the first
         vnode, then the tail beyond the last. *)
      let last = vnode_at t (prev t 0) in
      give first 0 (first_gt first.id);
      give first (first_gt last.id) n;
      let prev_id = ref first.id in
      iter
        (fun vn ->
          if vn != first then begin
            give vn (first_gt !prev_id) (first_gt vn.id);
            prev_id := vn.id
          end)
        t
    end;
    t.total_keys <- t.total_keys + !inserted;
    Ok !inserted
  end

(* Draw [k] ranks with shrinking bounds — [pick c], [pick (c-1)], ... —
   removing the key at each drawn rank as it goes, exactly the
   nth/remove loop the oracle replays; [taken] sees each key's buffer
   and rank just before it goes. *)
let draw_ranks ~pick ~what vn k taken =
  let c = vn.nkeys in
  for j = 0 to k - 1 do
    let bound = c - j in
    let i = pick bound in
    if i < 0 || i >= bound then invalid_arg what;
    taken vn.packed i;
    remove_rank vn i
  done

let no_key_needed _ _ = ()

(* The taken keys themselves, in ascending id order. *)
let draw_keys ~pick ~what vn k =
  let acc = ref [] in
  draw_ranks ~pick ~what vn k (fun b i -> acc := key_of b i :: !acc);
  List.sort Id.compare !acc

(* Consumption takes the vnode record itself: the engine holds each
   machine's records and consumes every tick, where a lookup by id per
   call was the single hottest operation at 100k nodes. *)
let consume_vnode ~pick t vn n =
  let k = min n vn.nkeys in
  if k <= 0 then 0
  else begin
    draw_ranks ~pick ~what:"Dht.consume_vnode_keys: pick out of range" vn k no_key_needed;
    t.total_keys <- t.total_keys - k;
    k
  end

let consume_vnode_keys ~pick t vn n =
  let k = min n vn.nkeys in
  if k <= 0 then []
  else begin
    let taken = draw_keys ~pick ~what:"Dht.consume_vnode_keys: pick out of range" vn k in
    t.total_keys <- t.total_keys - k;
    taken
  end

(* Diffusive work transfer: up to [n] randomly-picked tasks move from
   [src] to [dst] without any ownership change, so the moved keys live
   outside [dst]'s arc afterwards — [check_invariants] relaxes its
   arc-membership check once this has happened.  The picks consume the
   same [pick] discipline as consumption (one bounded draw per taken
   key, bounds c, c-1, ...) so the oracle can replay them naively. *)
let transfer_keys ~pick t ~src ~dst n =
  let k = min n src.nkeys in
  if k <= 0 || src == dst then 0
  else begin
    let taken = draw_keys ~pick ~what:"Dht.transfer_keys: pick out of range" src k in
    (* A picked key that [dst] already holds stays with [src]: silently
       collapsing it in a set union would destroy a task and break
       conservation.  Arrivals refuse a key stored anywhere, so this
       guards the primitive rather than a path the engine takes. *)
    let moved = ref 0 in
    List.iter
      (fun key -> if add_key dst key then incr moved else ignore (add_key src key))
      taken;
    t.messages.work_transfers <- t.messages.work_transfers + !moved;
    !moved
  end

let workload t id =
  match find t id with None -> 0 | Some vn -> vn.nkeys

let arc_of t id =
  let pos = locate t id in
  if pos < 0 then None else Some (Interval.make ~after:(vnode_at t (prev t pos)).id ~upto:id)

(* The first slot strictly clockwise of [id]. *)
let after t id =
  let px = prefix id in
  let pos = search t px id in
  if holds t pos px id then next t pos else wrap t pos

let successor t id = if t.size = 0 then None else Some (vnode_at t (after t id))

let predecessor t id =
  if t.size = 0 then None else Some (vnode_at t (prev t (search t (prefix id) id)))

(* [Ring.k_neighbors]: at most [min k (size - 1)] slots, nearest first,
   which also keeps a member's own slot out of the walk. *)
let walk step t pos k =
  let rec go pos remaining acc =
    if remaining = 0 then List.rev acc
    else go (step t pos) (remaining - 1) (vnode_at t pos :: acc)
  in
  go pos (min k (t.size - 1)) []

let k_successors t id k = if k <= 0 || t.size < 2 then [] else walk next t (after t id) k

let k_predecessors t id k =
  if k <= 0 || t.size < 2 then [] else walk prev t (prev t (search t (prefix id) id)) k

let vnode_ids t = List.rev (fold (fun vn acc -> vn.id :: acc) t [])

let check_invariants t =
  (* The index's structural laws first: the searches below rely on them. *)
  let slots = ref 0 and last = ref None in
  for c = 0 to t.nchunks - 1 do
    let ch = t.chunks.(c) in
    if ch.len < 1 || ch.len > cap then
      invalid_arg (Printf.sprintf "Dht: chunk %d holds %d slots" c ch.len);
    if t.lasts.(c) <> ch.pfx.(ch.len - 1) then
      invalid_arg (Printf.sprintf "Dht: chunk %d caches a stale last prefix" c);
    for s = 0 to ch.len - 1 do
      let id = ch.vns.(s).id in
      if ch.pfx.(s) <> prefix id then
        invalid_arg (Format.asprintf "Dht: slot prefix differs from id %a" Id.pp id);
      (match !last with
      | Some l when Id.compare l id >= 0 ->
        invalid_arg (Format.asprintf "Dht: id %a not above %a" Id.pp id Id.pp l)
      | _ -> ());
      last := Some id
    done;
    slots := !slots + ch.len
  done;
  if !slots <> t.size then
    invalid_arg (Printf.sprintf "Dht: size=%d but the index holds %d slots" t.size !slots);
  let counted = fold (fun vn acc -> acc + vn.nkeys) t 0 in
  if counted <> t.total_keys then
    invalid_arg
      (Printf.sprintf "Dht: total_keys=%d but counted=%d" t.total_keys counted);
  iter
    (fun vn ->
      (match find t vn.id with
      | Some vn' when vn' == vn -> ()
      | Some _ | None -> invalid_arg (Format.asprintf "Dht: search misses %a" Id.pp vn.id));
      (* The key store's laws: the buffer holds the count, keys strictly
         ascend, the spare is zero-filled, and an empty store keeps no
         buffer. *)
      let b = vn.packed and n = vn.nkeys in
      let bad what = invalid_arg (Format.asprintf "Dht: vnode %a %s" Id.pp vn.id what) in
      if n < 0 || Bytes.length b < n * kw then bad "holds more keys than its buffer";
      if n = 0 && Bytes.length b > 0 then bad "keeps a buffer with no keys";
      for i = 1 to n - 1 do
        if compare_keys b (i - 1) (key_prefix b i) b i >= 0 then bad "stores keys out of order"
      done;
      for o = n * kw to Bytes.length b - 1 do
        if Bytes.get b o <> '\000' then bad "has a non-zero spare byte"
      done;
      match arc_of t vn.id with
      | None -> invalid_arg "Dht: vnode without arc"
      | Some arc ->
        (* Diffusive work transfers place tasks outside their owner's
           arc by design, so arc membership is only a law while no
           transfer has happened. *)
        if t.messages.work_transfers = 0 then
          iter_keys
            (fun key ->
              if not (Interval.mem key arc) then
                invalid_arg
                  (Format.asprintf "Dht: key %a outside arc %a of vnode %a" Id.pp
                     key Interval.pp arc Id.pp vn.id))
            vn)
    t
