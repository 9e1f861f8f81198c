type 'a vnode = { id : Id.t; mutable keys : Id_set.t; payload : 'a }

type 'a t = {
  mutable ring : 'a vnode Ring.t;
  (* Hash index over the same vnodes: point lookups (find/workload)
     are O(1) instead of an O(log n) ring descent, which the
     strategies' every-decision-period workload scans hit for every
     vnode of every machine. *)
  index : (Id.t, 'a vnode) Hashtbl.t;
  mutable total_keys : int;
  messages : Messages.t;
}

let create () =
  {
    ring = Ring.empty;
    index = Hashtbl.create 256;
    total_keys = 0;
    messages = Messages.create ();
  }

let messages t = t.messages
let size t = Ring.cardinal t.ring
let total_keys t = t.total_keys
let find t id = Hashtbl.find_opt t.index id

let join t ~id ~payload =
  if Hashtbl.mem t.index id then Error `Occupied
  else begin
    t.messages.joins <- t.messages.joins + 1;
    let keys =
      match Ring.successor id t.ring with
      | None -> Id_set.empty (* first vnode: nothing to take over *)
      | Some (_, succ) ->
        (* The newcomer's arc is (pred(id), id]; carve it out of the keys
           currently held by the successor. *)
        let after =
          match Ring.predecessor id t.ring with
          | Some (p, _) -> p
          | None -> assert false
        in
        let arc = Interval.make ~after ~upto:id in
        let inside, outside = Id_set.split_arc arc succ.keys in
        succ.keys <- outside;
        t.messages.key_transfers <- t.messages.key_transfers + Id_set.cardinal inside;
        inside
    in
    let vn = { id; keys; payload } in
    t.ring <- Ring.add id vn t.ring;
    Hashtbl.replace t.index id vn;
    Ok vn
  end

let leave t id =
  match Hashtbl.find_opt t.index id with
  | None -> Error `Not_member
  | Some vn ->
    if Ring.cardinal t.ring = 1 then
      if Id_set.is_empty vn.keys then begin
        t.messages.leaves <- t.messages.leaves + 1;
        t.ring <- Ring.remove id t.ring;
        Hashtbl.remove t.index id;
        Ok ()
      end
      else Error `Last_node
    else begin
      t.messages.leaves <- t.messages.leaves + 1;
      t.ring <- Ring.remove id t.ring;
      Hashtbl.remove t.index id;
      (match Ring.successor id t.ring with
      | Some (_, succ) ->
        let moved = Id_set.cardinal vn.keys in
        if moved > 0 then begin
          succ.keys <- Id_set.union succ.keys vn.keys;
          t.messages.key_transfers <- t.messages.key_transfers + moved
        end
      | None -> assert false);
      (* The record is out of the ring; empty it so a caller still
         holding it cannot read phantom workload. *)
      vn.keys <- Id_set.empty;
      Ok ()
    end

(* Ungraceful removal: the vnode vanishes with no key handover.  Its
   keys leave the store (total_keys drops) and are handed back to the
   caller, who either restores the survivors' copies ({!restore}) or
   writes them off as lost.  Unlike {!leave} the last vnode may crash —
   a crash does not ask permission — so the ring can empty out. *)
let crash t id =
  match Hashtbl.find_opt t.index id with
  | None -> Error `Not_member
  | Some vn ->
    t.messages.leaves <- t.messages.leaves + 1;
    t.ring <- Ring.remove id t.ring;
    Hashtbl.remove t.index id;
    let keys = vn.keys in
    vn.keys <- Id_set.empty;
    t.total_keys <- t.total_keys - Id_set.cardinal keys;
    Ok keys

let owner_of t key =
  match Ring.successor_incl key t.ring with
  | None -> None
  | Some (_, vn) -> Some vn

(* Recovery after a crash: re-insert a crashed vnode's keys at their
   current owner — the first surviving vnode clockwise of [near] (the
   crashed id), which owns the whole vacated arc.  Bills one transfer
   per key (the fetch from a replica holder). *)
let restore t ~near keys =
  let moved = Id_set.cardinal keys in
  if moved > 0 then begin
    match owner_of t near with
    | None -> invalid_arg "Dht.restore: empty ring"
    | Some vn ->
      vn.keys <- Id_set.union vn.keys keys;
      t.total_keys <- t.total_keys + moved;
      t.messages.key_transfers <- t.messages.key_transfers + moved
  end;
  moved

let insert_key t key =
  match owner_of t key with
  | None -> Error `Empty_ring
  | Some vn ->
    if Id_set.mem key vn.keys then Error `Duplicate
    else begin
      vn.keys <- Id_set.add key vn.keys;
      t.total_keys <- t.total_keys + 1;
      Ok ()
    end

(* Bulk load: sort the batch once, then hand every vnode its arc's slice
   as an [of_sorted_array] set instead of one owner lookup and one AVL
   insert per key.  Duplicates (within the batch or against stored keys)
   are dropped, exactly as repeated [insert_key] calls would drop them. *)
let insert_keys t keys =
  if Ring.is_empty t.ring then Error `Empty_ring
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
    let give vn slice_set =
      if not (Id_set.is_empty slice_set) then begin
        let before = Id_set.cardinal vn.keys in
        vn.keys <- Id_set.union vn.keys slice_set;
        inserted := !inserted + Id_set.cardinal vn.keys - before
      end
    in
    let slice lo hi =
      (* [lo, hi): already sorted and distinct. *)
      if hi <= lo then Id_set.empty
      else Id_set.of_sorted_array (Array.sub distinct lo (hi - lo))
    in
    let bindings = Ring.bindings t.ring in
    (match bindings with
    | [] -> assert false
    | (first_id, first_vn) :: rest ->
      let last_id =
        match List.rev rest with (id, _) :: _ -> id | [] -> first_id
      in
      if rest = [] then
        (* A lone vnode owns the whole ring. *)
        give first_vn (slice 0 n)
      else begin
        (* Wrap arc (last, first]: the tail beyond the last vnode plus
           the head up to and including the first. *)
        give first_vn
          (Id_set.union (slice (first_gt last_id) n) (slice 0 (first_gt first_id)));
        let prev = ref first_id in
        List.iter
          (fun (id, vn) ->
            give vn (slice (first_gt !prev) (first_gt id));
            prev := id)
          rest
      end);
    t.total_keys <- t.total_keys + !inserted;
    Ok !inserted
  end

(* Consumption takes the vnode record itself: the engine holds each
   machine's records and consumes every tick, and a per-call [Hashtbl]
   lookup by id was the single hottest operation at 100k nodes. *)
let consume_vnode_keys ~pick t vn n =
  let c = Id_set.cardinal vn.keys in
  if n <= 0 || c = 0 then []
  else begin
    let rand bound =
      let i = pick bound in
      if i < 0 || i >= bound then invalid_arg "Dht.consume_vnode_keys: pick out of range";
      i
    in
    let taken, rest = Id_set.take_random_n ~rand vn.keys n in
    vn.keys <- rest;
    t.total_keys <- t.total_keys - List.length taken;
    taken
  end

let consume_vnode ~pick t vn n = List.length (consume_vnode_keys ~pick t vn n)

(* Diffusive work transfer: up to [n] randomly-picked tasks move from
   [src] to [dst] without any ownership change, so the moved keys live
   outside [dst]'s arc afterwards — [check_invariants] relaxes its
   arc-membership check once this has happened.  The picks consume the
   same [pick] discipline as consumption (one bounded draw per taken
   key, bounds c, c-1, ...) so the oracle can replay them naively. *)
let transfer_keys ~pick t ~src ~dst n =
  let c = Id_set.cardinal src.keys in
  if n <= 0 || c = 0 || src == dst then 0
  else begin
    let rand bound =
      let i = pick bound in
      if i < 0 || i >= bound then invalid_arg "Dht.transfer_keys: pick out of range";
      i
    in
    let taken, rest = Id_set.take_random_n ~rand src.keys n in
    src.keys <- rest;
    (* A picked key that [dst] already holds (possible only if a
       duplicate arrival slipped past the owner after an earlier
       transfer) stays with [src]: silently collapsing it in a set
       union would destroy a task and break conservation. *)
    let moved = ref 0 in
    List.iter
      (fun key ->
        if Id_set.mem key dst.keys then src.keys <- Id_set.add key src.keys
        else begin
          dst.keys <- Id_set.add key dst.keys;
          incr moved
        end)
      taken;
    t.messages.work_transfers <- t.messages.work_transfers + !moved;
    !moved
  end

let workload t id =
  match Hashtbl.find_opt t.index id with
  | None -> 0
  | Some vn -> Id_set.cardinal vn.keys

let arc_of t id = Ring.arc_of id t.ring

let successor t id =
  match Ring.successor id t.ring with None -> None | Some (_, vn) -> Some vn

let predecessor t id =
  match Ring.predecessor id t.ring with None -> None | Some (_, vn) -> Some vn

let k_successors t id k = List.map snd (Ring.k_successors id k t.ring)
let k_predecessors t id k = List.map snd (Ring.k_predecessors id k t.ring)
let iter f t = Ring.iter (fun _ vn -> f vn) t.ring
let fold f t acc = Ring.fold (fun _ vn acc -> f vn acc) t.ring acc
let vnode_ids t = List.map fst (Ring.bindings t.ring)
let ring t = t.ring

let check_invariants t =
  let counted = fold (fun vn acc -> acc + Id_set.cardinal vn.keys) t 0 in
  if counted <> t.total_keys then
    invalid_arg
      (Printf.sprintf "Dht: total_keys=%d but counted=%d" t.total_keys counted);
  if Hashtbl.length t.index <> Ring.cardinal t.ring then
    invalid_arg
      (Printf.sprintf "Dht: index has %d entries but ring has %d"
         (Hashtbl.length t.index) (Ring.cardinal t.ring));
  iter
    (fun vn ->
      (match Hashtbl.find_opt t.index vn.id with
      | Some vn' when vn' == vn -> ()
      | Some _ -> invalid_arg "Dht: index points at a stale vnode"
      | None -> invalid_arg "Dht: ring vnode missing from index");
      match arc_of t vn.id with
      | None -> invalid_arg "Dht: vnode without arc"
      | Some arc ->
        (* Diffusive work transfers place tasks outside their owner's
           arc by design, so arc membership is only a law while no
           transfer has happened. *)
        if t.messages.work_transfers = 0 then
          Id_set.iter
            (fun key ->
              if not (Interval.mem key arc) then
                invalid_arg
                  (Format.asprintf "Dht: key %a outside arc %a of vnode %a" Id.pp
                     key Interval.pp arc Id.pp vn.id))
            vn.keys)
    t
