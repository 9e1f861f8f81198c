module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

module Make (Ord : ORDERED) = struct
  type elt = Ord.t

  (* Height-balanced (AVL-style, slack 2 as in Stdlib.Set) tree carrying
     both height and subtree size. *)
  type t = Empty | Node of { l : t; v : elt; r : t; h : int; s : int }

  let empty = Empty
  let is_empty = function Empty -> true | Node _ -> false
  let height = function Empty -> 0 | Node { h; _ } -> h
  let cardinal = function Empty -> 0 | Node { s; _ } -> s

  let mk l v r =
    let hl = height l and hr = height r in
    Node
      {
        l;
        v;
        r;
        h = (if hl >= hr then hl + 1 else hr + 1);
        s = cardinal l + cardinal r + 1;
      }

  let bal l v r =
    let hl = height l and hr = height r in
    if hl > hr + 2 then
      match l with
      | Empty -> assert false
      | Node { l = ll; v = lv; r = lr; _ } ->
        if height ll >= height lr then mk ll lv (mk lr v r)
        else begin
          match lr with
          | Empty -> assert false
          | Node { l = lrl; v = lrv; r = lrr; _ } ->
            mk (mk ll lv lrl) lrv (mk lrr v r)
        end
    else if hr > hl + 2 then
      match r with
      | Empty -> assert false
      | Node { l = rl; v = rv; r = rr; _ } ->
        if height rr >= height rl then mk (mk l v rl) rv rr
        else begin
          match rl with
          | Empty -> assert false
          | Node { l = rll; v = rlv; r = rlr; _ } ->
            mk (mk l v rll) rlv (mk rlr rv rr)
        end
    else mk l v r

  let singleton v = mk Empty v Empty

  let rec add x = function
    | Empty -> singleton x
    | Node { l; v; r; _ } as node ->
      let c = Ord.compare x v in
      if c = 0 then node
      else if c < 0 then
        let l' = add x l in
        if l' == l then node else bal l' v r
      else
        let r' = add x r in
        if r' == r then node else bal l v r'

  let rec mem x = function
    | Empty -> false
    | Node { l; v; r; _ } ->
      let c = Ord.compare x v in
      c = 0 || mem x (if c < 0 then l else r)

  let rec min_elt_opt = function
    | Empty -> None
    | Node { l = Empty; v; _ } -> Some v
    | Node { l; _ } -> min_elt_opt l

  let rec max_elt_opt = function
    | Empty -> None
    | Node { r = Empty; v; _ } -> Some v
    | Node { r; _ } -> max_elt_opt r

  let rec remove_min = function
    | Empty -> invalid_arg "Ordset.remove_min"
    | Node { l = Empty; v; r; _ } -> (v, r)
    | Node { l; v; r; _ } ->
      let m, l' = remove_min l in
      (m, bal l' v r)

  (* Concatenate two trees given every element of [l] < every element of
     [r]; rebalances along the spine, O(|height l - height r|). *)
  let rec join l v r =
    match (l, r) with
    | Empty, _ -> add v r
    | _, Empty -> add v l
    | Node { l = ll; v = lv; r = lr; h = hl; _ }, Node { l = rl; v = rv; r = rr; h = hr; _ }
      ->
      if hl > hr + 2 then bal ll lv (join lr v r)
      else if hr > hl + 2 then bal (join l v rl) rv rr
      else mk l v r

  let concat l r =
    match (l, r) with
    | Empty, t | t, Empty -> t
    | _ ->
      let m, r' = remove_min r in
      join l m r'

  let rec remove x = function
    | Empty -> Empty
    | Node { l; v; r; _ } as node ->
      let c = Ord.compare x v in
      if c = 0 then concat l r
      else if c < 0 then
        let l' = remove x l in
        if l' == l then node else bal l' v r
      else
        let r' = remove x r in
        if r' == r then node else bal l v r'

  let take_min = function
    | Empty -> None
    | t ->
      let m, t' = remove_min t in
      Some (m, t')

  let rec split x = function
    | Empty -> (Empty, false, Empty)
    | Node { l; v; r; _ } ->
      let c = Ord.compare x v in
      if c = 0 then (l, true, r)
      else if c < 0 then
        let ll, pres, lr = split x l in
        (ll, pres, join lr v r)
      else
        let rl, pres, rr = split x r in
        (join l v rl, pres, rr)

  let rec union t1 t2 =
    match (t1, t2) with
    | Empty, t | t, Empty -> t
    | Node { l = l1; v = v1; r = r1; _ }, _ ->
      let l2, _, r2 = split v1 t2 in
      join (union l1 l2) v1 (union r1 r2)

  let rec fold f t acc =
    match t with
    | Empty -> acc
    | Node { l; v; r; _ } -> fold f r (f v (fold f l acc))

  let rec iter f = function
    | Empty -> ()
    | Node { l; v; r; _ } ->
      iter f l;
      f v;
      iter f r

  let elements t = List.rev (fold (fun v acc -> v :: acc) t [])
  let of_list l = List.fold_left (fun acc v -> add v acc) empty l

  let rec nth t i =
    match t with
    | Empty -> invalid_arg "Ordset.nth: index out of bounds"
    | Node { l; v; r; _ } ->
      let cl = cardinal l in
      if i < cl then nth l i
      else if i = cl then v
      else nth r (i - cl - 1)

  let rec extract_rank t i =
    match t with
    | Empty -> invalid_arg "Ordset.extract_rank: rank out of bounds"
    | Node { l; v; r; _ } ->
      let cl = cardinal l in
      if i < cl then
        let x, l' = extract_rank l i in
        (x, bal l' v r)
      else if i = cl then (v, concat l r)
      else
        let x, r' = extract_rank r (i - cl - 1) in
        (x, bal l v r')

  (* Removes the elements at the given ranks (strictly increasing, all in
     bounds) in a single descent: ranks are partitioned per subtree and
     the survivors reassembled with [join]/[concat], so extracting [n]
     ranks costs O(n log(k/n + 1) + log k) rather than n full
     root-to-leaf searches. *)
  let extract_ranks t ranks =
    let check_sorted =
      let rec go = function
        | a :: (b :: _ as tl) ->
          if a >= b then
            invalid_arg "Ordset.extract_ranks: ranks not strictly increasing"
          else go tl
        | _ -> ()
      in
      go
    in
    check_sorted ranks;
    (match ranks with
    | i :: _ when i < 0 -> invalid_arg "Ordset.extract_ranks: negative rank"
    | _ -> ());
    let rec go t ranks =
      match ranks with
      | [] -> ([], t)
      | _ -> (
        match t with
        | Empty -> invalid_arg "Ordset.extract_ranks: rank out of bounds"
        | Node { l; v; r; _ } ->
          let cl = cardinal l in
          let rec split3 acc = function
            | i :: tl when i < cl -> split3 (i :: acc) tl
            | rest -> (List.rev acc, rest)
          in
          let left_ranks, rest = split3 [] ranks in
          let here, right_ranks =
            match rest with i :: tl when i = cl -> (true, tl) | _ -> (false, rest)
          in
          let right_ranks = List.map (fun i -> i - cl - 1) right_ranks in
          let lelts, l' = go l left_ranks in
          let relts, r' = go r right_ranks in
          let t' = if here then concat l' r' else join l' v r' in
          let tail = if here then v :: relts else relts in
          (lelts @ tail, t'))
    in
    go t ranks

  (* Bulk random sampling without replacement.  Draws [rand c], [rand
     (c-1)], ... exactly as a caller looping [nth]/[remove] would, so a
     deterministic [rand] stream selects the same elements as the
     one-at-a-time loop it replaces — then removes them all in one tree
     pass via [extract_ranks]. *)
  let take_random_n ~rand t n =
    let c = cardinal t in
    let n = min n c in
    if n <= 0 then ([], t)
    else if n = 1 then begin
      (* The common per-tick budget: one draw, one descent. *)
      let i = rand c in
      if i < 0 || i >= c then
        invalid_arg "Ordset.take_random_n: rand out of range";
      let x, t' = extract_rank t i in
      ([ x ], t')
    end
    else begin
      (* Convert each draw (an index into the shrinking set) to a rank in
         the original tree: the i-th not-yet-chosen rank.  [chosen] stays
         sorted ascending; n is a per-tick budget, so the O(n^2) list walk
         is negligible next to the tree work. *)
      let chosen = ref [] in
      for j = 0 to n - 1 do
        let i = rand (c - j) in
        if i < 0 || i >= c - j then
          invalid_arg "Ordset.take_random_n: rand out of range";
        (* Every already-chosen rank <= cur shifts the target right by
           one; past the first gap the remaining ranks are all larger. *)
        let rec insert acc cur = function
          | r :: tl when r <= cur -> insert (r :: acc) (cur + 1) tl
          | rest -> List.rev_append acc (cur :: rest)
        in
        chosen := insert [] i !chosen
      done;
      extract_ranks t !chosen
    end

  let check_invariants t =
    let rec go = function
      | Empty -> (0, 0, None, None)
      | Node { l; v; r; h; s } ->
        let hl, sl, minl, maxl = go l in
        let hr, sr, minr, maxr = go r in
        if abs (hl - hr) > 2 then invalid_arg "Ordset: unbalanced";
        if h <> 1 + max hl hr then invalid_arg "Ordset: bad height";
        if s <> sl + sr + 1 then invalid_arg "Ordset: bad size";
        (match maxl with
        | Some m when Ord.compare m v >= 0 -> invalid_arg "Ordset: order (left)"
        | _ -> ());
        (match minr with
        | Some m when Ord.compare v m >= 0 -> invalid_arg "Ordset: order (right)"
        | _ -> ());
        let mn = match minl with Some m -> Some m | None -> Some v in
        let mx = match maxr with Some m -> Some m | None -> Some v in
        (h, s, mn, mx)
    in
    ignore (go t)
end
