(* [counts.(v)] samples equal [v]; values past the array have none. *)
type t = { mutable counts : int array; mutable length : int; mutable sum : int }

let create () = { counts = [||]; length = 0; sum = 0 }

let add t v =
  if v < 0 then invalid_arg "Tally.add: negative sample";
  let n = Array.length t.counts in
  if v >= n then begin
    let counts = Array.make (max (v + 1) (2 * n)) 0 in
    Array.blit t.counts 0 counts 0 n;
    t.counts <- counts
  end;
  t.counts.(v) <- t.counts.(v) + 1;
  t.length <- t.length + 1;
  t.sum <- t.sum + v

let clear t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.length <- 0;
  t.sum <- 0

let length t = t.length

(* The [k]-th smallest sample, 0-based: the first value whose
   cumulative count exceeds [k]. *)
let nth t k =
  let rec go v seen =
    let seen = seen + t.counts.(v) in
    if seen > k then v else go (v + 1) seen
  in
  go 0 0

let percentile t p =
  Descriptive.order_percentile ~what:"Tally.percentile" t.length
    (fun k -> float_of_int (nth t k))
    p

let mean t =
  if t.length = 0 then invalid_arg "Tally.mean: empty input";
  float_of_int t.sum /. float_of_int t.length

let to_list t =
  let rec go v acc =
    if v < 0 then acc
    else go (v - 1) (if t.counts.(v) > 0 then (v, t.counts.(v)) :: acc else acc)
  in
  go (Array.length t.counts - 1) []
