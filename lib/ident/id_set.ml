include Ordset.Make (Id)

let split_arc (arc : Interval.t) t =
  let { Interval.after; upto } = arc in
  if Id.equal after upto then (t, empty)
  else if Id.compare after upto < 0 then begin
    (* No wrap: inside = (after, upto]. *)
    let le_upto, at_upto, gt_upto = split upto t in
    let lt_after, at_after, mid = split after le_upto in
    let inside = if at_upto then add upto mid else mid in
    let outside = union lt_after gt_upto in
    let outside = if at_after then add after outside else outside in
    (inside, outside)
  end
  else begin
    (* Wrap through zero: inside = (after, max] ∪ [zero, upto]. *)
    let le_upto, at_upto, gt_upto = split upto t in
    let low = if at_upto then add upto le_upto else le_upto in
    let mid_low, at_after, high = split after gt_upto in
    let outside = if at_after then add after mid_low else mid_low in
    (union low high, outside)
  end
