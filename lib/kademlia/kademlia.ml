module Tbl = Hashtbl.Make (struct
  type t = Id.t

  let equal = Id.equal
  let hash = Id.hash
end)

let distance = Id.logxor

let bucket_index ~self id = Id.msb (distance self id)

type node = { buckets : Id.t list array (* index 0..159 *) }

type t = { nodes : node Tbl.t; k : int }

let xor_closer key a b =
  (* negative if a is closer to key than b *)
  Id.compare (distance key a) (distance key b)

let rec take n = function
  | [] -> []
  | x :: tl -> if n = 0 then [] else x :: take (n - 1) tl

(* Offer [other] to [self]'s table: accept when the bucket has room, or
   when [other] is closer than the bucket's furthest entry (Kademlia
   actually prefers old stable contacts; closeness is the right policy
   for a converged simulator table).  A bucket is kept sorted closest
   first, so a full bucket whose last entry is closer than [other]
   would drop [other] again after the sort: skip the sort. *)
let offer t self (node : node) other =
  match bucket_index ~self other with
  | None -> ()
  | Some i ->
    let entries = node.buckets.(i) in
    let full_and_closer () =
      List.length entries >= t.k
      && xor_closer self (List.nth entries (t.k - 1)) other < 0
    in
    if not (full_and_closer () || List.exists (Id.equal other) entries) then
      node.buckets.(i) <-
        take t.k (List.sort (xor_closer self) (other :: entries))

let add_node t id =
  if not (Tbl.mem t.nodes id) then begin
    let fresh = { buckets = Array.make Id.bits [] } in
    Tbl.iter
      (fun other other_node ->
        offer t id fresh other;
        offer t other other_node id)
      t.nodes;
    Tbl.replace t.nodes id fresh
  end

let remove_node t id =
  if Tbl.mem t.nodes id then begin
    Tbl.remove t.nodes id;
    Tbl.iter
      (fun _ node ->
        Array.iteri
          (fun i entries ->
            if List.exists (Id.equal id) entries then
              node.buckets.(i) <-
                List.filter (fun e -> not (Id.equal e id)) entries)
          node.buckets)
      t.nodes
  end

let build rng ~ids ~k =
  if Array.length ids = 0 then invalid_arg "Kademlia.build: no members";
  if k < 1 then invalid_arg "Kademlia.build: k < 1";
  ignore rng;
  let t = { nodes = Tbl.create (Array.length ids); k } in
  Array.iter (add_node t) ids;
  t

let size t = Tbl.length t.nodes

let members t =
  List.sort Id.compare (Tbl.fold (fun id _ acc -> id :: acc) t.nodes [])

let owner t key =
  match members t with
  | [] -> invalid_arg "Kademlia.owner: empty network"
  | first :: rest ->
    List.fold_left
      (fun best candidate ->
        if xor_closer key candidate best < 0 then candidate else best)
      first rest

let bucket_of t ~self i =
  match Tbl.find_opt t.nodes self with
  | Some node when i >= 0 && i < Id.bits -> node.buckets.(i)
  | _ -> []

(* The closest entry a node knows for [key], across all its buckets; a
   real implementation checks the target bucket then neighbours — a full
   scan is equivalent for correctness and this is a simulator. *)
let closest_known t self key =
  match Tbl.find_opt t.nodes self with
  | None -> None
  | Some node ->
    Array.fold_left
      (fun best bucket ->
        List.fold_left
          (fun best entry ->
            match best with
            | Some b when xor_closer key b entry <= 0 -> best
            | _ -> Some entry)
          best bucket)
      None node.buckets

let lookup t ~start ~key =
  if not (Tbl.mem t.nodes start) then None
  else begin
    let cap = 4 * Id.bits in
    let rec go cur hops =
      if hops > cap then None
      else
        match closest_known t cur key with
        | None -> Some (cur, hops) (* singleton network *)
        | Some next ->
          if xor_closer key next cur < 0 then go next (hops + 1)
          else Some (cur, hops) (* no one closer known: cur is the owner *)
    in
    go start 0
  end

let expected_hops n = if n <= 1 then 0.0 else log (float_of_int n) /. log 2.0
