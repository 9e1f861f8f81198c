let ( let* ) = Result.bind

let int name v =
  match int_of_string_opt v with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "%s: expected an integer, got %S" name v)

let float name v =
  match float_of_string_opt v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "%s: expected a number, got %S" name v)

let split sep (a, b) name v =
  match String.index_opt v sep with
  | None -> Error (Printf.sprintf "%s: expected %s%c%s, got %S" name a sep b v)
  | Some i ->
    let half label = name ^ " " ^ String.lowercase_ascii label in
    let* x = int (half a) (String.sub v 0 i) in
    let* y = int (half b) (String.sub v (i + 1) (String.length v - i - 1)) in
    Ok (x, y)

let fields labels name v =
  let parts = String.split_on_char ':' v in
  if List.length parts <> List.length labels then
    Error (Printf.sprintf "%s: expected %s, got %S" name (String.concat ":" labels) v)
  else Ok (Array.of_list parts)

type 'a clause = string * (string -> 'a -> ('a, string) result)

let key name read set = (name, fun v plan -> Result.map (set plan) (read name v))

let parse ~what ~none ~check clauses s =
  let s = String.trim s in
  let rec apply plan seen = function
    | [] -> Result.map (fun () -> plan) (check plan)
    | clause :: rest -> (
      match String.index_opt clause '=' with
      | None -> Error (Printf.sprintf "expected key=value, got %S" clause)
      | Some i -> (
        let key = String.lowercase_ascii (String.sub clause 0 i) in
        let v = String.sub clause (i + 1) (String.length clause - i - 1) in
        (* A repeated key is almost always a typo'd plan, and a
           last-wins rule would silently drop half of it. *)
        if List.mem key seen then
          Error (Printf.sprintf "duplicate %s key %S (each key at most once)" what key)
        else
        match List.assoc_opt key clauses with
        | None ->
          Error
            (Printf.sprintf "unknown %s key %S (valid keys: %s)" what key
               (String.concat ", " (List.map fst clauses)))
        | Some update ->
          let* plan = update v plan in
          apply plan (key :: seen) rest))
  in
  if s = "" || String.lowercase_ascii s = "off" then Ok none
  else apply none [] (String.split_on_char ',' s)

let emit cond fmt = Printf.ksprintf (fun s -> if cond then Some s else None) fmt
let print clauses = String.concat "," (List.filter_map Fun.id clauses)

let number x =
  let reads_back s = Float.equal (float_of_string s) x in
  let rec digits p =
    let s = Printf.sprintf "%.*g" p x in
    if p >= 17 || reads_back s then s else digits (p + 1)
  in
  let s = Printf.sprintf "%g" x in
  if reads_back s then s else digits 7
