(* One named, unit-carrying number.  [value = None] marks a metric that
   is undefined for this run (a tail percentile with too few samples
   beyond it); [base] names the count a ratio is taken over. *)

type t = { name : string; value : float option; unit : string; base : string option }

let v ?base name unit value = { name; value = Some value; unit; base }
let count name n = v name "count" (float_of_int n)

(* ns per unit of work, 0 when the step did no work at all. *)
let ratio ~base name unit seconds n =
  v ~base name unit (if n = 0 then 0.0 else seconds *. 1e9 /. float_of_int n)

let to_json m =
  Json_out.Obj
    ([
       ("value", match m.value with Some x -> Json_out.Float x | None -> Json_out.Null);
       ("unit", Json_out.String m.unit);
     ]
    @ match m.base with Some b -> [ ("base", Json_out.String b) ] | None -> [])

let list_to_json ms = Json_out.Obj (List.map (fun m -> (m.name, to_json m)) ms)

let list_of_json = function
  | Json_out.Obj fields ->
    List.map
      (fun (name, j) ->
        let str k = Option.bind (Json_in.member k j) Json_in.to_string in
        {
          name;
          value =
            (match Json_in.member "value" j with
            | Some (Json_out.Float x) -> Some x
            | Some (Json_out.Int n) -> Some (float_of_int n)
            | _ -> None);
          unit = Option.value ~default:"" (str "unit");
          base = str "base";
        })
      fields
  | _ -> []

let find ms name = List.find_opt (fun m -> String.equal m.name name) ms
