type row = Note of string | Cell of string * Params.t * Strategy.t

type section = {
  title : string;
  single : (string -> Engine.result -> string) option;
  rows : row list;
}

let aggregate_row label (a : Runner.aggregate) =
  Printf.sprintf "  %-42s factor=%6.3f +/-%5.3f  [%6.3f, %6.3f]%s\n" label
    a.Runner.mean_factor a.Runner.stddev_factor a.Runner.min_factor
    a.Runner.max_factor
    (if a.Runner.aborted > 0 then Printf.sprintf "  (%d aborted!)" a.Runner.aborted
     else "")

(* A cell identical to an earlier one of the same section (equal
   parameters and strategy, both plain data) reprints that cell's result
   under its own label instead of running again. *)
let render ?trials ~seed s =
  let buf = Buffer.create 2048 in
  Printf.bprintf buf "%s\n%s\n" s.title (String.make (String.length s.title) '-');
  let run params strategy =
    let params = { params with Params.seed } in
    match s.single with
    | Some line ->
      let r = Engine.run params (Strategy.make strategy ()) in
      fun label -> line label r
    | None ->
      let a =
        Runner.run_trials ?trials ~domains:(Scale.domains ()) params
          (Strategy.make strategy)
      in
      fun label -> aggregate_row label a
  in
  let ran = ref [] in
  List.iter
    (fun row ->
      Buffer.add_string buf
        (match row with
        | Note text -> "  " ^ text ^ "\n"
        | Cell (label, params, strategy) ->
          let print =
            match List.assoc_opt (params, strategy) !ran with
            | Some print -> print
            | None ->
              let print = run params strategy in
              ran := ((params, strategy), print) :: !ran;
              print
          in
          print label))
    s.rows;
  Buffer.contents buf
