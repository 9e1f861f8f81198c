type cell = { params : Params.t; strategy : Strategy.t }
type value = { fields : (string * Json_out.t) list; set : cell -> cell }

type row = {
  key : (string * Json_out.t) list;
  cell : cell;
  metrics : (string * float) list;
  aggregate : Runner.aggregate;
}

type t = {
  name : string;
  base : Params.t;
  strategy : Strategy.t;
  axes : value list list;
  fixed : (string * (Params.t -> Json_out.t)) list;
  derive : (string * (Params.t -> Engine.result array -> float)) list;
  csv : (string * (row -> string)) list;
  table : row list -> string;
  json : string list option;
}

let grid axes =
  List.fold_right
    (fun axis inner ->
      List.concat_map (fun v -> List.map (fun vs -> v :: vs) inner) axis)
    axes [ [] ]

(* Journal payload: the derived metrics plus the aggregate, or the bare
   aggregate when there are none; the coordinates live in the key. *)
let encode t (metrics, aggregate) =
  let a = Journal.aggregate_to_json aggregate in
  if t.derive = [] then a
  else
    Json_out.Obj
      (List.map (fun (name, x) -> (name, Json_out.Float x)) metrics
      @ [ ("aggregate", a) ])

let decode t v =
  let flt name = Option.bind (Json_in.member name v) Json_in.to_float in
  let metrics = List.map (fun (name, _) -> (name, flt name)) t.derive in
  let aggregate =
    if t.derive = [] then Journal.aggregate_of_json v
    else Option.bind (Json_in.member "aggregate" v) Journal.aggregate_of_json
  in
  match aggregate with
  | Some a when List.for_all (fun (_, x) -> x <> None) metrics ->
    Some (List.map (fun (name, x) -> (name, Option.get x)) metrics, a)
  | _ -> None

let run ?journal ?trial_timeout ~trials ~seed t =
  List.mapi
    (fun index values ->
      let start = { params = t.base; strategy = t.strategy } in
      let cell = List.fold_left (fun c v -> v.set c) start values in
      (* Disjoint per-cell seed ranges; see Runner.stride_seed. *)
      let cell_seed = Runner.stride_seed ~base:seed ~trials ~index in
      let params = { cell.params with Params.seed = cell_seed } in
      let key =
        List.concat_map (fun v -> v.fields) values
        @ List.map (fun (name, get) -> (name, get params)) t.fixed
      in
      let journal_key =
        Journal.key
          ((("experiment", Json_out.String t.name) :: key)
          @ [ ("seed", Json_out.Int cell_seed); ("trials", Json_out.Int trials) ])
      in
      let metrics, aggregate =
        Journal.cell journal ~key:journal_key ~encode:(encode t)
          ~decode:(decode t) (fun () ->
            let results =
              Runner.run_all ~trials ~domains:(Scale.domains ()) ?trial_timeout
                params (Strategy.make cell.strategy)
            in
            ( List.map (fun (name, m) -> (name, m params results)) t.derive,
              Runner.aggregate_of params results ))
      in
      { key; cell = { cell with params }; metrics; aggregate })
    (grid t.axes)

let field_int r name = Option.get (Json_in.to_int (List.assoc name r.key))
let field_float r name = Option.get (Json_in.to_float (List.assoc name r.key))
let metric r name = List.assoc name r.metrics
let agg g r = g r.aggregate
let mean_factor = agg (fun a -> Printf.sprintf "%.3f" a.Runner.mean_factor)

(* One line per row; the first column left-aligned, the others
   right-aligned, one space apart. *)
let flat columns rows =
  let buf = Buffer.create 1024 in
  let line texts =
    List.iteri
      (fun i ((_, width, _), text) ->
        if i = 0 then Buffer.add_string buf (Printf.sprintf "%-*s" width text)
        else Buffer.add_string buf (Printf.sprintf " %*s" width text))
      (List.combine columns texts);
    Buffer.add_char buf '\n'
  in
  line (List.map (fun (header, _, _) -> header) columns);
  List.iter (fun r -> line (List.map (fun (_, _, text) -> text r) columns)) rows;
  Buffer.contents buf

(* A two-way table of mean runtime factors: a line per distinct [row]
   value, a column per distinct [col] value, both ascending; missing
   cells print "-". *)
let pivot ?title ~corner ~width ~row ~row_label ~col ~col_label ~cell_width rows =
  let buf = Buffer.create 1024 in
  let add = Buffer.add_string buf in
  let distinct f = List.sort_uniq compare (List.map f rows) in
  let cols = distinct col in
  Option.iter
    (fun t -> add (Printf.sprintf "%s\n%s\n" t (String.make (String.length t) '-')))
    title;
  add (Printf.sprintf "%-*s" width corner);
  List.iter (fun c -> add (" | " ^ col_label c)) cols;
  add "\n";
  List.iter
    (fun rk ->
      add (Printf.sprintf "%-*s" width (row_label rk));
      List.iter
        (fun ck ->
          let text =
            match List.find_opt (fun r -> row r = rk && col r = ck) rows with
            | Some r -> mean_factor r
            | None -> "-"
          in
          add (Printf.sprintf " | %*s" cell_width text))
        cols;
      add "\n")
    (distinct row);
  Buffer.contents buf

let csv t rows =
  Csv_out.table ~header:(List.map fst t.csv)
    (List.map (fun r -> List.map (fun (_, text) -> text r) t.csv) rows)

let json t rows =
  let fields = Option.value t.json ~default:[] in
  Json_out.List
    (List.map
       (fun r ->
         let echoed =
           List.map (fun name -> (name, List.assoc name r.key)) fields
         in
         let label =
           String.concat " "
             (List.map
                (function
                  | _, Json_out.String s -> s
                  | name, Json_out.Float x -> Printf.sprintf "%s=%g" name x
                  | name, v -> name ^ "=" ^ Json_out.to_string v)
                echoed)
         in
         Json_out.Obj
           (echoed
           @ List.map (fun (name, x) -> (name, Json_out.Float x)) r.metrics
           @ [ ("aggregate", Export.aggregate_json ~label r.aggregate) ]))
       rows)

let axis name json set =
  List.map (fun v ->
      let set c = { c with params = set v c.params } in
      { fields = [ (name, json v) ]; set })

let floats name = axis name (fun x -> Json_out.Float x)
let ints name = axis name (fun i -> Json_out.Int i)

let strategies =
  List.map (fun strategy ->
      let set (c : cell) = { c with strategy } in
      { fields = [ ("strategy", Json_out.String (Strategy.name strategy)) ]; set })

let shapes =
  List.map (fun (nodes, tasks) ->
      let set c = { c with params = { c.params with Params.nodes; tasks } } in
      { fields = [ ("nodes", Json_out.Int nodes); ("tasks", Json_out.Int tasks) ]; set })

let set_churn churn_rate p = { p with Params.churn_rate }
let churn_rates = floats "churn_rate" set_churn
let churns = floats "churn" set_churn
let drops =
  floats "drop" (fun drop p -> { p with Params.faults = { Faults.none with drop } })
let replica_counts = ints "replicas" (fun replicas p -> { p with Params.replicas })
let puzzle_costs = ints "puzzle_cost" (fun puzzle_cost p -> { p with Params.puzzle_cost })

let burst_counts =
  ints "burst_count" (fun count p ->
      let crash_bursts = [ { Faults.at = 1; count } ] in
      { p with Params.faults = { Faults.none with crash_bursts } })

(* A fixed attacker shape: four machines eclipsing 15% of the ring from
   its quarter point during ticks 2-18, then crashing together. *)
let strengths =
  ints "strength" (fun strength p ->
      let attack : Attack.t =
        if strength = 0 then Attack.none
        else
          { strength; machines = 4; target = 0.25; width = 0.15; window = Some (2, 18) }
      in
      { p with Params.attack })

let arrival_rates =
  floats "rate" (fun rate p ->
      let profile = Some (Arrivals.Poisson { rate }) in
      { p with Params.arrivals = { p.Params.arrivals with profile } })

let shape =
  [
    ("nodes", fun p -> Json_out.Int p.Params.nodes);
    ("tasks", fun p -> Json_out.Int p.Params.tasks);
  ]

let f = Printf.sprintf "%.6f"

(* CSV columns echoing a key field or a derived metric. *)
let coord name =
  ( name,
    fun r ->
      match List.assoc name r.key with
      | Json_out.String s -> s
      | Json_out.Float x -> f x
      | v -> Json_out.to_string v )

let derived name = (name, fun r -> f (metric r name))

(* The makespan-factor columns every batch sweep's CSV ends with. *)
let factor_csv =
  [
    ("mean_factor", agg (fun a -> f a.Runner.mean_factor));
    ("stddev_factor", agg (fun a -> f a.Runner.stddev_factor));
    ("trials", agg (fun a -> string_of_int a.Runner.trials));
    ("aborted", agg (fun a -> string_of_int a.Runner.aborted));
    (* empty cell rather than "nan" when every trial aborted *)
    ( "mean_factor_finished",
      agg (fun a ->
          if a.Runner.finished = 0 then "" else f a.Runner.mean_factor_finished) );
  ]

let aborted = ("aborted", 8, agg (fun a -> string_of_int a.Runner.aborted))
let fmt format get r = Printf.sprintf format (get r)

(* Means over every trial's message ledger, timed-out trials included. *)
let mean_messages field _ results =
  Descriptive.mean
    (Array.map
       (fun (r : Engine.result) -> float_of_int (field r.Engine.messages))
       results)

let churn =
  {
    name = "churn_sweep";
    base = Params.default ~nodes:1000 ~tasks:100_000;
    strategy = Strategy.Induced_churn;
    axes =
      [
        churn_rates [ 0.0; 0.0001; 0.001; 0.01 ];
        shapes
          [ (1000, 100_000); (1000, 1_000_000); (100, 10_000); (100, 100_000);
            (100, 1_000_000) ];
      ];
    fixed = [];
    derive = [];
    csv = [ coord "churn_rate"; coord "nodes"; coord "tasks" ] @ factor_csv;
    table =
      pivot ~corner:"Churn" ~width:8
        ~row:(fun r -> r.cell.params.Params.churn_rate)
        ~row_label:(Printf.sprintf "%g")
        ~col:(fun r -> (field_int r "nodes", field_int r "tasks"))
        ~col_label:(fun (n, t) -> Printf.sprintf "%5dn/%.0e" n (float_of_int t))
        ~cell_width:11;
    json = None;
  }

(* Only control-plane replies are dropped, so every cell terminates and
   conserves keys; what degrades is placement quality.  Message-free
   strategies should stay flat across a row, query-driven ones pay with
   retries or a dumber pick. *)
let degrade =
  {
    name = "degradation";
    base =
      { (Params.default ~nodes:100 ~tasks:10_000) with
        Params.churn_rate = 0.01; failure_rate = 0.005; sybil_threshold = 1 };
    strategy = Strategy.No_strategy;
    axes = [ drops [ 0.0; 0.05; 0.1; 0.2; 0.5 ]; strategies Strategy.all ];
    fixed = shape;
    derive = [];
    csv =
      [ ("drop_rate", fun r -> f (field_float r "drop")); coord "strategy" ]
      @ factor_csv;
    table =
      pivot ~title:"Degradation: mean runtime factor vs control-plane drop rate"
        ~corner:"strategy" ~width:18
        ~row:(fun r -> r.cell.strategy)
        ~row_label:Strategy.name
        ~col:(fun r -> field_float r "drop")
        ~col_label:(Printf.sprintf "p=%-6g") ~cell_width:8;
    json = None;
  }

let burst_fraction p =
  let bursts = p.Params.faults.crash_bursts in
  let killed = List.fold_left (fun n b -> n + b.Faults.count) 0 bursts in
  float_of_int killed /. float_of_int p.Params.nodes

(* Churn off and the burst early: the ring the burst hits is the initial
   one, with every replica group fully enrolled at setup and barely any
   tasks consumed yet — the closest the live simulation gets to the
   analytic f^(r+1) model.  replicas = 0 is deliberately absent: it
   turns recovery off entirely, so its measured loss is 0 by
   construction. *)
let recovery =
  {
    name = "recovery_sweep";
    base = Params.default ~nodes:40 ~tasks:4_000;
    strategy = Strategy.No_strategy;
    axes = [ replica_counts [ 1; 2; 3 ]; burst_counts [ 4; 10; 20 ] ];
    fixed = shape;
    derive =
      [
        ( "measured_loss_rate",
          fun p results ->
            (Runner.aggregate_of p results).Runner.mean_tasks_lost
            /. float_of_int p.Params.tasks );
        ( "expected_loss_rate",
          fun p _ ->
            Replication.expected_loss_rate ~fail_fraction:(burst_fraction p)
              ~replicas:p.Params.replicas );
      ];
    csv =
      [
        coord "replicas";
        coord "burst_count";
        ("burst_fraction", fun r -> f (burst_fraction r.cell.params));
        derived "measured_loss_rate";
        derived "expected_loss_rate";
        ("mean_factor", agg (fun a -> f a.Runner.mean_factor));
        ("mean_tasks_lost", agg (fun a -> f a.Runner.mean_tasks_lost));
        ("trials", agg (fun a -> string_of_int a.Runner.trials));
      ];
    table =
      flat
        [
          ("replicas", 8, fmt "%d" (fun r -> field_int r "replicas"));
          ("burst", 6, fmt "%d" (fun r -> field_int r "burst_count"));
          ("frac", 7, fmt "%.3f" (fun r -> burst_fraction r.cell.params));
          ("measured loss", 14, fmt "%.6f" (fun r -> metric r "measured_loss_rate"));
          ("expected f^r+1", 14, fmt "%.6f" (fun r -> metric r "expected_loss_rate"));
          ("mean factor", 12, mean_factor);
        ];
    json = None;
  }

let queue (a : Runner.aggregate) =
  [ a.steady_queue_p50; a.steady_queue_p95; a.steady_queue_p99 ]

let sojourn (a : Runner.aggregate) =
  [ a.steady_sojourn_p50; a.steady_sojourn_p95; a.steady_sojourn_p99 ]

(* p50, p95 and p99 as three CSV columns, or as one table cell; NaN (no
   window saw a completion) prints empty, or "-". *)
let percentile_csv name get =
  List.mapi
    (fun i p ->
      ( Printf.sprintf "%s_p%d" name p,
        agg (fun a -> let v = List.nth (get a) i in if Float.is_nan v then "" else f v) ))
    [ 50; 95; 99 ]

let percentiles get =
  agg (fun a ->
      String.concat "/"
        (List.map
           (fun v -> if Float.is_nan v then "-" else Printf.sprintf "%.1f" v)
           (get a)))

(* One strategy per interesting family: the do-nothing baseline, blind
   injection, the query-driven variant with retries, and the paper's
   cooperative protocol.  Light / moderate / saturating load for the
   40-machine ring: at 1 task/machine/tick of service, 20 arrivals/tick
   leaves no slack once churn removes a few machines. *)
let steady =
  {
    name = "steady_sweep";
    base =
      { (Params.default ~nodes:40 ~tasks:500) with
        Params.arrivals = { Arrivals.none with horizon = 120; window = 20 } };
    strategy = Strategy.No_strategy;
    axes =
      [
        strategies
          Strategy.
            [ No_strategy; Random_injection; Smart_neighbor_injection; Invitation ];
        arrival_rates [ 2.0; 8.0; 20.0 ];
        churns [ 0.0; 0.05 ];
      ];
    fixed =
      shape
      @ [
          ("horizon", fun p -> Json_out.Int p.Params.arrivals.horizon);
          ("window", fun p -> Json_out.Int p.Params.arrivals.window);
        ];
    derive = [];
    csv =
      [
        coord "strategy";
        coord "rate";
        coord "churn";
        ("trials", agg (fun a -> string_of_int a.Runner.trials));
        ("mean_arrived", agg (fun a -> f a.Runner.mean_arrived));
        ("mean_tasks_lost", agg (fun a -> f a.Runner.mean_tasks_lost));
      ]
      @ percentile_csv "queue" queue @ percentile_csv "sojourn" sojourn;
    table =
      flat
        [
          ("strategy", 16, fun r -> Strategy.name r.cell.strategy);
          ("rate", 6, fmt "%.1f" (fun r -> field_float r "rate"));
          ("churn", 6, fmt "%.2f" (fun r -> field_float r "churn"));
          ("arrived", 9, agg (fun a -> Printf.sprintf "%.1f" a.Runner.mean_arrived));
          ("queue p50/p95/p99", 21, percentiles queue);
          ("sojourn p50/p95/p99", 21, percentiles sojourn);
        ];
    json = None;
  }

(* strength = 0 is the attack-off baseline (bit-for-bit the pre-attack
   engine); the defended baseline row still prices the puzzle tax benign
   Sybils pay.  Damage shows twice: in the runtime factor (honest
   machines starve while hostage tasks sit on attacker Sybils) and in
   tasks_lost (hostage tasks whose whole replica group died with the
   attackers). *)
let attack =
  {
    name = "attack_sweep";
    base =
      { (Params.default ~nodes:48 ~tasks:4_000) with
        Params.replicas = 2; churn_rate = 0.01 };
    strategy = Strategy.Random_injection;
    axes =
      [
        strategies [ Strategy.Random_injection ];
        strengths [ 0; 2; 4; 8 ];
        puzzle_costs [ 0; 4 ];
      ];
    fixed = shape @ [ ("replicas", fun p -> Json_out.Int p.Params.replicas) ];
    derive =
      [
        ("mean_attack_joins", mean_messages (fun m -> m.Messages.attack_joins));
        ("mean_puzzles", mean_messages (fun m -> m.Messages.puzzles));
        ("mean_tasks_lost", mean_messages (fun m -> m.Messages.tasks_lost));
      ];
    csv =
      [ coord "strength"; coord "puzzle_cost" ]
      @ List.map derived [ "mean_attack_joins"; "mean_puzzles"; "mean_tasks_lost" ]
      @ factor_csv;
    table =
      flat
        [
          ("strength", 8, fmt "%d" (fun r -> field_int r "strength"));
          ("puzzle", 6, fmt "%d" (fun r -> field_int r "puzzle_cost"));
          ("attack_joins", 12, fmt "%.1f" (fun r -> metric r "mean_attack_joins"));
          ("puzzles", 8, fmt "%.1f" (fun r -> metric r "mean_puzzles"));
          ("tasks_lost", 10, fmt "%.1f" (fun r -> metric r "mean_tasks_lost"));
          ("mean factor", 12, mean_factor);
          aborted;
        ];
    json = Some [ "strength"; "puzzle_cost" ];
  }

(* work_transfers (tasks moved without an ownership change; nonzero only
   for diffusive) and key_transfers (ownership handovers; the Sybil and
   reassignment currencies) separate the families mechanically. *)
let head_to_head =
  {
    name = "head_to_head";
    base = Params.default ~nodes:48 ~tasks:4_000;
    strategy = Strategy.No_strategy;
    axes = [ strategies Headtohead.families; churns [ 0.0; 0.01 ]; drops [ 0.0; 0.05 ] ];
    fixed = shape;
    derive =
      [
        ("mean_work_transfers", mean_messages (fun m -> m.Messages.work_transfers));
        ("mean_key_transfers", mean_messages (fun m -> m.Messages.key_transfers));
      ];
    csv =
      [ coord "strategy"; coord "churn"; coord "drop" ]
      @ List.map derived [ "mean_work_transfers"; "mean_key_transfers" ]
      @ factor_csv;
    table =
      flat
        [
          ("strategy", 15, fun r -> Strategy.name r.cell.strategy);
          ("churn", 6, fmt "%.3f" (fun r -> field_float r "churn"));
          ("drop", 6, fmt "%.3f" (fun r -> field_float r "drop"));
          ("work_transfers", 14, fmt "%.1f" (fun r -> metric r "mean_work_transfers"));
          ("key_transfers", 13, fmt "%.1f" (fun r -> metric r "mean_key_transfers"));
          ("mean factor", 12, mean_factor);
          aborted;
        ];
    json = Some [ "strategy"; "churn"; "drop" ];
  }
