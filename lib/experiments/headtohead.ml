(* The ChordReduce leg of the head-to-head comparison ({!Sweep.head_to_head}
   is the grid): warm each strategy's ring for a few decision periods,
   then run a word-count MapReduce over the resulting vnode set.  The
   map-phase makespan is the quantity the balancing families are
   supposed to shrink. *)

type makespan = {
  ms_strategy : Strategy.t;
  warm_vnodes : int;
  map_makespan : int;
  reduce_makespan : int;
  total_makespan : int;
}

(* One representative per family: the no-balancing floor, the two
   paper Sybil strategies (proactive and reactive), and the two
   non-Sybil competitors under test. *)
let families =
  [
    Strategy.No_strategy;
    Strategy.Random_injection;
    Strategy.Invitation;
    Strategy.Diffusive;
    Strategy.Range_reassignment;
  ]

(* A deterministic corpus: enough repeated vocabulary that the shuffle
   phase concentrates load on the hot words' owners. *)
let corpus =
  List.concat_map
    (fun i ->
      [
        Printf.sprintf "the quick brown fox jumps over the lazy dog %d" i;
        Printf.sprintf "pack my box with five dozen liquor jugs %d" i;
        "the autonomous ring balances the autonomous ring";
        "sybil sybil churn churn churn load load balance";
      ])
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let makespans ?(seed = 42) ?(nodes = 24) ?(tasks = 1_200) ?(warm_ticks = 30)
    ?(families = families) () =
  List.mapi
    (fun index strategy ->
      let params =
        Strategy.default_params strategy
          { (Params.default ~nodes ~tasks) with Params.seed = seed + index }
      in
      let state = State.create params in
      let strat = Strategy.make strategy () in
      (* The engine's tick order minus the planes this leg leaves off
         (faults, arrivals, adversary): decide, consume, churn. *)
      for _ = 1 to warm_ticks do
        strat.Engine.decide state;
        ignore (State.consume_tick state);
        State.apply_churn state;
        State.advance_tick state
      done;
      let workers = Array.of_list (Dht.vnode_ids state.State.dht) in
      let input = Mapreduce.chunk_input corpus in
      let r = Mapreduce.run ~workers ~input Mapreduce.word_count in
      {
        ms_strategy = strategy;
        warm_vnodes = Array.length workers;
        map_makespan = r.Mapreduce.map_stats.Mapreduce.makespan;
        reduce_makespan = r.Mapreduce.reduce_stats.Mapreduce.makespan;
        total_makespan = r.Mapreduce.total_makespan;
      })
    families

let print_makespans rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%-15s %8s %12s %15s %14s\n" "strategy" "vnodes"
       "map_makespan" "reduce_makespan" "total_makespan");
  List.iter
    (fun m ->
      Buffer.add_string buf
        (Printf.sprintf "%-15s %8d %12d %15d %14d\n"
           (Strategy.name m.ms_strategy) m.warm_vnodes m.map_makespan
           m.reduce_makespan m.total_makespan))
    rows;
  Buffer.contents buf

let makespans_json rows =
  Json_out.List
    (List.map
       (fun m ->
         Json_out.Obj
           [
             ("strategy", Json_out.String (Strategy.name m.ms_strategy));
             ("warm_vnodes", Json_out.Int m.warm_vnodes);
             ("map_makespan", Json_out.Int m.map_makespan);
             ("reduce_makespan", Json_out.Int m.reduce_makespan);
             ("total_makespan", Json_out.Int m.total_makespan);
           ])
       rows)
