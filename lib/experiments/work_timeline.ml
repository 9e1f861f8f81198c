type series = { strategy : Strategy.t; work_per_tick : int array }

let default_strategies =
  [
    Strategy.No_strategy;
    Strategy.Induced_churn;
    Strategy.Random_injection;
    Strategy.Invitation;
  ]

let run ?(seed = 42) ?(nodes = 1000) ?(tasks = 100_000) ?(window = 50)
    ?(strategies = default_strategies) () =
  List.map
    (fun strategy ->
      let params =
        Strategy.default_params strategy
          { (Params.default ~nodes ~tasks) with Params.seed }
      in
      (* The table reads every trace point, so the run keeps them all
         whatever sink DHTLB_TRACE_OUT names. *)
      let result = Engine.run ~sink:Trace.Memory params (Strategy.make strategy ()) in
      let points = Trace.points result.Engine.trace in
      let n = min window (Array.length points) in
      {
        strategy;
        work_per_tick = Array.init n (fun i -> points.(i).Trace.work_done);
      })
    strategies

let print_table series =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (Printf.sprintf "%6s" "tick");
  List.iter
    (fun s ->
      Buffer.add_string buf (Printf.sprintf " %14s" (Strategy.name s.strategy)))
    series;
  Buffer.add_char buf '\n';
  let window =
    List.fold_left (fun acc s -> max acc (Array.length s.work_per_tick)) 0 series
  in
  for tick = 0 to window - 1 do
    Buffer.add_string buf (Printf.sprintf "%6d" tick);
    List.iter
      (fun s ->
        if tick < Array.length s.work_per_tick then
          Buffer.add_string buf (Printf.sprintf " %14d" s.work_per_tick.(tick))
        else Buffer.add_string buf (Printf.sprintf " %14s" "-"))
      series;
    Buffer.add_char buf '\n'
  done;
  Buffer.add_string buf (Printf.sprintf "%6s" "mean");
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf " %14.1f"
           (Descriptive.mean_int s.work_per_tick)))
    series;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let mean_over_window s =
  if Array.length s.work_per_tick = 0 then 0.0
  else Descriptive.mean_int s.work_per_tick
