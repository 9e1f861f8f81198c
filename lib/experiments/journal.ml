(* A sweep journal is a JSONL file with one fsynced line per completed
   cell: {"key": <canonical key string>, "cell": <cell payload>}.  A
   killed sweep rerun with the same journal path skips every cell whose
   key is already present — exactly those cells, and no others, because
   cells are independent by construction (Runner.stride_seed gives each
   a disjoint trial-seed range) and the key embeds everything that
   decides a cell's result: experiment name, cell coordinates, the
   strided base seed and the trial count.  Change --seed or --trials and
   every key changes with them, so stale lines can never be replayed
   into a differently-configured sweep.

   Each line is flushed *and fsynced* before the cell is reported
   upstream: a crash loses at most the cell that was being appended,
   and a torn final line (the only kind fsync-per-line can leave) is
   skipped on reload by the total parser. *)

type t = {
  cells : (string, Json_out.t) Hashtbl.t;
  oc : out_channel;
  mutable loaded : int;  (** cells recovered from a pre-existing file *)
}

let key fields = Json_out.to_string (Json_out.Obj fields)

let parse_line line =
  match Json_in.parse line with
  | Error _ -> None
  | Ok v -> (
    match (Json_in.member "key" v, Json_in.member "cell" v) with
    | Some k, Some cell -> (
      match Json_in.to_string k with
      | Some k -> Some (k, cell)
      | None -> None)
    | _ -> None)

let open_ path =
  let cells = Hashtbl.create 64 in
  let loaded = ref 0 in
  let torn_tail = ref false in
  (if Sys.file_exists path then begin
     let ic = open_in_bin path in
     Fun.protect
       ~finally:(fun () -> close_in_noerr ic)
       (fun () ->
         (try
            while true do
              match parse_line (input_line ic) with
              | Some (k, cell) ->
                (* Last write wins, matching append order. *)
                Hashtbl.replace cells k cell;
                incr loaded
              | None -> ()
            done
          with End_of_file -> ());
         (* A crash mid-append can leave the final line unterminated; a
            plain append would then concatenate the next record onto
            the torn tail, corrupting a *good* line.  Seal the tail
            with a newline so the damage stays confined to the line
            already lost. *)
         let len = in_channel_length ic in
         if len > 0 then begin
           seek_in ic (len - 1);
           if input_char ic <> '\n' then torn_tail := true
         end)
   end);
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  if !torn_tail then output_char oc '\n';
  { cells; oc; loaded = !loaded }

let loaded t = t.loaded
let find t ~key = Hashtbl.find_opt t.cells key

let record t ~key v =
  output_string t.oc
    (Json_out.to_string
       (Json_out.Obj [ ("key", Json_out.String key); ("cell", v) ]));
  output_char t.oc '\n';
  flush t.oc;
  Unix.fsync (Unix.descr_of_out_channel t.oc);
  Hashtbl.replace t.cells key v

let close t = close_out_noerr t.oc

(* The uniform skip-or-compute step every sweep cell goes through.  A
   present key whose payload fails to decode (hand-edited file, codec
   from another era) falls back to recomputing — and overwrites the bad
   line's entry — rather than crashing the sweep. *)
let cell journal ~key:k ~encode ~decode compute =
  match journal with
  | None -> compute ()
  | Some j -> (
    match Option.bind (find j ~key:k) decode with
    | Some v -> v
    | None ->
      let v = compute () in
      record j ~key:k (encode v);
      v)

(* Full-fidelity aggregate codec: every field of Runner.aggregate, so a
   journal-resumed sweep prints and exports byte-identically to an
   uninterrupted one.  Floats survive the trip exactly (Json_out renders
   %.17g, Json_in reads it back; NaN travels as null). *)
let aggregate_to_json (a : Runner.aggregate) =
  Json_out.Obj
    [
      ("trials", Json_out.Int a.Runner.trials);
      ("open_system", Json_out.Bool a.Runner.open_system);
      ("mean_factor", Json_out.Float a.Runner.mean_factor);
      ("stddev_factor", Json_out.Float a.Runner.stddev_factor);
      ("min_factor", Json_out.Float a.Runner.min_factor);
      ("max_factor", Json_out.Float a.Runner.max_factor);
      ("mean_ticks", Json_out.Float a.Runner.mean_ticks);
      ("mean_ideal", Json_out.Float a.Runner.mean_ideal);
      ("aborted", Json_out.Int a.Runner.aborted);
      ("finished", Json_out.Int a.Runner.finished);
      ("timed_out", Json_out.Int a.Runner.timed_out);
      ("mean_factor_finished", Json_out.Float a.Runner.mean_factor_finished);
      ("mean_ticks_finished", Json_out.Float a.Runner.mean_ticks_finished);
      ("mean_messages", Json_out.Float a.Runner.mean_messages);
      ("mean_tasks_lost", Json_out.Float a.Runner.mean_tasks_lost);
      ("mean_arrived", Json_out.Float a.Runner.mean_arrived);
      ("steady_queue_p50", Json_out.Float a.Runner.steady_queue_p50);
      ("steady_queue_p95", Json_out.Float a.Runner.steady_queue_p95);
      ("steady_queue_p99", Json_out.Float a.Runner.steady_queue_p99);
      ("steady_sojourn_p50", Json_out.Float a.Runner.steady_sojourn_p50);
      ("steady_sojourn_p95", Json_out.Float a.Runner.steady_sojourn_p95);
      ("steady_sojourn_p99", Json_out.Float a.Runner.steady_sojourn_p99);
    ]

let aggregate_of_json v =
  let ( let* ) = Option.bind in
  let int name = Option.bind (Json_in.member name v) Json_in.to_int in
  let flt name = Option.bind (Json_in.member name v) Json_in.to_float in
  let* trials = int "trials" in
  let* open_system = Option.bind (Json_in.member "open_system" v) Json_in.to_bool in
  let* mean_factor = flt "mean_factor" in
  let* stddev_factor = flt "stddev_factor" in
  let* min_factor = flt "min_factor" in
  let* max_factor = flt "max_factor" in
  let* mean_ticks = flt "mean_ticks" in
  let* mean_ideal = flt "mean_ideal" in
  let* aborted = int "aborted" in
  let* finished = int "finished" in
  let* timed_out = int "timed_out" in
  let* mean_factor_finished = flt "mean_factor_finished" in
  let* mean_ticks_finished = flt "mean_ticks_finished" in
  let* mean_messages = flt "mean_messages" in
  let* mean_tasks_lost = flt "mean_tasks_lost" in
  let* mean_arrived = flt "mean_arrived" in
  let* steady_queue_p50 = flt "steady_queue_p50" in
  let* steady_queue_p95 = flt "steady_queue_p95" in
  let* steady_queue_p99 = flt "steady_queue_p99" in
  let* steady_sojourn_p50 = flt "steady_sojourn_p50" in
  let* steady_sojourn_p95 = flt "steady_sojourn_p95" in
  let* steady_sojourn_p99 = flt "steady_sojourn_p99" in
  Some
    {
      Runner.trials;
      open_system;
      mean_factor;
      stddev_factor;
      min_factor;
      max_factor;
      mean_ticks;
      mean_ideal;
      aborted;
      finished;
      timed_out;
      mean_factor_finished;
      mean_ticks_finished;
      mean_messages;
      mean_tasks_lost;
      mean_arrived;
      steady_queue_p50;
      steady_queue_p95;
      steady_queue_p99;
      steady_sojourn_p50;
      steady_sojourn_p95;
      steady_sojourn_p99;
    }
