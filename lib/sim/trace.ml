type point = {
  tick : int;
  work_done : int;
  remaining : int;
  active_nodes : int;
  vnodes : int;
}

type sink =
  | Memory
  | Ring of int
  | Csv_file of string
  | Jsonl_file of string
  | Null

type store =
  | S_memory of { mutable points_rev : point list }
  | S_ring of point Ring_buffer.t
  | S_stream of { oc : out_channel; format : [ `Csv | `Jsonl ]; mutable closed : bool }
  | S_null

type t = {
  sink : sink;
  store : store;
  snapshot_at : int array; (* strictly ascending *)
  mutable snap_cursor : int;
  mutable snapshots_rev : (int * int array) list;
  mutable n_points : int;
  mutable work_total : int;
}

let sink_of_string s =
  let prefixed prefix s =
    let lp = String.length prefix in
    if String.length s > lp && String.sub s 0 lp = prefix then
      Some (String.sub s lp (String.length s - lp))
    else None
  in
  match s with
  | "memory" -> Ok Memory
  | "null" -> Ok Null
  | _ -> (
    match prefixed "ring:" s with
    | Some n -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> Ok (Ring n)
      | _ -> Error (Printf.sprintf "ring capacity must be a positive integer: %S" s))
    | None -> (
      match prefixed "csv:" s with
      | Some path -> Result.map (fun () -> Csv_file path) (Atomic_write.writable path)
      | None -> (
        match prefixed "jsonl:" s with
        | Some path -> Result.map (fun () -> Jsonl_file path) (Atomic_write.writable path)
        | None ->
          Error
            (Printf.sprintf
               "unknown trace sink %S (expected memory, null, ring:N, csv:PATH \
                or jsonl:PATH)"
               s))))

(* DHTLB_TRACE_OUT selects the sink for every run in the process that
   does not pass one explicitly.  Read once; a malformed value or an
   unwritable path fails fast rather than silently tracing to the wrong
   place, and the CLI and the bench harness force it at startup. *)
let env_sink =
  lazy
    (match Sys.getenv_opt "DHTLB_TRACE_OUT" with
    | None | Some "" -> Memory
    | Some s -> (
      match sink_of_string s with
      | Ok sink -> sink
      | Error msg -> invalid_arg ("invalid DHTLB_TRACE_OUT: " ^ msg)))

let sink_of_env () = Lazy.force env_sink

let csv_header = "tick,work_done,remaining,active_nodes,vnodes"

let create ?sink ~snapshot_at () =
  let sink = match sink with Some s -> s | None -> sink_of_env () in
  let store =
    match sink with
    | Memory -> S_memory { points_rev = [] }
    | Ring capacity -> S_ring (Ring_buffer.create ~capacity)
    | Null -> S_null
    | Csv_file path ->
      let oc = open_out path in
      output_string oc csv_header;
      output_char oc '\n';
      S_stream { oc; format = `Csv; closed = false }
    | Jsonl_file path -> S_stream { oc = open_out path; format = `Jsonl; closed = false }
  in
  let snapshot_at =
    let a = Array.of_list (List.sort_uniq compare snapshot_at) in
    a
  in
  {
    sink;
    store;
    snapshot_at;
    snap_cursor = 0;
    snapshots_rev = [];
    n_points = 0;
    work_total = 0;
  }

let sink t = t.sink

(* Suffix a file-sink path with the trial index before the final
   extension: trace.csv -> trace.3.csv, trace -> trace.3.  Multi-trial
   runs stream each trial to its own file instead of overwriting one
   shared path. *)
let suffix_path path ~trial =
  (* Splice in place rather than via Filename.dirname/concat, which
     would rewrite a bare "trace.csv" as "./trace.3.csv". *)
  let dir_end =
    match String.rindex_opt path '/' with Some i -> i + 1 | None -> 0
  in
  let cut =
    match String.rindex_opt path '.' with
    (* [> dir_end]: a leading dot names a hidden file, not an extension *)
    | Some i when i > dir_end -> i
    | _ -> String.length path
  in
  Printf.sprintf "%s.%d%s" (String.sub path 0 cut) trial
    (String.sub path cut (String.length path - cut))

let sink_for_trial sink ~trial =
  match sink with
  | Csv_file path -> Csv_file (suffix_path path ~trial)
  | Jsonl_file path -> Jsonl_file (suffix_path path ~trial)
  | (Memory | Ring _ | Null) as s -> s

(* ---------------------------------------------------------------- *)
(* Checkpointable view                                                *)

(* Everything a resumed run needs to carry the aggregates and snapshot
   bookkeeping forward, and nothing that cannot be marshaled: the
   in-memory/ring point stores and file channels stay behind.  File
   sinks are reopened in append mode on resume so the rows streamed
   before the checkpoint are kept; memory/ring points recorded before
   the checkpoint are intentionally not revived (the aggregates remain
   exact — see docs/TESTING.md). *)
type persist = {
  p_sink : sink;
  p_snapshot_at : int array;
  p_snap_cursor : int;
  p_snapshots_rev : (int * int array) list;
  p_n_points : int;
  p_work_total : int;
}

let persist t =
  {
    p_sink = t.sink;
    p_snapshot_at = t.snapshot_at;
    p_snap_cursor = t.snap_cursor;
    p_snapshots_rev = t.snapshots_rev;
    p_n_points = t.n_points;
    p_work_total = t.work_total;
  }

let resume ?sink p =
  let sink = match sink with Some s -> s | None -> p.p_sink in
  let store =
    match sink with
    | Memory -> S_memory { points_rev = [] }
    | Ring capacity -> S_ring (Ring_buffer.create ~capacity)
    | Null -> S_null
    | Csv_file path ->
      (* Append, keeping the pre-checkpoint rows; a vanished file gets
         its header back before new rows land. *)
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      if out_channel_length oc = 0 then begin
        output_string oc csv_header;
        output_char oc '\n'
      end;
      S_stream { oc; format = `Csv; closed = false }
    | Jsonl_file path ->
      S_stream
        {
          oc = open_out_gen [ Open_append; Open_creat ] 0o644 path;
          format = `Jsonl;
          closed = false;
        }
  in
  {
    sink;
    store;
    snapshot_at = p.p_snapshot_at;
    snap_cursor = p.p_snap_cursor;
    snapshots_rev = p.p_snapshots_rev;
    n_points = p.p_n_points;
    work_total = p.p_work_total;
  }

let write_row oc format (p : point) =
  match format with
  | `Csv ->
    Printf.fprintf oc "%d,%d,%d,%d,%d\n" p.tick p.work_done p.remaining
      p.active_nodes p.vnodes
  | `Jsonl ->
    Printf.fprintf oc
      "{\"tick\":%d,\"work_done\":%d,\"remaining\":%d,\"active_nodes\":%d,\"vnodes\":%d}\n"
      p.tick p.work_done p.remaining p.active_nodes p.vnodes

let record t p =
  t.n_points <- t.n_points + 1;
  t.work_total <- t.work_total + p.work_done;
  match t.store with
  | S_memory m -> m.points_rev <- p :: m.points_rev
  | S_ring rb -> Ring_buffer.push rb p
  | S_null -> ()
  | S_stream s -> if not s.closed then write_row s.oc s.format p

let close t =
  match t.store with
  | S_stream s when not s.closed ->
    s.closed <- true;
    close_out s.oc
  | _ -> ()

(* The engine's tick counter is monotone, so a cursor over the sorted
   request list replaces the old per-tick List.mem / mem_assoc scans:
   amortized O(1) per tick instead of O(|snapshot_at|). *)
let maybe_snapshot t state =
  let tick = state.State.tick in
  let n = Array.length t.snapshot_at in
  while t.snap_cursor < n && t.snapshot_at.(t.snap_cursor) < tick do
    t.snap_cursor <- t.snap_cursor + 1
  done;
  if t.snap_cursor < n && t.snapshot_at.(t.snap_cursor) = tick then begin
    t.snapshots_rev <- (tick, State.workloads_snapshot state) :: t.snapshots_rev;
    t.snap_cursor <- t.snap_cursor + 1
  end

let points t =
  match t.store with
  | S_memory m -> Array.of_list (List.rev m.points_rev)
  | S_ring rb -> Ring_buffer.to_array rb
  | S_null | S_stream _ -> [||]

let recorded t = t.n_points
let snapshots t = List.rev t.snapshots_rev
let snapshot_at_tick t tick = List.assoc_opt tick t.snapshots_rev

let work_per_tick_mean t =
  if t.n_points = 0 then 0.0
  else float_of_int t.work_total /. float_of_int t.n_points
