(** Per-cell result journal: crash-safe resumable sweeps.

    One JSONL line per completed sweep cell,
    [{"key": <canonical key>, "cell": <payload>}], appended, flushed and
    {e fsynced} before the cell's result is used — a killed sweep rerun
    against the same journal path recomputes only the cells that never
    landed.  Keys embed the experiment name, the cell coordinates, the
    strided per-cell seed and the trial count ({!Runner.stride_seed}
    makes cells independent, which is what makes skipping sound), so a
    sweep rerun with a different [--seed] or [--trials] shares no keys
    with the old lines and recomputes everything.

    A torn trailing line (the only damage fsync-per-line can leave) and
    unparseable payloads are skipped on reload and recomputed, never
    fatal. *)

type t

val open_ : string -> t
(** Open (creating if missing) a journal at a path: existing lines are
    parsed into the completed-cell index, then the file is reopened for
    appending.  Duplicate keys resolve to the last line, matching append
    order. *)

val loaded : t -> int
(** Number of cell lines recovered from the pre-existing file (0 for a
    fresh journal) — lets drivers report "resuming, N cells done". *)

val find : t -> key:string -> Json_out.t option

val record : t -> key:string -> Json_out.t -> unit
(** Append one completed cell and fsync before returning. *)

val close : t -> unit

val key : (string * Json_out.t) list -> string
(** Canonical key string for a cell: the compact JSON rendering of the
    given object fields (field order is part of the key — keep it
    fixed per experiment). *)

val cell :
  t option ->
  key:string ->
  encode:('a -> Json_out.t) ->
  decode:(Json_out.t -> 'a option) ->
  (unit -> 'a) ->
  'a
(** [cell journal ~key ~encode ~decode compute] is the uniform
    skip-or-compute step: with no journal, just [compute ()]; with one,
    return the decoded cached cell if [key] is present and decodes, else
    compute, {!record}, and return.  A cached payload that fails to
    decode is recomputed and overwritten, not trusted. *)

val aggregate_to_json : Runner.aggregate -> Json_out.t

val aggregate_of_json : Json_out.t -> Runner.aggregate option
(** Full-fidelity {!Runner.aggregate} codec (every field; floats exact
    via Json_out's round-trip rendering, NaN as null) so journal-resumed
    sweeps print and export byte-identically to uninterrupted ones. *)
