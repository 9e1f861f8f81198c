(** Crash-safe file writes: write to a temp file in the target's
    directory, flush (optionally fsync), then [rename] over the target.

    A process killed at any instant leaves either the previous file or
    the complete new one — never a truncated half-write.  Every result
    file a gate or a resume path later reads back (bench baselines,
    exported CSVs, sweep journals, checkpoints) must land through this
    module. *)

val writable : string -> (unit, string) result
(** Whether [path] can take a new file before any work is done: it is
    not a directory ([PATH: is a directory]) and its directory takes a
    new file, probed with one removed at once
    ([PATH: cannot create a file in DIR]). *)

val write : ?fsync:bool -> string -> string -> unit
(** [write path contents] atomically replaces [path] with [contents].
    [fsync] (default [false]) additionally forces the data to stable
    storage before the rename — use it when the file must survive a
    machine crash, not just a process kill.  On failure the temp file is
    removed and the original [path] is untouched. *)

val with_channel : ?fsync:bool -> string -> (out_channel -> 'a) -> 'a
(** [with_channel path f] runs [f] on a channel to the temp file and
    renames over [path] only if [f] returns normally; if [f] raises, the
    temp file is removed, [path] is untouched, and the exception
    propagates. *)
