(** Versioned, crash-safe serialization of a complete simulation.

    A checkpoint captures {e everything} a run needs to continue
    bit-for-bit — the full {!State.t} (ring, machines, tasks, fault and
    arrival plans, attack state, and all four PRNG streams), the trace's
    checkpointable view and the steady-state collector — as an
    {!Engine.progress}, written through {!Atomic_write} (a kill at any
    instant leaves the previous checkpoint or the complete new one,
    never a torn file).

    The file is self-describing: a text header

    {v
DHTLB-CKPT v4
git_rev <rev>
params_digest <40-hex sha1>
tick <n>
body_sha1 <40-hex sha1>
    v}

    precedes the marshaled body.  {!load} refuses — with a clear error,
    before unmarshaling anything — files with the wrong magic, an
    unsupported format version (v1 to v3 files, whose bodies have
    other state layouts, included), a parameter digest that does not
    match the parameters the caller is about to resume under, or a body
    whose SHA-1 differs from [body_sha1] (a torn or altered file).  A
    [git_rev] mismatch is {e reported but not refused} (the header is
    returned; callers compare against {!current_git_rev} and warn):
    marshaled state is only portable across builds whose type layout
    agrees, which a rev string can neither prove nor disprove. *)

type header = {
  version : int;  (** the file's format version (currently 4) *)
  git_rev : string;  (** revision recorded at save time *)
  params_digest : string;  (** SHA-1 over the marshaled {!Params.t} *)
  tick : int;  (** tick the checkpoint was taken at *)
}

val current_git_rev : unit -> string
(** The revision recorded into headers: [DHTLB_GIT_REV] when set and
    non-empty, else ["unknown"].  An environment variable rather than a
    compiled-in constant so release scripts can stamp builds without a
    generated source file. *)

val digest_of_params : Params.t -> string
(** SHA-1 hex digest over the marshaled parameter record.  Equal
    digests iff a fresh run and a resume would be configured
    identically ([Params.pp] elides fields, so pretty-printed equality
    is not trustworthy here). *)

val save : path:string -> Params.t -> Engine.progress -> unit
(** [save ~path params p] atomically replaces [path] with a checkpoint
    of [p], fsynced before the rename.  [params] must be the record the
    run was created from — its digest is what a later {!load} checks. *)

val load : path:string -> Params.t -> (Engine.progress * header, string) result
(** [load ~path params] reads a checkpoint back, refusing (as [Error]
    with a message naming the file and the reason) a missing or
    unreadable file, a non-checkpoint, an unsupported version, a
    parameter digest differing from [digest_of_params params], a body
    whose digest differs from the header's (checked before
    unmarshaling), a corrupt body, or a header/state tick
    disagreement.  On [Ok] the progress is
    ready for {!Engine.resume}; the header is returned so callers can
    warn on a [git_rev] differing from {!current_git_rev}. *)
