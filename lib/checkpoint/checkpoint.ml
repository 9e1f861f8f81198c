(* A checkpoint file is a short self-describing text header followed by
   a Marshal body.  The header lets [load] refuse a mismatched file —
   wrong format, wrong version, different parameters, a body that is
   not the one that was written — with a clear message *before* it
   hands untrusted bytes to [Marshal.from_channel], which would
   otherwise fail with an unhelpful [Failure "input_value: ..."] (or
   worse, succeed and resume a subtly different run).

   Layout (all header lines LF-terminated, body starts right after):

     DHTLB-CKPT v7
     git_rev <rev>
     params_digest <40-hex sha1>
     tick <n>
     body_sha1 <40-hex sha1 of the body bytes>
     <Marshal.to_string of Engine.progress>

   [Marshal] is not type-safe: a body written under another layout of
   [Engine.progress] is undefined behaviour to read, not an error.  The
   version therefore moves with every layout change (v2: [Dht.t] became
   a chunked array index; v3: a vnode's keys became a packed byte buffer
   inside its record; v4: the replica map's repair-skip version gave way
   to a dirty set of vnode ids; v5: the replica map moved onto each
   vnode's payload, as holder records, dirty and departed flags and a
   repair queue; v6: the run's sojourn ledger and each steady window's
   sojourns became integer tallies; v7: xoshiro state as one buffer,
   and hot arrival keys keep their Zipf table), and the body digest
   refuses a torn or altered body before a single byte of it is
   unmarshaled.
   test_checkpoint pins the version together with a digest of the block
   tags and sizes of a canonical progress, so a layout change fails
   there until the version moves.

   The body is marshaled with default flags: [Engine.progress] is plain
   data (no closures anywhere — the strategy is re-supplied at resume),
   and default marshaling preserves the intra-value sharing the state
   relies on (one vnode record reachable from the ring index and its
   machine's vnode list must stay one block, which
   [State.check_invariants] tests by physical equality). *)

let magic = "DHTLB-CKPT"
let format_version = 7

let current_git_rev () =
  match Sys.getenv_opt "DHTLB_GIT_REV" with
  | Some r when r <> "" -> r
  | Some _ | None -> "unknown"

(* The digest covers the whole parameter record, byte for byte, via its
   marshaled form — [Params.pp] elides fields, so pretty-printing is not
   a faithful identity.  Two Params.t values digest equal iff a resumed
   run and a fresh run would be configured identically. *)
let digest_of_params (params : Params.t) =
  Sha1.digest_hex (Marshal.to_string params [])

type header = {
  version : int;
  git_rev : string;
  params_digest : string;
  tick : int;
}

let save ~path (params : Params.t) (p : Engine.progress) =
  let body = Marshal.to_string p [] in
  Atomic_write.with_channel ~fsync:true path (fun oc ->
      Printf.fprintf oc "%s v%d\n" magic format_version;
      Printf.fprintf oc "git_rev %s\n" (current_git_rev ());
      Printf.fprintf oc "params_digest %s\n" (digest_of_params params);
      Printf.fprintf oc "tick %d\n" p.Engine.p_state.State.tick;
      Printf.fprintf oc "body_sha1 %s\n" (Sha1.digest_hex body);
      output_string oc body)

(* SHA-1 of everything from the current position to the end of the
   channel, in bounded memory. *)
let digest_rest ic =
  let ctx = Sha1.init () and buf = Bytes.create 65536 in
  let rec go () =
    let n = input ic buf 0 (Bytes.length buf) in
    if n > 0 then begin
      Sha1.feed_bytes ctx ~len:n buf;
      go ()
    end
  in
  go ();
  Sha1.hex_of_digest (Sha1.get ctx)

(* Header parsing: each line is "<name> <value>".  Errors name the file
   and the offending line so a refusal is actionable. *)
let field ic ~path ~name =
  match input_line ic with
  | exception End_of_file ->
    Error (Printf.sprintf "%s: truncated checkpoint header (missing %s)" path name)
  | line -> (
    let prefix = name ^ " " in
    let pl = String.length prefix in
    if String.length line > pl && String.equal (String.sub line 0 pl) prefix
    then Ok (String.sub line pl (String.length line - pl))
    else
      Error
        (Printf.sprintf "%s: malformed checkpoint header: expected \"%s ...\", got %S"
           path name line))

let load ~path (params : Params.t) =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let ( let* ) = Result.bind in
        let* first =
          match input_line ic with
          | exception End_of_file ->
            Error (Printf.sprintf "%s: empty file is not a checkpoint" path)
          | l -> Ok l
        in
        let* () =
          if String.equal first (Printf.sprintf "%s v%d" magic format_version)
          then Ok ()
          else if
            String.length first >= String.length magic
            && String.equal (String.sub first 0 (String.length magic)) magic
          then
            Error
              (Printf.sprintf
                 "%s: unsupported checkpoint version %S (this build reads \"%s v%d\")"
                 path first magic format_version)
          else
            Error
              (Printf.sprintf "%s: not a %s checkpoint (first line %S)" path magic
                 first)
        in
        let* git_rev = field ic ~path ~name:"git_rev" in
        let* params_digest = field ic ~path ~name:"params_digest" in
        let* tick_s = field ic ~path ~name:"tick" in
        let* tick =
          match int_of_string_opt tick_s with
          | Some t when t >= 0 -> Ok t
          | Some _ | None ->
            Error (Printf.sprintf "%s: malformed checkpoint tick %S" path tick_s)
        in
        let current = digest_of_params params in
        let* () =
          if String.equal params_digest current then Ok ()
          else
            Error
              (Printf.sprintf
                 "%s: parameter mismatch: checkpoint was taken under different \
                  parameters (file digest %s, current %s) — resume with the \
                  original configuration, or start a fresh run"
                 path params_digest current)
        in
        let* body_sha1 = field ic ~path ~name:"body_sha1" in
        let body_start = pos_in ic in
        let* () =
          let actual = digest_rest ic in
          if String.equal actual body_sha1 then Ok ()
          else
            Error
              (Printf.sprintf
                 "%s: corrupt checkpoint body: its SHA-1 %s differs from the \
                  header's body_sha1 %s; refused before unmarshaling"
                 path actual body_sha1)
        in
        seek_in ic body_start;
        let* (p : Engine.progress) =
          match Marshal.from_channel ic with
          | p -> Ok p
          | exception (Failure _ | End_of_file) ->
            Error (Printf.sprintf "%s: corrupt checkpoint body" path)
        in
        (* Belt and braces: the header tick is advisory (it lets tools
           inspect a checkpoint without unmarshaling), but it must agree
           with the state it fronts. *)
        let* () =
          if p.Engine.p_state.State.tick = tick then Ok ()
          else
            Error
              (Printf.sprintf
                 "%s: checkpoint header tick %d disagrees with state tick %d"
                 path tick p.Engine.p_state.State.tick)
        in
        Ok (p, { version = format_version; git_rev; params_digest; tick }))
