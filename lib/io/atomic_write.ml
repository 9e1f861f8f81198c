(* Write-temp-then-rename: the canonical crash-safe file write.  The
   temp file lives in the target's directory so the final rename stays
   within one filesystem (rename(2) is only atomic there); a unique
   suffix keeps concurrent writers of different targets apart.  A kill
   at any point leaves either the old file or the new one — never a
   truncated hybrid for a downstream gate (ci.sh's bench baselines, the
   sweep journals) to trip over. *)

let counter = ref 0

let writable path =
  let dir = Filename.dirname path in
  if Sys.file_exists path && Sys.is_directory path then
    Error (Printf.sprintf "%s: is a directory" path)
  else
    match Filename.temp_file ~temp_dir:dir "dhtlb" ".probe" with
    | probe -> Ok (Sys.remove probe)
    | exception Sys_error _ ->
      Error (Printf.sprintf "%s: cannot create a file in %s" path dir)

let temp_path path =
  incr counter;
  Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) !counter

let write ?(fsync = false) path contents =
  let tmp = temp_path path in
  let oc = open_out_bin tmp in
  (match
     output_string oc contents;
     flush oc;
     if fsync then Unix.fsync (Unix.descr_of_out_channel oc)
   with
  | () -> close_out oc
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  match Sys.rename tmp path with
  | () -> ()
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let with_channel ?(fsync = false) path f =
  let tmp = temp_path path in
  let oc = open_out_bin tmp in
  let v =
    match f oc with
    | v ->
      flush oc;
      if fsync then Unix.fsync (Unix.descr_of_out_channel oc);
      close_out oc;
      v
    | exception e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e
  in
  match Sys.rename tmp path with
  | () -> v
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e
