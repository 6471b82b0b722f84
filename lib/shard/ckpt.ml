(* Per-shard checkpoint files: the durable half of kill -9 recovery.

   A worker writes its phase state after every completed round; a
   restarted incarnation loads the newest valid checkpoint and replays
   from the round after it.  Two properties carry the whole recovery
   story:

   - {b Atomicity.}  The file is written to a [.tmp] sibling and
     [Unix.rename]d into place, so a reader never observes a torn
     checkpoint: it sees the previous complete one or the new complete
     one, even if the writer is SIGKILLed mid-write.

   - {b Self-validation.}  The format carries a magic, a version, the
     run id, the (shard, phase, round) coordinates and a payload digest;
     {!load} treats {e any} invalidity — wrong run, wrong shard, torn
     tail, digest mismatch — as absence.  A stale or corrupt file can
     delay recovery (the worker replays from scratch), never corrupt it. *)

module Codec = Ls_sketch.Codec

let magic = "LSCK"
let version = 1

type meta = { run_id : int64; shard : int; phase : int; round : int }

let default_dir () =
  match Sys.getenv_opt "LOCSAMPLE_SHARD_DIR" with
  | Some d when d <> "" -> d
  | _ -> Filename.concat (Filename.get_temp_dir_name ()) "locsample-shard-ckpt"

let env_check () =
  match Sys.getenv_opt "LOCSAMPLE_SHARD_DIR" with
  | None | Some "" -> Ok ()
  | Some d ->
      (* The dir need not exist yet (ensure_dir creates it), but a path
         that exists and is not a directory would make every checkpoint
         write fail with an unhelpful Unix_error much later. *)
      if Sys.file_exists d && not (Sys.is_directory d) then
        Error
          (Printf.sprintf "LOCSAMPLE_SHARD_DIR=%S: exists but is not a directory"
             d)
      else Ok ()

let path ~dir ~run_id ~shard =
  Filename.concat dir (Printf.sprintf "shard-%016Lx-%d.ckpt" run_id shard)

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let encode meta payload =
  let buf = Buffer.create (String.length payload + 64) in
  Buffer.add_string buf magic;
  Codec.add_int buf version;
  Codec.add_i64 buf meta.run_id;
  Codec.add_int buf meta.shard;
  Codec.add_int buf meta.phase;
  Codec.add_int buf meta.round;
  Codec.add_int buf (String.length payload);
  Codec.add_i64 buf (Frame.digest64 payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

let decode s =
  let ( let* ) = Result.bind in
  let cur = ref 0 in
  let* () = Codec.read_magic s cur magic in
  let* v = Codec.read_int s cur in
  if v <> version then Error "Ckpt: unknown version"
  else
    let* run_id = Codec.read_i64 s cur in
    let* shard = Codec.read_int s cur in
    let* phase = Codec.read_int s cur in
    let* round = Codec.read_int s cur in
    let* len = Codec.read_int s cur in
    let* dg = Codec.read_i64 s cur in
    if len < 0 || len > Codec.remaining s cur then
      Error "Ckpt: payload length exceeds bytes present"
    else begin
      let payload = String.sub s !cur len in
      cur := !cur + len;
      if !cur <> String.length s then Error "Ckpt: trailing bytes"
      else if not (Int64.equal (Frame.digest64 payload) dg) then
        Error "Ckpt: payload digest mismatch"
      else Ok ({ run_id; shard; phase; round }, payload)
    end

(* All IO goes through {!Sysio} (fault-injectable, EINTR-retried rename
   and close), and any failure unlinks the [.tmp] sibling before
   re-raising: a full disk costs this checkpoint, never a leaked temp
   file next to the last good one. *)
let save_path ~path:final meta payload =
  ensure_dir (Filename.dirname final);
  let tmp = final ^ ".tmp" in
  let fd =
    Sysio.openfile ~site:"ckpt.open" tmp
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  try
    Fun.protect
      ~finally:(fun () ->
        try Sysio.close ~site:"ckpt.close" fd
        with Unix.Unix_error _ -> ())
      (fun () -> Frame.write_string ~site:"ckpt.write" fd (encode meta payload));
    Sysio.rename ~site:"ckpt.rename" tmp final
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let save ~dir meta payload =
  save_path ~path:(path ~dir ~run_id:meta.run_id ~shard:meta.shard) meta payload

(* Checkpoint-free continuation: durability is an optimization of
   recovery time, not a correctness requirement, so a checkpoint that
   cannot be written (disk full, quota) is skipped — the last good one
   stays in place and a crash simply replays more rounds.  The skip is
   observable: the [ckpt_skips] metric bumps and the "checkpoint"
   subsystem goes degraded (the {!Ls_obs.Trace.Degraded_enter} event is
   the traced warning); the next successful save clears it. *)
let save_best_effort ~dir meta payload =
  try
    save ~dir meta payload;
    Ls_obs.Health.clear ~subsystem:"checkpoint"
  with
  | Unix.Unix_error (e, _, _) ->
      Ls_obs.Metrics.bump Ls_obs.Metrics.ckpt_skips;
      Ls_obs.Health.set_degraded ~subsystem:"checkpoint"
        ~reason:("checkpoint write failed: " ^ Unix.error_message e)
  | Sys_error msg ->
      Ls_obs.Metrics.bump Ls_obs.Metrics.ckpt_skips;
      Ls_obs.Health.set_degraded ~subsystem:"checkpoint"
        ~reason:("checkpoint write failed: " ^ msg)

let read_file p =
  match open_in_bin p with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let len = in_channel_length ic in
          Some (really_input_string ic len))

let load_path ~path:p =
  match read_file p with
  | None -> None
  | Some s -> ( match decode s with Error _ -> None | Ok mp -> Some mp)

let load ~dir ~run_id ~shard =
  match load_path ~path:(path ~dir ~run_id ~shard) with
  | Some (meta, payload)
    when Int64.equal meta.run_id run_id && meta.shard = shard ->
      Some (meta, payload)
  | _ -> None

let remove ~dir ~run_id ~shard =
  let p = path ~dir ~run_id ~shard in
  (try Sys.remove p with Sys_error _ -> ());
  try Sys.remove (p ^ ".tmp") with Sys_error _ -> ()
