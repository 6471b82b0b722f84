(* A live [locsample serve] daemon on a unix socket.

   Sockets live under [run_dir], inside the working tree, keyed by the
   benchmark process's pid; the path is relative so it stays within the
   sun_path limit wherever the tree is checked out.  Every daemon started here is
   registered, and an at_exit hook kills any still running and unlinks its
   socket, so no exit path leaves one behind. *)

let exe = "_build/default/bin/locsample.exe"
let run_dir = ".perf-run"

type t = {
  pid : int;
  socket : string;
  out : Unix.file_descr;  (* the daemon's stdout *)
  mutable running : bool;
}

let live : t list ref = ref []
let started = ref 0

let require_exe () =
  if not (Sys.file_exists exe) then
    failwith
      (Printf.sprintf
         "daemon binary %s is missing: build it with `dune build \
          bin/locsample.exe` from the repository root"
         exe)

let reap pid =
  let rec go () =
    try snd (Unix.waitpid [] pid)
    with Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let cleanup t =
  (try Unix.unlink t.socket with Unix.Unix_error _ -> ());
  (try Unix.close t.out with Unix.Unix_error _ -> ());
  live := List.filter (fun d -> d != t) !live;
  if !live = [] then try Unix.rmdir run_dir with Unix.Unix_error _ -> ()

let kill_all () =
  List.iter
    (fun t ->
      if t.running then begin
        (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (reap t.pid);
        t.running <- false
      end;
      cleanup t)
    !live

let owner = Unix.getpid ()
let () = at_exit (fun () -> if Unix.getpid () = owner then kill_all ())

(* The environment minus LOCSAMPLE_* so no ambient setting (state dir,
   queue bound, fault injection) changes what the benchmark measures. *)
let clean_env () =
  Array.of_list
    (List.filter
       (fun kv -> not (String.starts_with ~prefix:"LOCSAMPLE_" kv))
       (Array.to_list (Unix.environment ())))

(* Read one line from [fd] within [timeout] seconds. *)
let read_line fd ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let buf = Buffer.create 128 in
  let byte = Bytes.create 1 in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then None
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> go ()
      | _ -> (
          match Unix.read fd byte 0 1 with
          | 0 -> None
          | _ when Bytes.get byte 0 = '\n' -> Some (Buffer.contents buf)
          | _ ->
              Buffer.add_char buf (Bytes.get byte 0);
              go ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let start ~domains =
  require_exe ();
  (try Unix.mkdir run_dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  incr started;
  let socket =
    Filename.concat run_dir (Printf.sprintf "%d-%d.sock" owner !started)
  in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env exe
      [|
        exe; "serve"; "--listen"; "unix:" ^ socket; "--domains";
        string_of_int domains;
      |]
      (clean_env ()) Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let t = { pid; socket; out = out_r; running = true } in
  live := t :: !live;
  match read_line out_r ~timeout:30. with
  | Some line when String.starts_with ~prefix:"serving on" line -> t
  | _ ->
      kill_all ();
      failwith "daemon did not report ready within 30 s"

(* SIGTERM and wait: a daemon must drain and exit 0. *)
let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let status = reap t.pid in
  t.running <- false;
  cleanup t;
  status = Unix.WEXITED 0

let peak_rss_mb t = Child.peak_rss_mb (string_of_int t.pid)
