(* Forked workers.  The OCaml 5 runtime refuses [Unix.fork] once a domain
   has been created, so the benchmark process creates none before its last
   fork: each piece of work that runs on the domain pool runs in a child
   forked here, and the child's result comes back marshalled through a
   pipe. *)

let run (f : unit -> 'a) : 'a =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let reply, code =
        match f () with
        | v -> (Ok v, 0)
        | exception e -> (Error (Printexc.to_string e), 1)
      in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc (reply : ('a, string) result) [];
      close_out oc;
      flush stderr;
      (* _exit: the parent's at_exit handlers (daemon cleanup) must not
         run in the child. *)
      Unix._exit code
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let reply =
        match (Marshal.from_channel ic : ('a, string) result) with
        | r -> r
        | exception End_of_file -> Error "worker died before replying"
      in
      close_in ic;
      let rec reap () =
        try snd (Unix.waitpid [] pid)
        with Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
      in
      match (reap (), reply) with
      | Unix.WEXITED 0, Ok v -> v
      | _, Error msg -> failwith ("perf worker: " ^ msg)
      | _, Ok _ -> failwith "perf worker exited abnormally")

(* Peak resident set of a live process, from its VmHWM line. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
      List.find_map
        (fun line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] ->
              Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                  float_of_int kb /. 1024.)
          | _ -> None)
        (String.split_on_char '\n' text)
