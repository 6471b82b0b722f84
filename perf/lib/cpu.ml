(* CPU time, the clock behind every end-to-end time the benchmark gates.

   On a virtual machine whose kernel accounts stolen time separately (a
   paravirtualised guest with steal accounting, as Linux KVM guests are),
   a process's CPU time does not grow while the host runs another guest
   on its core, but its wall time does.  On a shared host that difference
   decides whether two runs of the same code agree: wall-clock times
   measured here spread 20-50% across runs, CPU times a few percent. *)

(* This process, all its threads, including the current slice. *)
let self () = Sys.time ()

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

let tasks pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir dir with
  | ids -> Array.to_list (Array.map (Filename.concat dir) ids)
  | exception Sys_error _ -> []

(* A task's scheduler run time in seconds: the first field of its
   schedstat, in nanoseconds.  It is updated when the task stops running,
   so it is exact for a sleeping task and lags a running one. *)
let run_time task =
  match read (Filename.concat task "schedstat") with
  | Some s -> (
      match String.split_on_char ' ' (String.trim s) with
      | ns :: _ -> Option.fold ~none:0. ~some:(fun n -> float_of_int n /. 1e9) (int_of_string_opt ns)
      | [] -> 0.)
  | None -> 0.

(* The state letter after the parenthesised command name of task/stat. *)
let running task =
  match read (Filename.concat task "stat") with
  | Some s -> (
      match String.rindex_opt s ')' with
      | Some i when i + 2 < String.length s -> s.[i + 2] = 'R'
      | _ -> false)
  | None -> false

(* CPU seconds of another process, read once none of its threads is
   running, so that the figure includes all the work it has done; waits
   at most [timeout] seconds for that. *)
let of_idle_pid ?(timeout = 1.) pid =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec settle () =
    let ts = tasks pid in
    if List.exists running ts && Unix.gettimeofday () < deadline then begin
      Unix.sleepf 0.00005;
      settle ()
    end
    else List.fold_left (fun acc t -> acc +. run_time t) 0. ts
  in
  settle ()
