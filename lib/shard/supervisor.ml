(* Worker-process supervision: fork, watch, restart, classify.

   The supervisor owns the generic lifecycle — socketpairs, the select
   loop, liveness probes, SIGKILL-and-restart, budget accounting — while
   the protocol layers (Exec, Sweep) own frame semantics through the
   [on_frame] callback.  Frames double as heartbeats: any frame from a
   worker resets its silence clock, so a healthy worker is never probed.

   Failure classification mirrors {!Ls_local.Resilient.run_classified}:

   - One worker dying repeatedly burns its per-shard restart budget with
     deterministic exponential backoff between attempts; an exhausted
     budget is a {e transient} failure (more retries might have helped —
     the environment, not the workload, gave out).

   - Every live worker dead inside one grace window is {e permanent},
     reported with the budgets unspent: when the whole fleet dies at
     once, restarting shards one by one cannot help.  The rule needs at
     least two workers dying together; a fleet of one restarts like any
     other shard.

   A worker that hangs without dying (alive but silent past the probe
   threshold) is SIGKILLed and takes the normal restart path — a hang is
   a death the kernel hasn't noticed yet. *)

module Trace = Ls_obs.Trace
module Metrics = Ls_obs.Metrics
module Health = Ls_obs.Health

type policy = {
  restart_budget : int;  (* restarts per shard before giving up *)
  backoff_base_ms : int;
  backoff_factor : int;
  hang_timeout_ms : int;  (* silence before a liveness probe fires *)
  hang_probes : int;  (* consecutive probes before SIGKILL *)
  all_dead_grace_ms : int;  (* window for the all-dead scan *)
}

let default_policy =
  {
    restart_budget = 3;
    backoff_base_ms = 20;
    backoff_factor = 2;
    hang_timeout_ms = 2_000;
    hang_probes = 3;
    all_dead_grace_ms = 50;
  }

type failure = Transient | Permanent

exception Failed of failure * string

type ctx = {
  send : shard:int -> Frame.t -> unit;
  mark_done : shard:int -> unit;
}

type worker = {
  w_shard : int;
  mutable w_pid : int;
  mutable w_fd : Unix.file_descr option;  (* parent end; None once closed *)
  mutable w_incarnation : int;
  mutable w_restarts_left : int;
  mutable w_done : bool;
  mutable w_last_heard : float;
  mutable w_probes : int;
}

(* Deterministic sleep under signal pressure.  A bare [Unix.sleepf] may
   return early (or raise [EINTR] on platforms without nanosleep) when a
   SIGCHLD from a dying sibling worker lands mid-sleep — which would
   silently shorten the documented exponential restart backoff.  Loop on
   the remaining wall time until the full delay has elapsed. *)
let sleep_ms ms =
  if ms > 0 then begin
    let deadline = Unix.gettimeofday () +. (float_of_int ms /. 1000.) in
    let rec go () =
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining > 0. then begin
        (try Unix.sleepf remaining
         with Unix.Unix_error (Unix.EINTR, _, _) -> ());
        go ()
      end
    in
    go ()
  end

(* Fork with bounded EAGAIN retry.  A fork that fails with EAGAIN (pid
   table or rlimit pressure) is a resource fault, not a worker fault: it
   burns its own small attempt budget with doubling backoff, never the
   caller's restart budget.  The first EAGAIN marks the "fork" subsystem
   degraded; a subsequent successful fork clears it — in the parent
   only, so a child never emits the exit event for an enter it did not
   observe.  Exhaustion clears the mark (keeping enter/exit paired) and
   raises {!Failed}[ (Transient, _)]: more attempts might have helped —
   the environment, not the workload, gave out. *)
let fork_with_retry ?(attempts = 5) ?(backoff_ms = 20) ~site () =
  if attempts < 1 then invalid_arg "Supervisor.fork_with_retry: attempts >= 1";
  let rec go attempt delay retried =
    match Sysio.fork ~site () with
    | 0 -> 0
    | pid ->
        if retried then Health.clear ~subsystem:"fork";
        pid
    | exception Unix.Unix_error (Unix.EAGAIN, _, _) ->
        Metrics.bump Metrics.fork_retries;
        Health.set_degraded ~subsystem:"fork" ~reason:"fork EAGAIN";
        if attempt + 1 >= attempts then begin
          Health.clear ~subsystem:"fork";
          raise
            (Failed
               ( Transient,
                 Printf.sprintf "fork(%s): EAGAIN persisted through %d attempts"
                   site attempts ))
        end;
        sleep_ms delay;
        go (attempt + 1) (delay * 2) true
  in
  go 0 backoff_ms false

(* Has the worker's process exited?  WNOHANG, reaping if so. *)
let reaped w =
  if w.w_pid = 0 then true
  else
    match Unix.waitpid [ Unix.WNOHANG ] w.w_pid with
    | 0, _ -> false
    | _ -> w.w_pid <- 0; true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> w.w_pid <- 0; true

let reap_blocking w =
  if w.w_pid <> 0 then begin
    (try ignore (Unix.waitpid [] w.w_pid)
     with Unix.Unix_error (Unix.ECHILD, _, _) -> ());
    w.w_pid <- 0
  end

let close_fd w =
  match w.w_fd with
  | None -> ()
  | Some fd ->
      w.w_fd <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ())

let run ?(policy = default_policy) ?trace
    ?(restored_round = fun ~shard:_ -> -1) ~shards
    ~(body : shard:int -> incarnation:int -> Unix.file_descr -> unit)
    ~(on_frame : ctx -> shard:int -> Frame.t -> unit)
    ?(on_restart = fun ~shard:_ ~incarnation:_ -> ()) () =
  if shards < 1 then invalid_arg "Supervisor.run: shards must be >= 1";
  let tr = Trace.resolve trace in
  let metrics = Metrics.enabled () in
  let workers =
    Array.init shards (fun s ->
        {
          w_shard = s;
          w_pid = 0;
          w_fd = None;
          w_incarnation = -1;
          w_restarts_left = policy.restart_budget;
          w_done = false;
          w_last_heard = 0.;
          w_probes = 0;
        })
  in
  let spawn w =
    let parent_fd, child_fd =
      Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
    in
    w.w_incarnation <- w.w_incarnation + 1;
    let incarnation = w.w_incarnation in
    flush stdout;
    flush stderr;
    let fork () =
      try fork_with_retry ~site:"supervisor.fork" ()
      with e ->
        (* A fork that never happened must not leak its socketpair. *)
        (try Unix.close parent_fd with Unix.Unix_error _ -> ());
        (try Unix.close child_fd with Unix.Unix_error _ -> ());
        raise e
    in
    match fork () with
    | 0 ->
        (* Child: drop every parent-side descriptor (ours and every
           sibling's), neutralize inherited process-global machinery —
           the transport (no recursive sharding), the ambient trace
           sink (the parent owns the trace file; events travel back as
           data) and the degraded-mode registry (the parent owns those
           transitions) — then run the body and _exit without flushing
           the inherited stdio buffers. *)
        (try Unix.close parent_fd with Unix.Unix_error _ -> ());
        Array.iter (fun o -> close_fd o) workers;
        Ls_local.Network.set_transport None;
        Trace.uninstall ();
        Health.reset ();
        (try body ~shard:w.w_shard ~incarnation child_fd
         with e ->
           Printf.eprintf "locsample shard %d (incarnation %d): %s\n%!"
             w.w_shard incarnation (Printexc.to_string e);
           Unix._exit 1);
        Unix._exit 0
    | pid ->
        (try Unix.close child_fd with Unix.Unix_error _ -> ());
        w.w_pid <- pid;
        w.w_fd <- Some parent_fd;
        w.w_done <- false;
        w.w_last_heard <- Unix.gettimeofday ();
        w.w_probes <- 0;
        if incarnation = 0 then begin
          (match tr with
          | Some s ->
              Trace.emit s
                (Trace.Shard_spawn { shard = w.w_shard; incarnation })
          | None -> ());
          if metrics then Metrics.bump Metrics.shard_spawns
        end
        else begin
          (match tr with
          | Some s ->
              Trace.emit s
                (Trace.Shard_restart
                   {
                     shard = w.w_shard;
                     incarnation;
                     restored_round = restored_round ~shard:w.w_shard;
                   })
          | None -> ());
          if metrics then Metrics.bump Metrics.shard_restarts
        end
  in
  let ctx =
    {
      send =
        (fun ~shard f ->
          match workers.(shard).w_fd with
          | None -> ()
          | Some fd -> (
              try Frame.write_fd fd f
              with Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) ->
                (* Peer died mid-conversation; its EOF will surface in
                   the select loop and take the restart path. *)
                ()));
      mark_done =
        (fun ~shard ->
          let w = workers.(shard) in
          if not w.w_done then begin
            w.w_done <- true;
            close_fd w;
            reap_blocking w
          end);
    }
  in
  (* Death handling: reap, then scan the whole fleet after a short grace
     window.  All live workers dead at once is permanent (budgets
     unspent); otherwise each dead shard individually burns budget and
     restarts with deterministic backoff. *)
  let handle_deaths first =
    close_fd first;
    reap_blocking first;
    sleep_ms policy.all_dead_grace_ms;
    (* A worker that wrote its closing frames and exited is done, not
       dead — its frames may simply still be queued in the socket
       buffer.  Drain every pending frame before judging the fleet, so
       exit-after-done is never misclassified as a casualty. *)
    let drained = ref true in
    while !drained do
      drained := false;
      Array.iter
        (fun w ->
          if not w.w_done then
            match w.w_fd with
            | None -> ()
            | Some fd -> (
                match Unix.select [ fd ] [] [] 0. with
                | [], _, _ -> ()
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
                | _ -> (
                    match Frame.read_fd fd with
                    | Ok frame ->
                        w.w_last_heard <- Unix.gettimeofday ();
                        w.w_probes <- 0;
                        on_frame ctx ~shard:w.w_shard frame;
                        drained := true
                    | Error _ ->
                        (* EOF or garbage with nothing useful buffered:
                           the worker is judged by the scan below. *)
                        close_fd w)))
        workers
    done;
    let live_or_dead = ref [] in
    Array.iter
      (fun w -> if not w.w_done then live_or_dead := w :: !live_or_dead)
      workers;
    let dead = List.filter (fun w -> w == first || reaped w) !live_or_dead in
    if
      shards >= 2
      && List.length dead = List.length !live_or_dead
      && List.length dead = shards
    then
      raise
        (Failed
           ( Permanent,
             Printf.sprintf "all %d shards dead within one grace window"
               shards ));
    List.iter
      (fun w ->
        close_fd w;
        reap_blocking w;
        if w.w_restarts_left = 0 then
          raise
            (Failed
               ( Transient,
                 Printf.sprintf "shard %d: restart budget exhausted"
                   w.w_shard ));
        let used = policy.restart_budget - w.w_restarts_left in
        w.w_restarts_left <- w.w_restarts_left - 1;
        let rec pow b k = if k = 0 then 1 else b * pow b (k - 1) in
        sleep_ms (policy.backoff_base_ms * pow policy.backoff_factor used);
        on_restart ~shard:w.w_shard ~incarnation:(w.w_incarnation + 1);
        spawn w)
      (List.sort (fun a b -> compare a.w_shard b.w_shard) dead)
  in
  let all_done () = Array.for_all (fun w -> w.w_done) workers in
  let prev_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  let cleanup () =
    Array.iter
      (fun w ->
        close_fd w;
        if w.w_pid <> 0 then begin
          (try Unix.kill w.w_pid Sys.sigkill
           with Unix.Unix_error _ -> ());
          reap_blocking w
        end)
      workers;
    match prev_sigpipe with
    | Some h -> ( try Sys.set_signal Sys.sigpipe h with Invalid_argument _ -> ())
    | None -> ()
  in
  Fun.protect ~finally:cleanup (fun () ->
      (* The runtime refuses Unix.fork alongside live sibling domains;
         join the idle domain pool first (a fresh one is rebuilt lazily
         by the next in-process parallel call). *)
      Ls_par.Par.quiesce ();
      Array.iter spawn workers;
      while not (all_done ()) do
        let open_workers =
          Array.to_list workers
          |> List.filter_map (fun w ->
                 match w.w_fd with
                 | Some fd when not w.w_done -> Some (fd, w)
                 | _ -> None)
        in
        if open_workers = [] then
          (* Every fd closed yet not all done: nothing left to hear from. *)
          raise (Failed (Transient, "all worker channels closed prematurely"));
        let fds = List.map fst open_workers in
        let readable, _, _ =
          try Unix.select fds [] [] (float_of_int policy.hang_timeout_ms /. 1000.)
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        if readable = [] then begin
          (* Silence: probe every quiet worker.  Probes are wall-clock
             driven — metered, never traced. *)
          let now = Unix.gettimeofday () in
          List.iter
            (fun (_, w) ->
              if
                (not w.w_done)
                && now -. w.w_last_heard
                   >= float_of_int policy.hang_timeout_ms /. 1000.
              then begin
                if metrics then Metrics.bump Metrics.shard_probes;
                if reaped w then handle_deaths w
                else begin
                  w.w_probes <- w.w_probes + 1;
                  if w.w_probes >= policy.hang_probes then begin
                    (* Alive but hung: make the hang a death. *)
                    (try Unix.kill w.w_pid Sys.sigkill
                     with Unix.Unix_error _ -> ());
                    handle_deaths w
                  end
                end
              end)
            open_workers
        end
        else begin
          (* handle_deaths drains buffers, closes descriptors and forks
             replacements, so the rest of this [readable] list is stale
             the moment it runs (a listed fd may be empty again, or its
             number reused by a fresh socketpair).  Abandon the list and
             re-select. *)
          let exception Fleet_changed in
          try
            List.iter
              (fun fd ->
                match List.assq_opt fd open_workers with
                | None -> ()
                | Some w when w.w_done || w.w_fd = None -> ()
                | Some w -> (
                    match Frame.read_fd fd with
                    | Ok frame ->
                        w.w_last_heard <- Unix.gettimeofday ();
                        w.w_probes <- 0;
                        on_frame ctx ~shard:w.w_shard frame
                    | Error Frame.Closed when w.w_done -> ()
                    | Error Frame.Closed | Error Frame.Truncated ->
                        handle_deaths w;
                        raise Fleet_changed
                    | Error (Frame.Malformed _) ->
                        (* Protocol corruption is indistinguishable from a
                           worker writing garbage: kill and restart. *)
                        (try Unix.kill w.w_pid Sys.sigkill
                         with Unix.Unix_error _ -> ());
                        handle_deaths w;
                        raise Fleet_changed))
              readable
          with Fleet_changed -> ()
        end
      done)
