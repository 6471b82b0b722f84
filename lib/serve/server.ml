(* The serving daemon: a single-threaded accept/select loop in front of
   the batching engine.

   Concurrency model: the loop thread owns every socket and the engine;
   parallelism lives inside Engine.submit_batch (the Ls_par domain pool).
   Admission control is a bounded FIFO — a frame arriving while the queue
   holds [queue_bound] requests is rejected [Overloaded] and never
   executed.  A rejection (or a [Bad_request]) still owes its reply in
   arrival order, so it rides behind the last admitted request as a held
   reply, written right after that request's answer.  Backpressure is
   structural: while a batch executes, the loop is not reading sockets,
   so clients that pipeline past the queue bound accumulate bytes in the
   kernel buffer and eventually block on write.

   Hostile-peer bounds: inbound bytes are decoded incrementally from a
   per-connection buffer, so a peer that sends half a frame and stalls
   parks at most [max_request_frame] bytes and never blocks the loop;
   responses are written under SO_SNDTIMEO, so a peer that stops reading
   is dropped after [send_timeout_s] rather than wedging every other
   connection.  Daemon memory stays bounded by [queue_bound + batch_max]
   requests plus [max_request_frame + read_chunk] bytes per connection,
   and held replies by the frames of one read: a connection holding any
   is not read again until they are written. *)

module Frame = Ls_shard.Frame
module Supervisor = Ls_shard.Supervisor
module Ckpt = Ls_shard.Ckpt
module Sysio = Ls_shard.Sysio
module Metrics = Ls_obs.Metrics
module Health = Ls_obs.Health

let src = Logs.Src.create "locsample.serve" ~doc:"sampling-as-a-service daemon"

module Log = (val Logs.src_log src : Logs.LOG)

type address = Unix_path of string | Tcp of string * int

let address_to_string = function
  | Unix_path p -> Printf.sprintf "unix:%s" p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

let parse_address s =
  let tcp host port =
    match int_of_string_opt port with
    | Some p when p >= 1 && p <= 65535 -> Ok (Tcp (host, p))
    | _ -> Error (Printf.sprintf "tcp port %S: expected an integer in [1, 65535]" port)
  in
  match String.split_on_char ':' s with
  | [ "tcp"; host; port ] -> tcp host port
  | [ "tcp"; port ] -> tcp "127.0.0.1" port
  | "unix" :: rest when rest <> [] -> Ok (Unix_path (String.concat ":" rest))
  | _ when s <> "" -> Ok (Unix_path s)
  | _ -> Error "empty listen address"

(* --- environment ------------------------------------------------------ *)

module Env = Ls_obs.Env

let socket_env =
  Env.declare "LOCSAMPLE_SERVE_SOCKET"
    ~default:(fun () ->
      Unix_path
        (Filename.concat (Filename.get_temp_dir_name ()) "locsample-serve.sock"))
    parse_address

let queue_env =
  Env.declare "LOCSAMPLE_SERVE_QUEUE" ~default:(fun () -> 64)
    (Env.int_at_least 1)

let cache_env =
  Env.declare "LOCSAMPLE_SERVE_CACHE" ~default:(fun () -> 64)
    (Env.int_at_least 1)

let send_timeout_env =
  Env.declare "LOCSAMPLE_SERVE_SEND_TIMEOUT" ~default:(fun () -> 10.)
    (fun s ->
      match float_of_string_opt (String.trim s) with
      | Some f when f > 0. -> Ok f
      | _ -> Error "expected a number > 0")

let state_env =
  Env.declare "LOCSAMPLE_SERVE_STATE" ~default:(fun () -> None) (fun d ->
      Result.map Option.some (Env.dir d))

let default_address () = Env.get socket_env
let default_queue () = Env.get queue_env
let default_cache () = Env.get cache_env
let default_send_timeout () = Env.get send_timeout_env

(* --- configuration ---------------------------------------------------- *)

type config = {
  address : address;
  queue_bound : int;
  batch_max : int;
  instance_cache : int;
  plan_cache : int;
  max_vertices : int;
  max_requests : int option;
  send_timeout : float;
  state_dir : string option;
  snapshot_every : int;
}

let config ?address ?queue_bound ?(batch_max = 32) ?instance_cache
    ?(plan_cache = 1024) ?(max_vertices = 100_000) ?max_requests ?send_timeout
    ?state_dir ?(snapshot_every = 8) () =
  let address = match address with Some a -> a | None -> default_address () in
  let queue_bound =
    match queue_bound with Some q -> q | None -> default_queue ()
  in
  let instance_cache =
    match instance_cache with Some c -> c | None -> default_cache ()
  in
  let send_timeout =
    match send_timeout with Some s -> s | None -> default_send_timeout ()
  in
  let state_dir =
    match state_dir with Some d -> Some d | None -> Env.get state_env
  in
  if queue_bound < 1 then invalid_arg "Server.config: queue bound must be >= 1";
  if batch_max < 1 then invalid_arg "Server.config: batch max must be >= 1";
  if send_timeout <= 0. then
    invalid_arg "Server.config: send timeout must be > 0";
  if snapshot_every < 1 then
    invalid_arg "Server.config: snapshot interval must be >= 1";
  {
    address;
    queue_bound;
    batch_max;
    instance_cache;
    plan_cache;
    max_vertices;
    max_requests;
    send_timeout;
    state_dir;
    snapshot_every;
  }

(* --- the loop --------------------------------------------------------- *)

(* A request frame is a few hundred bytes (Protocol caps every spec);
   64 KiB leaves room without letting a hostile length claim park the
   1 GiB Frame.max_payload per connection. *)
let max_request_frame = 1 lsl 16

(* Most bytes pulled off a connection per select round. *)
let read_chunk = 1 lsl 16

type conn = {
  id : int;  (* Accept order: the round-robin scheduling key. *)
  fd : Unix.file_descr;
  mutable alive : bool;
  (* Bytes received but not yet forming a complete frame. *)
  mutable pending : string;
  (* This connection's admitted requests, stamped with arrival time.
     Bounded by [queue_bound] per connection: admission is per-client,
     so one flooding peer fills its own queue and sees Overloaded while
     everyone else's requests are still admitted. *)
  queue : admitted Queue.t;
  (* The request last added to [queue]; meaningful while it is not
     empty. *)
  mutable last : admitted option;
  (* Replies held behind queued requests, not counted against
     [queue_bound]. *)
  mutable held : int;
}

(* An admitted request and the verdicts that arrived after it and before
   the next admitted request, newest first: they are written right after
   its answer, so replies keep arrival order. *)
and admitted = {
  req : Protocol.request;
  arrived : float;
  mutable after : Protocol.response list;
}

let close_conn c =
  if c.alive then begin
    c.alive <- false;
    c.pending <- "";
    (* Requests admitted on a dead connection can never be answered;
       executing them would only burn batch slots. *)
    Queue.clear c.queue;
    c.held <- 0;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

(* The drain's close.  Closing a TCP socket that still holds unread
   bytes resets the connection, and the reset discards the answers still
   in flight to the peer (written, not yet received); on a Unix socket
   the peer reads them, then ECONNRESET instead of EOF.  So the bytes the
   peer sent that were never read — requests that arrived after the stop
   — are read and dropped first, up to 16 reads. *)
let close_drained c =
  if c.alive then begin
    let buf = Bytes.create read_chunk in
    let rec discard k =
      if k > 0 then
        match Unix.select [ c.fd ] [] [] 0. with
        | [ _ ], _, _ ->
            if Unix.read c.fd buf 0 read_chunk > 0 then discard (k - 1)
        | _ -> ()
    in
    (try discard 16 with Unix.Unix_error _ -> ());
    close_conn c
  end

let send_response c resp =
  if c.alive then
    try Protocol.write_response c.fd resp with
    | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> close_conn c
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _)
      ->
        (* SO_SNDTIMEO expired mid-frame: the peer stopped reading. *)
        close_conn c

let listen_on = function
  | Unix_path path ->
      (* A stale socket file from a dead daemon would make bind fail;
         remove it only if it is a socket (never a user's regular file). *)
      (match Unix.lstat path with
      | { Unix.st_kind = Unix.S_SOCK; _ } -> (try Unix.unlink path with _ -> ())
      | _ -> ()
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd
  | Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      let inet =
        try Unix.inet_addr_of_string host
        with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      Unix.bind fd (Unix.ADDR_INET (inet, port));
      Unix.listen fd 64;
      fd

(* --- warm-start snapshots ---------------------------------------------- *)

(* The engine's cache snapshot rides the shard layer's Ckpt envelope:
   tmp+rename atomicity, magic/version/digest self-validation, any
   invalidity read as absence.  A fixed run id tags the file as a serve
   snapshot; the Ckpt round field records the batch count that wrote it. *)
let snapshot_run_id = 0x4c53_5356L (* "LSSV" *)
let snapshot_file dir = Filename.concat dir "serve-cache.snap"

let save_snapshot ~dir engine ~batches =
  try
    Ckpt.save_path ~path:(snapshot_file dir)
      { Ckpt.run_id = snapshot_run_id; shard = 0; phase = 1; round = batches }
      (Engine.snapshot engine);
    true
  with Unix.Unix_error _ | Sys_error _ ->
    (* Persistence is best-effort: a full disk must not kill serving.
       The caller owns the circuit breaker; this layer just reports. *)
    Metrics.bump Metrics.serve_snapshot_failures;
    Log.warn (fun m -> m "cache snapshot write to %s failed" dir);
    false

let load_snapshot ~dir engine =
  match Ckpt.load_path ~path:(snapshot_file dir) with
  | Some (meta, payload) when Int64.equal meta.Ckpt.run_id snapshot_run_id -> (
      match Engine.restore engine payload with
      | Ok n -> n
      | Error reason ->
          Log.warn (fun m -> m "cache snapshot rejected: %s" reason);
          0)
  | _ -> 0

let stop_flag = ref false

let install_signals () =
  let stop _ = stop_flag := true in
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle stop)
   with Invalid_argument _ | Sys_error _ -> ());
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle stop)
   with Invalid_argument _ | Sys_error _ -> ());
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

let run ?(cfg = config ()) ?trace ?on_ready ?listen_fd ?(incarnation = 0)
    ?heartbeat () =
  stop_flag := false;
  install_signals ();
  (* A fresh loop starts healthy: a restarted worker must not inherit
     the degraded marks of the incarnation it replaced. *)
  Health.reset ();
  let engine =
    Engine.create ~instance_cache:cfg.instance_cache ~plan_cache:cfg.plan_cache
      ~max_vertices:cfg.max_vertices ()
  in
  Engine.set_restarts engine incarnation;
  (match cfg.state_dir with
  | Some dir ->
      let restored = load_snapshot ~dir engine in
      if restored > 0 then
        Log.info (fun m -> m "warm start: %d cache entries restored" restored)
  | None -> ());
  (* Under supervision the parent owns the listener (so a killed worker
     restarts without dropping the socket); standalone we open it here
     and tear it down in the finally. *)
  let owns_listener = listen_fd = None in
  let listen_fd =
    match listen_fd with Some fd -> fd | None -> listen_on cfg.address
  in
  Log.info (fun m -> m "listening on %s" (address_to_string cfg.address));
  (match on_ready with Some f -> f () | None -> ());
  let beat () = match heartbeat with Some f -> f () | None -> () in
  let conns : conn list ref = ref [] in
  let next_conn_id = ref 0 in
  let total_queued () =
    List.fold_left (fun acc c -> acc + Queue.length c.queue) 0 !conns
  in
  let answered = ref 0 in
  let budget_left () =
    match cfg.max_requests with None -> true | Some k -> !answered < k
  in
  let reply c resp =
    send_response c resp;
    incr answered
  in
  (* Answer an admitted request, then the verdicts held behind it. *)
  let answer c a body =
    reply c { Protocol.rid = a.req.Protocol.id; body };
    c.held <- c.held - List.length a.after;
    List.iter (reply c) (List.rev a.after)
  in
  (* A verdict owed in arrival order: written now if nothing admitted is
     ahead of it, else held behind the last admitted request. *)
  let verdict c resp =
    match c.last with
    | Some a when not (Queue.is_empty c.queue) ->
        a.after <- resp :: a.after;
        c.held <- c.held + 1
    | _ -> reply c resp
  in
  (* One inbound frame: admission verdict or a named protocol error.
     Admission is per-connection — the verdict depends only on this
     connection's own arrival order, so a flooding client cannot push
     anyone else over the bound. *)
  let handle_frame c (f : Frame.t) =
    match Protocol.request_of_frame f with
    | Error msg ->
        verdict c
          {
            Protocol.rid = max f.Frame.a 0;
            body =
              Protocol.Error_r { code = Protocol.Bad_request; message = msg };
          }
    | Ok req when req.Protocol.op = Protocol.Health ->
        (* Answered by the loop itself, before admission: a daemon that
           is shedding or backed up still reports its own degradation
           promptly, without spending a queue slot or a batch slot. *)
        reply c
          {
            Protocol.rid = req.Protocol.id;
            body = Protocol.Health_r { reasons = Health.degraded () };
          }
    | Ok req ->
        if Queue.length c.queue >= cfg.queue_bound then begin
          Engine.note_rejection engine;
          verdict c
            { Protocol.rid = req.Protocol.id; body = Engine.error_body Engine.Overloaded }
        end
        else begin
          let a = { req; arrived = Unix.gettimeofday (); after = [] } in
          Queue.add a c.queue;
          c.last <- Some a;
          Engine.note_queue_depth engine (total_queued ())
        end
  in
  (* Decode every complete frame accumulated on the connection; a
     trailing partial frame stays in [pending] until more bytes arrive
     (the loop never blocks waiting for them). *)
  let rec decode_pending c =
    if c.alive then
      match
        Frame.decode_prefix ~max_frame_payload:max_request_frame c.pending
      with
      | Ok None -> ()
      | Ok (Some (f, used)) ->
          c.pending <-
            String.sub c.pending used (String.length c.pending - used);
          handle_frame c f;
          decode_pending c
      | Error reason ->
          (* Framing is broken — no request boundary to resynchronize
             on, so answer nothing and drop the connection. *)
          Log.debug (fun m -> m "dropping connection: %s" reason);
          close_conn c
  in
  (* Drain every byte already buffered on the connection, so a
     pipelining client can outrun the queue bound and observe Overloaded
     rather than being serialized one frame per select round.  Each read
     takes only what the kernel already holds: select says the first
     byte is there, and read on a readable socket returns the available
     bytes without waiting for the count requested. *)
  let scratch = Bytes.create read_chunk in
  let rec drain c =
    (* A stop that lands between two reads ends the reading here, so a
       frame that arrives after the SIGTERM handler ran is not admitted. *)
    if c.alive && not !stop_flag then
      match Unix.select [ c.fd ] [] [] 0. with
      | [ _ ], _, _ -> (
          match Unix.read c.fd scratch 0 read_chunk with
          | 0 ->
              (* EOF: any partial frame in [pending] is abandoned. *)
              close_conn c
          | k ->
              c.pending <- c.pending ^ Bytes.sub_string scratch 0 k;
              decode_pending c;
              (* Held replies wait for the next batch; reading on would
                 let a peer that never reads grow them without bound. *)
              if c.held = 0 then drain c
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain c
          | exception
              Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
              close_conn c)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  (* Descriptor exhaustion (EMFILE/ENFILE, or EAGAIN) on accept sheds
     new connections instead of blocking the loop: the listener leaves
     the select set for a doubling backoff window (new peers park in the
     kernel backlog) while existing connections keep being served.  The
     first successful accept clears the degraded mark and resets the
     backoff. *)
  let accept_paused_until = ref 0. in
  let accept_backoff_ms = ref 10 in
  let accept_degraded = ref false in
  let accepting now = now >= !accept_paused_until in
  let accept_new () =
    match Sysio.accept ~site:"server.accept" listen_fd with
    | fd, _ ->
        if !accept_degraded then begin
          accept_degraded := false;
          accept_backoff_ms := 10;
          Health.clear ~subsystem:"accept"
        end;
        (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO cfg.send_timeout
         with Unix.Unix_error _ | Invalid_argument _ -> ());
        let id = !next_conn_id in
        incr next_conn_id;
        conns :=
          {
            id;
            fd;
            alive = true;
            pending = "";
            queue = Queue.create ();
            last = None;
            held = 0;
          }
          :: !conns
    | exception
        Unix.Unix_error (((Unix.EMFILE | Unix.ENFILE | Unix.EAGAIN) as e), _, _)
      ->
        let name =
          match e with
          | Unix.EMFILE -> "EMFILE"
          | Unix.ENFILE -> "ENFILE"
          | _ -> "EAGAIN"
        in
        Metrics.bump Metrics.serve_shed;
        accept_degraded := true;
        Health.set_degraded ~subsystem:"accept"
          ~reason:(name ^ ": shedding new connections");
        accept_paused_until :=
          Unix.gettimeofday () +. (float_of_int !accept_backoff_ms /. 1000.);
        accept_backoff_ms := min 500 (!accept_backoff_ms * 2)
    | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) ->
        (* The peer hung up between select and accept: their loss, not a
           resource fault — the next select round carries on. *)
        ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  (* Batch formation: deficit round-robin with a one-request quantum over
     connections in accept order, the starting connection rotating per
     batch.  Expired requests are answered at pop time without consuming
     a batch slot.  Deterministic given each connection's arrival order:
     within one connection, requests are still answered in FIFO order. *)
  let rr = ref 0 in
  let collect_batch now =
    let live =
      List.sort (fun a b -> compare a.id b.id)
        (List.filter (fun c -> c.alive && not (Queue.is_empty c.queue)) !conns)
    in
    let arr = Array.of_list live in
    let n = Array.length arr in
    let batch = ref [] in
    let count = ref 0 in
    if n > 0 then begin
      let start = !rr mod n in
      incr rr;
      let progress = ref true in
      while !count < cfg.batch_max && !progress do
        progress := false;
        for i = 0 to n - 1 do
          let c = arr.((start + i) mod n) in
          if !count < cfg.batch_max && c.alive then begin
            let rec pop () =
              match Queue.take_opt c.queue with
              | None -> ()
              | Some a ->
                  let d = a.req.Protocol.deadline_ms in
                  if d > 0 && (now -. a.arrived) *. 1000. > float_of_int d
                  then begin
                    Engine.note_expiry engine;
                    answer c a
                      (Protocol.Error_r
                         {
                           code = Protocol.Expired;
                           message =
                             Printf.sprintf "deadline of %d ms elapsed in queue" d;
                         });
                    pop ()
                  end
                  else begin
                    batch := (a, c) :: !batch;
                    incr count;
                    progress := true
                  end
            in
            pop ()
          end
        done
      done
    end;
    List.rev !batch
  in
  (* Snapshot circuit breaker: a failed write (disk full, say) marks the
     "snapshot" subsystem degraded and pushes the next attempt out by
     min(64, 2^failures) extra batches, so a persistently full disk
     costs a capped retry cadence instead of one doomed write per
     interval.  Serving continues on the last good snapshot throughout;
     the first successful write closes the breaker. *)
  let batches_since_snapshot = ref 0 in
  let snapshot_failures = ref 0 in
  let do_snapshot dir =
    if save_snapshot ~dir engine ~batches:(Engine.stats engine).Protocol.st_batches
    then begin
      if !snapshot_failures > 0 then Health.clear ~subsystem:"snapshot";
      snapshot_failures := 0
    end
    else begin
      snapshot_failures := !snapshot_failures + 1;
      Health.set_degraded ~subsystem:"snapshot"
        ~reason:
          (Printf.sprintf "snapshot write failed (%d consecutive)"
             !snapshot_failures)
    end
  in
  let snapshot_due () =
    let extra =
      if !snapshot_failures = 0 then 0
      else min 64 (1 lsl min 6 !snapshot_failures)
    in
    !batches_since_snapshot >= cfg.snapshot_every + extra
  in
  let maybe_snapshot () =
    match cfg.state_dir with
    | Some dir when snapshot_due () ->
        batches_since_snapshot := 0;
        do_snapshot dir
    | _ -> ()
  in
  let run_batches () =
    let continue = ref true in
    while !continue do
      match collect_batch (Unix.gettimeofday ()) with
      | [] -> continue := false
      | batch ->
          let bodies =
            Engine.submit_batch engine ?trace
              (List.map (fun (a, _) -> a.req) batch)
          in
          List.iter2
            (fun (a, c) body ->
              answer c a
                (match body with Ok b -> b | Error e -> Engine.error_body e))
            batch bodies;
          incr batches_since_snapshot;
          maybe_snapshot ();
          beat ()
    done
  in
  let rec loop () =
    if (not !stop_flag) && budget_left () then begin
      beat ();
      conns := List.filter (fun c -> c.alive) !conns;
      let fds =
        (if accepting (Unix.gettimeofday ()) then [ listen_fd ] else [])
        @ List.map (fun c -> c.fd) !conns
      in
      (match Unix.select fds [] [] 0.5 with
      | _ when !stop_flag ->
          (* The signal was handled inside select's blocking section:
             stop before accepting or reading anything more. *)
          ()
      | readable, _, _ ->
          if List.memq listen_fd readable then accept_new ();
          List.iter
            (fun c -> if List.memq c.fd readable then drain c)
            !conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      run_batches ();
      loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter close_drained !conns;
      if owns_listener then begin
        (try Unix.close listen_fd with Unix.Unix_error _ -> ());
        match cfg.address with
        | Unix_path path -> ( try Unix.unlink path with _ -> ())
        | Tcp _ -> ()
      end)
    (fun () ->
      loop ();
      (* Graceful drain: stop accepting and reading, answer everything
         already admitted, then persist the caches.  [loop] runs
         [run_batches] after its last select round, so the queues are
         normally already empty here — this is the structural guarantee
         for the SIGTERM-mid-batch case. *)
      run_batches ();
      (match cfg.state_dir with
      | Some dir -> do_snapshot dir
      | None -> ());
      (* Exit-time pairing: every degraded enter gets its exit event,
         even when the fault never cleared in time — a clean shutdown
         always closes its own trace brackets. *)
      Health.clear_all ();
      if !stop_flag then begin
        Metrics.bump Metrics.serve_drains;
        Log.info (fun m -> m "drained: all admitted requests answered")
      end);
  Engine.stats engine

(* --- supervised mode --------------------------------------------------- *)

(* Control-channel frames from worker to supervisor.  Any frame resets
   the silence clock (frames double as heartbeats, as in Ls_shard);
   [kind_done] additionally carries the final stats as a Stats_r
   response payload and marks a graceful exit. *)
let kind_heartbeat = 0x48 (* 'H' *)
let kind_done = 0x44 (* 'D' *)

(* Select-loop rounds are 0.5 s and a batch beats once per execution, so
   2 s of silence (the shard default) would SIGKILL a worker mid-way
   through a perfectly healthy large batch; give serving a longer leash. *)
let default_supervision =
  { Supervisor.default_policy with Supervisor.hang_timeout_ms = 5000 }

let write_pid_file path pid =
  let tmp = path ^ ".tmp" in
  try
    let oc = open_out tmp in
    output_string oc (string_of_int pid ^ "\n");
    close_out oc;
    Sysio.rename ~site:"pidfile.rename" tmp path
  with Sys_error _ | Unix.Unix_error _ ->
    (try Sys.remove tmp with Sys_error _ -> ());
    Log.warn (fun m -> m "cannot write pid file %s" path)

let zero_stats ~restarts =
  {
    Protocol.st_requests = 0;
    st_batches = 0;
    st_coalesced = 0;
    st_cache_hits = 0;
    st_cache_misses = 0;
    st_evictions = 0;
    st_rejected = 0;
    st_expired = 0;
    st_snapshot_hits = 0;
    st_restarts = restarts;
    st_max_queue = 0;
    st_domains = 0;
  }

let run_supervised ?(cfg = config ()) ?(policy = default_supervision) ?trace
    ?on_ready ?worker_pid_file () =
  stop_flag := false;
  install_signals ();
  (* The parent owns the listener for the whole supervised lifetime:
     clients connected during a worker's death park in the accept
     backlog and are picked up by the replacement. *)
  let listen_fd = listen_on cfg.address in
  Log.info (fun m ->
      m "supervising on %s (budget %d)" (address_to_string cfg.address)
        policy.Supervisor.restart_budget);
  (match on_ready with Some f -> f () | None -> ());
  (* The worker forks; any Ls_par domain would make fork refuse. *)
  Ls_par.Par.quiesce ();
  let incarnation = ref 0 in
  let budget = ref policy.Supervisor.restart_budget in
  let backoff = ref policy.Supervisor.backoff_base_ms in
  let final = ref None in
  let term_sent = ref false in
  let spawn () =
    let parent_end, child_end =
      Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
    in
    flush stdout;
    flush stderr;
    let fork () =
      (* EAGAIN burns the retry helper's own attempt budget (with
         backoff), never the restart budget: a fork that could not
         happen is not a worker death. *)
      try Supervisor.fork_with_retry ~site:"serve.fork" ()
      with e ->
        (try Unix.close parent_end with Unix.Unix_error _ -> ());
        (try Unix.close child_end with Unix.Unix_error _ -> ());
        raise e
    in
    match fork () with
    | 0 ->
        (try Unix.close parent_end with Unix.Unix_error _ -> ());
        let beat () =
          try
            Frame.write_fd child_end
              {
                Frame.kind = kind_heartbeat;
                a = !incarnation;
                b = 0;
                c = 0;
                payload = "";
              }
          with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
            (* The supervisor is gone: drain what we have and exit. *)
            stop_flag := true
        in
        let stats =
          run ~cfg ?trace ~listen_fd ~incarnation:!incarnation ~heartbeat:beat
            ()
        in
        (try
           Frame.write_fd child_end
             {
               Frame.kind = kind_done;
               a = !incarnation;
               b = 0;
               c = 0;
               payload =
                 Protocol.encode_response
                   { Protocol.rid = 0; body = Protocol.Stats_r stats };
             }
         with Unix.Unix_error _ -> ());
        (try Unix.close child_end with Unix.Unix_error _ -> ());
        Unix._exit 0
    | pid ->
        (try Unix.close child_end with Unix.Unix_error _ -> ());
        (match worker_pid_file with
        | Some path -> write_pid_file path pid
        | None -> ());
        Log.info (fun m -> m "worker %d spawned (incarnation %d)" pid !incarnation);
        (pid, parent_end)
  in
  let reap pid =
    try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
  in
  (* Watch one worker until it finishes (done frame) or dies/hangs. *)
  let monitor pid parent_end =
    let rec go last_heard probes =
      if !stop_flag && not !term_sent then begin
        term_sent := true;
        try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()
      end;
      match Unix.select [ parent_end ] [] [] 0.2 with
      | [ _ ], _, _ -> (
          match Frame.read_fd parent_end with
          | Ok f when f.Frame.kind = kind_done ->
              (match Protocol.decode_response_bytes f.Frame.payload with
              | Ok { Protocol.body = Protocol.Stats_r st; _ } ->
                  final := Some st
              | Ok _ | Error _ -> ());
              reap pid;
              `Done
          | Ok _ -> go (Unix.gettimeofday ()) 0
          | Error _ ->
              (* EOF or a torn frame: the worker is dead. *)
              reap pid;
              `Died)
      | _ ->
          let now = Unix.gettimeofday () in
          if
            (now -. last_heard) *. 1000.
            > float_of_int policy.Supervisor.hang_timeout_ms
          then
            if probes + 1 >= policy.Supervisor.hang_probes then begin
              Log.warn (fun m -> m "worker %d hung; killing" pid);
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              reap pid;
              `Died
            end
            else go now (probes + 1)
          else go last_heard probes
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go last_heard probes
    in
    let outcome = go (Unix.gettimeofday ()) 0 in
    (try Unix.close parent_end with Unix.Unix_error _ -> ());
    outcome
  in
  let rec supervise () =
    let pid, parent_end = spawn () in
    match monitor pid parent_end with
    | `Done -> ()
    | `Died ->
        if !stop_flag then
          (* Drain was requested and the worker died before finishing:
             nothing left to answer its queue with — exit without the
             final stats rather than respawn just to stop again. *)
          Log.warn (fun m -> m "worker died during drain")
        else if !budget = 0 then
          raise
            (Supervisor.Failed
               ( Supervisor.Transient,
                 Printf.sprintf
                   "serve worker exhausted its restart budget after %d respawns"
                   !incarnation ))
        else begin
          decr budget;
          Supervisor.sleep_ms !backoff;
          backoff := !backoff * policy.Supervisor.backoff_factor;
          incr incarnation;
          term_sent := false;
          Metrics.bump Metrics.serve_restarts;
          Log.warn (fun m ->
              m "worker died; restarting (incarnation %d, %d restarts left)"
                !incarnation !budget);
          supervise ()
        end
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      (match cfg.address with
      | Unix_path path -> ( try Unix.unlink path with _ -> ())
      | Tcp _ -> ());
      match worker_pid_file with
      | Some path ->
          (try Sys.remove path with Sys_error _ -> ());
          (try Sys.remove (path ^ ".tmp") with Sys_error _ -> ())
      | None -> ())
    supervise;
  match !final with
  | Some st -> st
  | None -> zero_stats ~restarts:!incarnation
