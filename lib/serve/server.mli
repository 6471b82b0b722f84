(** The serving daemon: accept/select loop, admission control, batching,
    supervision and warm-start persistence.

    Single-threaded by design — the loop thread owns every socket and the
    engine; parallelism lives inside {!Engine.submit_batch} on the
    {!Ls_par} domain pool.  Admission is per-connection: each client owns
    a bounded FIFO of [queue_bound] requests, so a flooding peer fills
    its own queue and sees [Overloaded] while everyone else's requests
    are still admitted (the verdict is deterministic given each
    connection's arrival order).  Batches form by deficit round-robin
    with a one-request quantum over connections in accept order, and a
    request whose [deadline_ms] elapsed in the queue is answered
    [Expired] without executing.  Backpressure is structural: during
    batch execution no socket is read, so daemon memory stays bounded by
    connections × [queue_bound] + [batch_max] requests plus a small
    per-connection inbound buffer and the verdicts held from one read.
    Inbound frames are decoded incrementally, so a peer that stalls
    mid-frame never blocks the loop; responses are written under a
    configurable send timeout, so a peer that stops reading is dropped
    rather than wedging other connections.

    Responses on one connection are written in the arrival order of their
    requests, [Overloaded] and [Bad_request] verdicts included: a verdict
    is held behind the connection's queued requests, outside the
    [queue_bound] count, and the connection is not read again until it
    is written.  The one exception is [Health], answered by the loop the
    moment it arrives, ahead of anything still queued.  Response bodies
    are a pure function of the request bytes (admission verdicts and
    [Stats] aside), so transcripts byte-diff clean across domain counts,
    restarts and chaos schedules.

    Crash tolerance: {!run_supervised} forks the loop as a worker under
    the {!Ls_shard.Supervisor} restart-budget/backoff/hang-probe
    discipline with the listener held by the parent, and [state_dir]
    persists the engine caches through a {!Ls_shard.Ckpt}-style
    self-validating tmp+rename snapshot (written on drain and every
    [snapshot_every] batches, reloaded on boot; torn or corrupt files
    read as absence).  SIGTERM triggers a graceful drain: stop
    accepting, answer every admitted request, snapshot, exit 0. *)

type address = Unix_path of string | Tcp of string * int

val parse_address : string -> (address, string) result
(** ["unix:PATH"], ["tcp:HOST:PORT"], ["tcp:PORT"] (localhost), or a bare
    path (unix). *)

val address_to_string : address -> string

(** {1 Environment defaults}

    Each reads one [LOCSAMPLE_SERVE_*] variable; {!Ls_obs.Env} owns the
    rule (unset or empty gives the default shown, a malformed value
    raises [Invalid_argument] naming the variable).  {!config} reads
    [LOCSAMPLE_SERVE_STATE] the same way: a directory, or a path that
    does not exist yet, else no persistence. *)

val default_address : unit -> address
(** [LOCSAMPLE_SERVE_SOCKET] (a {!parse_address} form), else a fixed
    socket under the system temp dir. *)

val default_queue : unit -> int
(** [LOCSAMPLE_SERVE_QUEUE] (an integer ≥ 1), else 64. *)

val default_cache : unit -> int
(** [LOCSAMPLE_SERVE_CACHE] (an integer ≥ 1), else 64. *)

val default_send_timeout : unit -> float
(** [LOCSAMPLE_SERVE_SEND_TIMEOUT] (a number > 0), else 10 s. *)

type config = {
  address : address;
  queue_bound : int;  (** Admission bound on {e each connection's} queue. *)
  batch_max : int;  (** Most requests per engine batch. *)
  instance_cache : int;
  plan_cache : int;
  max_vertices : int;  (** Per-request graph size cap. *)
  max_requests : int option;
      (** Stop after answering this many requests — deterministic
          termination for tests and the CI smoke job. *)
  send_timeout : float;
      (** SO_SNDTIMEO on client sockets: a peer that keeps a response
          write blocked this long is dropped. *)
  state_dir : string option;
      (** Where cache snapshots live; [None] disables persistence. *)
  snapshot_every : int;  (** Snapshot cadence, in executed batches. *)
}

val config :
  ?address:address ->
  ?queue_bound:int ->
  ?batch_max:int ->
  ?instance_cache:int ->
  ?plan_cache:int ->
  ?max_vertices:int ->
  ?max_requests:int ->
  ?send_timeout:float ->
  ?state_dir:string ->
  ?snapshot_every:int ->
  unit ->
  config
(** Defaults from the environment accessors above; [batch_max] 32,
    [snapshot_every] 8.  Raises [Invalid_argument] on non-positive
    bounds. *)

val run :
  ?cfg:config ->
  ?trace:Ls_obs.Trace.t ->
  ?on_ready:(unit -> unit) ->
  ?listen_fd:Unix.file_descr ->
  ?incarnation:int ->
  ?heartbeat:(unit -> unit) ->
  unit ->
  Protocol.stats
(** Serve until SIGTERM/SIGINT or the [max_requests] budget is spent;
    [on_ready] fires once the socket is listening.  On SIGTERM the loop
    drains: every admitted request is answered before the final snapshot
    and return.  Always closes every descriptor it opened — when
    [listen_fd] is supplied (supervised mode) the caller owns the
    listener and the socket path.  [incarnation] seeds the [st_restarts]
    stat; [heartbeat] is invoked once per select round and per executed
    batch (the supervised worker's liveness signal).  Returns the final
    engine counters. *)

val run_supervised :
  ?cfg:config ->
  ?policy:Ls_shard.Supervisor.policy ->
  ?trace:Ls_obs.Trace.t ->
  ?on_ready:(unit -> unit) ->
  ?worker_pid_file:string ->
  unit ->
  Protocol.stats
(** Run the select loop as the one worker of a
    {!Ls_shard.Supervisor.run}[ ~shards:1] fleet, so the restart budget,
    backoff, heartbeat frames, hang probes and SIGKILL are the shard
    layer's own.  The parent holds the listening socket (so a killed
    worker restarts without dropping it — clients in the accept backlog
    are picked up by the replacement); a spent budget raises
    {!Ls_shard.Supervisor.Failed}[ (Transient, _)].  Each incarnation
    warm-starts from the latest cache snapshot when [state_dir] is set.
    SIGTERM/SIGINT are forwarded to the worker (once its first frame has
    named its pid), which drains, snapshots and reports its final stats
    back; those stats are returned.  A worker that dies during the drain
    is not replaced: the run returns zeroed stats.
    [worker_pid_file] publishes the current worker's pid (atomic
    tmp+rename rewrite when each incarnation's first frame arrives) so
    tests and CI can aim kill -9; the parent removes it on return.
    The trace sink ([trace], else the ambient one) has one writer, the
    worker: the parent lifts the ambient sink for the run and emits
    nothing, each incarnation closes the sink before its done frame, and
    a killed incarnation's unflushed events are lost.  The worker resets
    its {!Ls_obs.Metrics} and ships its counters back in the done frame,
    where the parent absorbs them; spawns and restarts are counted by
    the supervisor's [shard_spawns]/[shard_restarts].
    Must be called before any domain is created ({!Ls_par.Par.quiesce}
    is invoked, but a live domain elsewhere makes fork refuse). *)
