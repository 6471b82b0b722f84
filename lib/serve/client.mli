(** Blocking client for the serving daemon.

    [send]/[recv] are independent so callers can pipeline: push K
    requests, then read K responses — the server answers a connection's
    requests in arrival order, admission verdicts included.  The one
    exception is a [Health] request, answered ahead of any requests still
    queued on the connection.  {!call} is the sequential convenience,
    {!burst} the pipelined one that survives broken connections. *)

type t

exception Unknown_host of string
(** A TCP hostname that does not resolve (DNS [Not_found] or an empty
    address list), raised by {!connect} before any descriptor is
    opened. *)

val connect : Server.address -> t
(** Raises [Unix.Unix_error] or {!Unknown_host} on failure (see
    {!connect_retry}). *)

val connect_retry :
  ?attempts:int ->
  ?delay_ms:int ->
  ?max_delay_ms:int ->
  Server.address ->
  (t, string) result
(** Retry over daemon startup: ECONNREFUSED/ENOENT retries with capped
    exponential backoff over EINTR-safe sleeps (defaults: 50 attempts,
    10 ms doubling to a 400 ms cap).  Other errors — including an
    unknown hostname — are named [Error]s carrying the attempt count,
    never exceptions. *)

val send : t -> Protocol.request -> unit
(** May raise [Unix.Unix_error] (e.g. EPIPE on a dead daemon) — callers
    that survive restarts catch it and reconnect. *)

val recv : t -> (Protocol.response, string) result
(** Never raises: EOF, truncation, malformed frames and socket-level
    failures (ECONNRESET from a kill -9ed peer) are all named
    [Error]s. *)

val call : t -> Protocol.request -> (Protocol.response, string) result
(** [send] then [recv], checking the correlation id. *)

val close : t -> unit

(** {1 Load clients} *)

val stream :
  ?graphs:string array -> seed:int64 -> int -> Protocol.request array
(** [stream ~seed n]: the deterministic mixed workload — 60% Sample
    (1–4 trials), 20% Infer (vertex < 8), 20% Count, on ball engine
    radius 1, over [graphs] (default cycle:24, path:16, grid:3x4,
    tree:2x3 — what [locsample query] and bench E17–E19 send) and three
    small models, with request seeds from a 4-seed pool so repeated
    (instance, seed) pairs exercise the daemon's caches.  Request [i]
    has id [i] and no deadline.  A pure function of [(graphs, seed, n)]. *)

val control : id:int -> Protocol.op -> Protocol.request
(** A [Stats] or [Health] request: the workload fields hold the
    placeholders the daemon ignores. *)

type burst = {
  responses : Protocol.response array;  (** Indexed by request id. *)
  conn : t;  (** The live connection, for follow-up requests. *)
  latency : float array;
      (** Seconds from the first send of the request's window to its
          answer, indexed by request id. *)
}

val burst :
  ?on_answer:(int -> unit) ->
  connect:(unit -> (t, string) result) ->
  pipeline:int ->
  Protocol.request array ->
  (burst, string) result
(** Send the [n] requests (request [i] must carry id [i]) in windows of
    [pipeline], routing each response by its rid.  A [send]
    [Unix_error] or a [recv] [Error] closes the connection, opens a
    fresh one through [connect] (the caller's retry budget) and resends
    the window's unanswered requests; a duplicate answer is ignored.
    [on_answer k] runs after each new answer, [k] counting them so far.
    Returns [Error], with the connection closed, when [connect] fails,
    after 100 reconnects, or on a rid outside 0 .. n-1.  Ignores SIGPIPE
    for the process, so a reset peer surfaces as EPIPE.  Raises
    [Invalid_argument] if [pipeline < 1]. *)
