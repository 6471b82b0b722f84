(** Blocking client for the serving daemon.

    [send]/[recv] are independent so callers can pipeline: push K
    requests, then read K responses — the server answers a connection's
    requests in arrival order, admission verdicts included.  The one
    exception is a [Health] request, answered ahead of any requests still
    queued on the connection.  {!call} is the sequential convenience. *)

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
