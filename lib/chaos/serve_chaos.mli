(** Chaos harness for the serving daemon.

    Drives a deterministic request burst through the {!Proxy} fault
    injector against a live forked daemon — with a {!Sysfault} syscall
    schedule installed inside the daemon — and checks the serve
    invariants under every generated schedule:

    - {b daemon-crash}: the daemon survives the burst and exits 0 on
      SIGTERM — byte-level damage and resource faults may cost
      connections or snapshots, never the process;
    - {b rid-integrity}: no well-formed response is matched to the
      wrong request (everything accepted is the awaited rid or a
      byte-identical duplicate of an already-answered one);
    - {b byte-identity}: every accepted response is byte-identical to
      a proxy-free, fault-free run of the same burst;
    - {b liveness}: a bounded resend loop completes the burst;
    - {b degraded-pairing}: in the daemon's own trace, every
      [degraded_enter] has its [degraded_exit] by clean shutdown
      (checked whenever the sysfault dimension is live);
    - {b transparency} (once per run): the all-zero schedule yields no
      violations.

    Everything derives from the harness seed — schedule generation, the
    workload, the proxy's per-frame fault draws and the syscall
    verdicts — so a failure printed with its seed replays exactly.
    Failing schedules shrink by zeroing whole fault dimensions (socket
    and syscall alike) to a minimal reproducer, and {!reproducer} ends
    in a [locsample serve-chaos] line that {!parse_reproducer} (and the
    real CLI) round-trips.

    The harness forks daemons and proxies, so like the sharded suites it
    must run before anything creates a domain ({!Ls_par.Par.quiesce} is
    called before each fork), and it ignores SIGPIPE in the calling
    process — chaos resets make EPIPE on send a normal event. *)

type violation = Harness.violation = { invariant : string; detail : string }

type schedule = { net : Proxy.spec; sys : Sysfault.spec }
(** One chaos schedule: socket damage through the proxy plus syscall
    faults through the {!Ls_shard.Sysio} hook inside the daemon. *)

val quiet_schedule : int64 -> schedule
val describe_schedule : schedule -> string

val gen_requests : seed:int64 -> n:int -> Ls_serve.Protocol.request array
(** The deterministic burst: {!Ls_serve.Client.stream} — the stream
    [locsample query] sends — over graphs chosen so that no generated
    request can legitimately draw [Bad_request] (which lets the chaos
    client blame every [Bad_request] on proxy corruption — the frame
    digest covers the payload only, so a corrupted header can reach the
    daemon as a valid frame) and with all deadlines 0 (expiry depends on
    wall time, which chaos delays would turn into false
    byte-identity failures). *)

val run_spec :
  ?check:(schedule -> violation option) ->
  requests:Ls_serve.Protocol.request array ->
  baseline:string array ->
  schedule ->
  violation list
(** Run the burst under one schedule and return every violation (empty
    = passed).  [baseline] is the fault-free transcript from
    {!baseline_run}; [check] injects an extra caller-supplied invariant
    — the hook the shrinker tests use to plant a seeded failure.  When
    the sysfault half is non-quiet the daemon runs with a state dir, an
    aggressive snapshot cadence and a file trace, and the
    degraded-pairing invariant is judged from that trace. *)

val baseline_run : Ls_serve.Protocol.request array -> string array
(** The fault-free transcript: one encoded response per request, the
    byte-identity reference.  Raises [Failure] if the daemon cannot
    serve the burst cleanly — that is a broken environment, not a chaos
    finding. *)

val shrink :
  ?check:(schedule -> violation option) ->
  requests:Ls_serve.Protocol.request array ->
  baseline:string array ->
  schedule ->
  schedule
(** {!Harness.shrink}, zeroing one socket or syscall fault dimension
    per step: a minimal reproducer of the input's failure. *)

type params = {
  requests : int;
  sysfault : bool;  (** Was the syscall dimension enabled? *)
}

type summary = (schedule, params) Harness.summary
(** Its [zero_fault] is the transparency check under the all-zero
    schedule (run without [check], so planted failures surface as
    schedule failures). *)

val run :
  ?check:(schedule -> violation option) ->
  ?schedules:int ->
  ?requests:int ->
  ?sysfault:bool ->
  seed:int64 ->
  unit ->
  summary
(** The full harness ({!Harness.run}): baseline, transparency, then
    [schedules] generated schedules (defaults 5 × 40 requests, sysfault
    dimension on), shrinking each failure.  Raises [Invalid_argument]
    on [schedules < 1] or [requests < 1] before any work, and [Failure]
    if the baseline itself cannot run. *)

val ok : summary -> bool

val reproducer : summary -> string
(** Human-readable report ending in an exact
    [locsample serve-chaos --seed … --schedules … --requests …]
    (plus [--no-sysfault] when the dimension was off) replay line. *)

val parse_reproducer : string -> (int64 * int * params) option
(** Recover [(seed, schedules, params)] from a {!reproducer} report —
    the round-trip the CLI's replay path and its tests rely on. *)
