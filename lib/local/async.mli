(** The event-driven executor: the same per-node programs as
    {!Network.run_broadcast}, run over a priority queue of timestamped
    message events instead of a global round loop.

    Virtual time is simulated, and deterministically so: link latencies,
    clock skew, control-plane latencies and timeout jitter are all pure
    draws from the network's {!Faults} plan, and heap ties break on
    insertion order — the whole execution is a pure function of the
    seeds, whatever the timing law.  Crucially, the fault plan's delay
    verdicts fix {e which} logical slot a copy lands in exactly as in the
    synchronous executor; latency only decides the order in which events
    are processed.

    {b Synchronizer mode} implements an alpha-synchronizer: per-copy
    link-layer acks, per-round Safe broadcasts, and a local round barrier
    that closes a node's inbox slot only when every neighbor alive at
    that round has declared it safe.  Ack causality guarantees no copy
    due in a slot arrives after its barrier, so node states, meters and
    the payload trace are {e bit-identical} to the synchronous runtime
    under arbitrary fair delays and skew.

    {b Adaptive mode} drops the barriers and instead arms per-neighbor
    timeouts from an EWMA latency estimate, with jittered exponential
    backoff and a capped number of retransmit requests.  A timeout that
    fires too early costs only completeness (the node proceeds with a
    subset inbox, detected by {!Network.view_is_complete} and surfaced
    through {!Resilient} as a transient failure) — never soundness:
    merges only ever see truthful payloads, so Las Vegas outputs stay
    exact.  Copies arriving after their slot closed become dead letters
    (the [late] statistic), keeping the conservation identity
    [messages = delivered + pending + quarantined + dead] executor-
    independent.

    Control-plane traffic (acks, safes, nacks) is metered separately —
    see {!stats} and the [control_msgs] metric — and its trace events go
    only to the dedicated control sink, so the payload trace stream
    cannot be perturbed by the protocol machinery. *)

type mode =
  | Synchronizer  (** Alpha-synchronizer: bit-identical to the sync runtime. *)
  | Adaptive  (** EWMA timeouts + retransmits: Las Vegas-sound, may degrade. *)

val mode_name : mode -> string

val mode_of_string : string -> mode
(** Accepts "synchronizer"|"sync"|"alpha" and "adaptive"|"bounded"|
    "bounded-delay" (case-insensitive); raises [Invalid_argument]
    otherwise. *)

type t
(** An executor configuration with accumulated statistics.  Reusable
    across phases and networks; per-node clock skews are reported to the
    control sink once per configuration. *)

type stats = {
  phases : int;  (** Broadcast phases executed. *)
  makespan : float;  (** Total virtual time across phases. *)
  control_msgs : int;  (** Acks + safes + nacks sent (not in [messages]). *)
  acks : int;  (** Link-layer acks processed (synchronizer mode). *)
  barriers : int;  (** Round barriers / slot closes, over all nodes. *)
  timeouts : int;  (** Timeouts that fired and requested a retransmit. *)
  retransmits : int;  (** Retransmissions that hit the wire. *)
  gave_up : int;  (** (node, neighbor, round) resolutions by give-up. *)
  late : int;  (** Copies arriving after their slot closed (dead letters). *)
}

val make :
  ?mode:mode ->
  ?timeout_base:float ->
  ?ewma_alpha:float ->
  ?timeout_factor:float ->
  ?backoff:float ->
  ?jitter:float ->
  ?max_retransmits:int ->
  ?control_trace:Ls_obs.Trace.t ->
  unit ->
  t
(** Defaults: synchronizer mode, [timeout_base = 3.0] (the initial EWMA
    latency estimate, in virtual time units where a fault-free link
    averages 1.0), [ewma_alpha = 0.2], [timeout_factor = 2.0],
    [backoff = 2.0], [jitter = 0.5], [max_retransmits = 2], no control
    sink.  Raises [Invalid_argument] on out-of-range values. *)

val mode : t -> mode
val stats : t -> stats

val run_broadcast :
  t ->
  'input Network.t ->
  rounds:int ->
  ?size:('m -> int) ->
  ?corrupt:(round:int -> src:int -> dst:int -> 'm -> 'm) ->
  ?digest:('m -> int) ->
  ?ckpt:'s Network.carrier ->
  ?carry:'m Network.carrier ->
  ?label:string ->
  ?trace:Ls_obs.Trace.t ->
  init:(int -> 's) ->
  emit:(int -> 's -> 'm) ->
  merge:(int -> 's -> 'm list -> 's) ->
  unit ->
  's array
(** Drop-in equivalent of {!Network.run_broadcast} on the event-driven
    engine: same fault pipeline (via {!Linksem}), same carry/checkpoint
    semantics, same metering and phase trace bookends, and the same
    round charge ([rounds] plus catch-up — every node completes exactly
    [rounds] barriers, so the max over nodes of completed barriers is
    the phase length; virtual time never enters the rounds meter).
    In synchronizer mode the returned states are bit-identical to the
    synchronous executor's.

    Determinism requires what the synchronous executor also requires of
    callbacks: [init]/[emit]/[merge] must touch only per-node state (or
    per-node RNG streams) — a callback reading shared mutable state
    would observe executor-dependent interleavings. *)

val flood_views :
  t -> ?trace:Ls_obs.Trace.t -> 'i Network.t -> radius:int -> 'i Network.view array
(** {!Network.flood_views} over this executor: the flood
    record/digest/corrupt/BFS pipeline runs unchanged, only the
    message-passing engine differs.  In synchronizer mode the views are
    bit-identical to the synchronous flood's; in adaptive mode they may
    be incomplete (give-ups), which {!Network.view_is_complete}
    detects. *)
