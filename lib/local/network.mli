(** The LOCAL model runtime.

    A network is a graph whose nodes each own a unique id, a private input,
    and an independent random stream (exactly the initial knowledge granted
    by the LOCAL model, §2).  Algorithms access the network through
    {!gather}: in [t] communication rounds a node learns precisely its
    radius-[t] ball — topology, inputs, ids — which is the information-
    theoretic characterization of the model.  The runtime meters cost in
    rounds: {!charge} accumulates the cost of a parallel step (all nodes
    acting at once cost the maximum radius used, not the sum).

    For fidelity, {!run_broadcast} executes genuine synchronous message
    passing; {!flood_views} implements ball-collection on top of it, and the
    test suite checks it reconstructs the same views as {!gather}.

    {b Fault injection.}  A network can carry a {!Faults} plan: messages on
    the {!run_broadcast} path are then dropped, duplicated, delayed or
    corrupted per the plan's deterministic verdicts, partition intervals
    cut the graph into sides, and nodes crash at their sampled rounds —
    either forever (crash-stop) or for a bounded interval
    (crash-{e recovery}): the runtime snapshots a crashing node's phase
    state into a per-node checkpoint store and restores it at the
    recovery round, charging the rounds the node was dark as catch-up.
    Verdicts are keyed by the network's monotonically advancing {!clock},
    so a retried phase faces fresh faults while the whole execution stays
    a pure function of the seeds.  The zero-fault plan runs the same
    executor, where every verdict is one undelayed copy.  {!gather} is
    fault-oblivious by design: it is the information-theoretic primitive,
    whereas faults model the physical message-passing realization.

    {b Integrity.}  When a phase supplies both a [corrupt] hook and a
    [digest], corrupted copies whose digest no longer matches are
    {e quarantined}: billed (they hit the wire) but never delivered, so
    corruption surfaces to the supervision layer as extra loss rather
    than as silently wrong payloads.  Every transmitted copy is accounted
    for: [messages = delivered + pending + quarantined + dead letters]. *)

type 'input t

val create :
  ?faults:Faults.t ->
  ?trace:Ls_obs.Trace.t ->
  Ls_graph.Graph.t ->
  inputs:'input array ->
  seed:int64 ->
  'input t
(** One input per vertex; node [v]'s random stream is derived from [seed]
    and [v].  [faults] (default {!Faults.none}) fixes the fault plan for
    the network's lifetime; crash rounds are sampled at creation.
    [trace] attaches an event sink to every broadcast phase (see
    {!Ls_obs.Trace}); when omitted, phases fall back to the ambient sink. *)

val graph : _ t -> Ls_graph.Graph.t
val input : 'i t -> int -> 'i
val rng : _ t -> int -> Ls_rng.Rng.t
(** Node [v]'s private stream (the same object on every call). *)

(** {1 Fault state} *)

val faults : _ t -> Faults.t

val clock : _ t -> int
(** Absolute broadcast rounds executed so far.  Unlike {!rounds} it is
    never reset: fault verdicts are keyed by it, so repeated phases draw
    fresh (but deterministic) faults. *)

val crashed : _ t -> int -> bool
(** Is node [v] down at the current {!clock}?  A node is down for the
    half-open interval [[crash_at, recover_at)]; under crash-{e stop}
    (no recovery granted) the interval never ends. *)

val permanently_crashed : _ t -> int -> bool
(** Has node [v] crashed with no recovery scheduled?  Implies {!crashed};
    the distinction is what {!Resilient} spends its retry budget on —
    permanent failures cannot be waited out. *)

val quarantined_count : _ t -> int
(** Corrupted copies caught by an integrity digest so far (billed, never
    delivered). *)

val dead_letter_count : _ t -> int
(** Copies that could not be delivered: they arrived at a down node, or
    fell past their phase's end with no [carry] witness to park on. *)

val delivered_count : _ t -> int
(** Copies handed to a live node's [merge].  Together with
    {!pending_count}, {!quarantined_count} and {!dead_letter_count} this
    accounts for every transmitted copy ({!messages}) — the conservation
    invariant the chaos harness checks. *)

(** {1 Round accounting} *)

val rounds : _ t -> int
(** Total rounds charged so far. *)

val charge : _ t -> int -> unit
(** Charge the cost of one parallel phase in which every node communicated
    up to the given radius. *)

val reset_rounds : _ t -> unit

val bits : _ t -> int
(** Total message bits sent so far over all {!run_broadcast} calls whose
    [size] callback was provided.  The paper leaves CONGEST-style bounded
    messages as an open problem (§6); this meter quantifies how far the
    simulated algorithms are from that regime.  Under a fault plan the
    meter counts transmitted copies: dropped messages never hit the wire,
    duplicates pay twice. *)

val reset_bits : _ t -> unit
(** Zero the bit meter (e.g. between fault trials sharing one process, so
    stale counts don't accumulate).  {!clock} is deliberately not
    resettable. *)

val messages : _ t -> int
(** Transmitted message copies over all {!run_broadcast} calls: one per
    directed edge per fault-free round; under faults, dropped messages
    count zero and duplicates count twice (same rule as {!bits}). *)

val pending_count : _ t -> int
(** Delayed copies currently parked across a phase boundary, awaiting a
    later {!run_broadcast} of their message type (see [carry]). *)

val finish : _ t -> unit
(** End-of-simulation accounting: copies still parked when the network is
    finished (no later phase will ever collect them — e.g. a node never
    recovered, or the workload simply ended) migrate to dead letters, so
    [messages = delivered + pending + quarantined + dead letters] holds at
    teardown with [pending = 0].  Idempotent; call it before reading final
    meters from a network that will run no further phases. *)

(** {1 Local views} *)

type 'input view = {
  center : int;  (** Original id of the gathering node. *)
  radius : int;
  vertices : int array;  (** Original ids of [B_radius(center)], sorted. *)
  view_inputs : 'input array;  (** Indexed by position in [vertices]. *)
  dist_center : int array;
      (** Graph distance from center, by position in [vertices]. *)
}

val gather : 'i t -> v:int -> radius:int -> 'i view
(** The view of node [v] after [radius] rounds.  Does {e not} charge
    rounds — callers charge once per parallel phase via {!charge}. *)

val view_is_complete : 'i t -> 'i view -> bool
(** Does the view cover the {e true} radius-[t] ball of its center?
    Always true for {!gather}; a {!flood_views} view under faults may be a
    strict subset — the detectable signature of stalled ball-collection
    that {!Resilient} supervises. *)

val merge_views : 'i t -> 'i view -> 'i view -> 'i view
(** Union of two partial views of the same center and radius: the merged
    view covers every vertex either operand knew (distance labels take the
    pointwise minimum of the two estimates).  Raises [Invalid_argument] if
    centers or radii differ.  This is the accumulation step of
    {!Resilient.collect_views} — knowledge from distinct flood attempts
    composes instead of the larger attempt shadowing the smaller. *)

(** {1 Genuine synchronous message passing} *)

type univ
(** Universal payload wrapper for cross-phase message parking. *)

type 'm carrier
(** A type witness embedding ['m] into {!univ} and back. *)

val carrier : unit -> 'm carrier
(** A fresh witness.  Phases sharing one carrier exchange their delayed
    leftovers; distinct carriers are mutually opaque. *)

val run_broadcast :
  'i t ->
  rounds:int ->
  ?size:('m -> int) ->
  ?corrupt:(round:int -> src:int -> dst:int -> 'm -> 'm) ->
  ?digest:('m -> int) ->
  ?ckpt:'s carrier ->
  ?carry:'m carrier ->
  ?label:string ->
  ?trace:Ls_obs.Trace.t ->
  init:(int -> 's) ->
  emit:(int -> 's -> 'm) ->
  merge:(int -> 's -> 'm list -> 's) ->
  unit ->
  's array
(** Execute [rounds] synchronous rounds: each round, every node [v]
    broadcasts [emit v state] to all neighbors, then folds the received
    messages with [merge].  Charges [rounds] rounds; when [size] is given,
    message bit counts are metered (see {!bits}).  Raises
    [Invalid_argument] on [rounds < 0], before any event or meter moves.

    Under the network's fault plan, each directed (round, edge) message is
    subjected to the plan's verdicts: it may be dropped, duplicated,
    delayed (parked until its absolute arrival round), or — when the
    plan's corrupt rate fires {e and} the caller supplied [corrupt] —
    rewritten by that hook (corruption verdicts are per copy: duplicates
    draw independently).  When [digest] is also given, a rewritten copy
    whose digest differs from the original's is quarantined instead of
    delivered (billed, traced, counted — see {!quarantined_count}); a
    corruption the digest misses — a genuine collision — is delivered
    silently.  Down nodes neither emit nor merge; their states freeze,
    and copies arriving at them become dead letters.  Inbox order is
    deterministic: (send round, sender id, copy index).  Under the
    zero-fault plan every node hears each neighbor exactly once per
    round, in ascending neighbor id.

    Crash-recovery: when the plan grants a node a recovery round, the
    node's state is snapshotted at its crash round (if [ckpt], a witness
    for the {e state} type ['s], is given) and restored at its recovery
    round; the rounds it was dark are charged as catch-up on top of the
    phase length ({!clock} advances by [rounds] only — it keys fault
    verdicts, not cost).  Without [ckpt] the node restarts from its
    current phase state (whatever [init] gave it).  A checkpoint taken in
    one phase is restored in a later phase only if that phase's [ckpt]
    carrier can project it ({!flood_views} phases all share one carrier).

    A delayed copy due {e after} the phase ends is not lost when [carry]
    is given: it is parked keyed by its absolute round and delivered, in
    deterministic order ahead of fresh traffic, at the start of the next
    [run_broadcast] sharing the same carrier (already-due copies arrive in
    the first round).  Without [carry] such copies count as dead letters
    (their bits stay billed — they did hit the wire).

    [label] names the phase in trace events; [trace] overrides the
    network's sink for this phase. *)

(** {1 Pluggable transport}

    {!Ls_shard.Exec} installs a transport to run faulty broadcast phases
    across worker OS processes.  The hook replaces only the {e interior}
    of the executor: the {!run_broadcast} wrapper still emits
    phase-boundary events, advances the clock, charges rounds and records
    phase metrics.  A transport must therefore do exactly what the
    in-process executor does — mutate the network's meters, pending
    copies and checkpoint store (via [Internal]), emit interior fault
    events to the given sink, and return final states plus the catch-up
    round count.  Phases under a plan with {!Faults.is_none} never
    consult the transport: they always run in-process. *)

type transport = {
  exec :
    'i 'm 's.
    'i t ->
    rounds:int ->
    size:('m -> int) option ->
    corrupt:(round:int -> src:int -> dst:int -> 'm -> 'm) option ->
    digest:('m -> int) option ->
    ckpt:'s carrier option ->
    carry:'m carrier option ->
    trace:Ls_obs.Trace.t option ->
    init:(int -> 's) ->
    emit:(int -> 's -> 'm) ->
    merge:(int -> 's -> 'm list -> 's) ->
    's array * int;
}
(** One polymorphic executor serving every (input, message, state)
    instantiation — the arguments are {!run_broadcast}'s, with the
    options made explicit and the trace already resolved to the phase
    sink. *)

val set_transport : transport option -> unit
(** Install ([Some]) or remove ([None]) the process-global transport.
    Workers forked by a transport must clear it immediately after the
    fork, or their own broadcast phases would recurse into it. *)

val transport : unit -> transport option

(**/**)

(** Plumbing for the sibling event-driven executor {!Async} — the one
    module entitled to a network's internals.  Not part of the documented
    surface; everything here preserves the invariants the public API
    states (conservation, clock monotonicity, checkpoint ownership). *)
module Internal : sig
  type packet = {
    sent : int;  (** Absolute round the copy was transmitted. *)
    arrive : int;  (** Absolute round the copy is due. *)
    p_src : int;
    p_dst : int;
    p_copy : int;
    payload : univ;
  }

  type 'i flood_msg

  val inject : 'm carrier -> 'm -> univ
  val project : 'm carrier -> univ -> 'm option
  val pending : _ t -> packet list
  val set_pending : _ t -> packet list -> unit
  val crash_at : _ t -> int array
  val recover_at : _ t -> int array
  val crash_seen : _ t -> int -> bool
  val set_crash_seen : _ t -> int -> unit
  val ckpt : _ t -> int -> univ option
  val set_ckpt : _ t -> int -> univ option -> unit
  val partition_active : _ t -> int option
  val set_partition_active : _ t -> int option -> unit
  val add_bits : _ t -> int -> unit
  val add_msgs : _ t -> int -> unit
  val add_quarantined : _ t -> int -> unit
  val add_dead_letters : _ t -> int -> unit
  val add_delivered : _ t -> int -> unit
  val advance_clock : _ t -> int -> unit

  val sink : _ t -> Ls_obs.Trace.t option -> Ls_obs.Trace.t option
  (** Explicit sink wins, then the network's own, then the ambient one. *)

  val flood_views_via :
    run:
      (rounds:int ->
      size:('i flood_msg -> int) ->
      corrupt:(round:int -> src:int -> dst:int -> 'i flood_msg -> 'i flood_msg) ->
      digest:('i flood_msg -> int) ->
      ckpt:'i flood_msg carrier ->
      carry:'i flood_msg carrier ->
      label:string ->
      init:(int -> 'i flood_msg) ->
      emit:(int -> 'i flood_msg -> 'i flood_msg) ->
      merge:(int -> 'i flood_msg -> 'i flood_msg list -> 'i flood_msg) ->
      'i flood_msg array) ->
    'i t ->
    radius:int ->
    'i view array
  (** {!flood_views} with the broadcast engine abstracted out: the flood
      record/digest/corrupt/BFS pipeline runs unchanged over whichever
      executor [run] supplies. *)
end

(**/**)

val flood_views : ?trace:Ls_obs.Trace.t -> 'i t -> radius:int -> 'i view array
(** Build every node's radius-[t] view using only {!run_broadcast} — the
    executable proof that [gather] grants no more information than [t]
    rounds of real communication.  Under faults, views may be partial
    (see {!view_is_complete}).  All floods over one network share a
    carrier, so copies delayed past one flood's end reach the next; the
    same carrier doubles as the checkpoint witness, so a node that
    crashes mid-flood and recovers resumes from what it had learned.
    Flood messages carry an adjacency digest, so the plan's corrupt rate
    garbles real payloads end-to-end and the corruption is quarantined
    rather than poisoning views (a quarantined record is just a missed
    record: the view stays truthful, possibly incomplete). *)
