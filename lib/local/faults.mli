(** Deterministic fault plans for the LOCAL runtime.

    A plan describes an adverse network: per-edge message drop, duplication
    and delay distributions, per-node crash faults, and an optional
    payload-corruption rate (the corrupting {e function} is supplied by the
    caller of {!Network.run_broadcast}, since payloads are polymorphic).
    Beyond the i.i.d. rates a plan can carry {e schedules} — correlated
    fault shapes over absolute-round intervals:

    - {b partition intervals}: during [[a, b)] the vertex set is hashed
      into [parts] sides and every cross-side message is cut; at round [b]
      the partition heals;
    - {b fault bursts}: during [[a, b)] an elevated drop rate applies on
      top of the base rate;
    - {b crash recovery}: a crashed node may come back at a sampled later
      round (crash-{e recovery} instead of crash-{e stop}); the runtime
      restores its last checkpoint when it does (see {!Network}).

    Every verdict is a {b pure function of the plan seed and its
    coordinates} (round, edge endpoints, copy index, partition-interval
    index) — not of a stream position — so a fault pattern is
    bit-reproducible from its seed, independent of iteration order and of
    the {!Ls_par} domain count, and two executions over the same network
    diverge only through the monotonically advancing fault clock (see
    {!Network.clock}).

    The zero-fault plan {!none} is special-cased by the runtime: execution
    under it is {e bit-identical} to the fault-free code path. *)

type partition = private { p_from : int; p_until : int; p_parts : int }
(** The cut is in force for absolute rounds [[p_from, p_until)]. *)

type burst = private { b_from : int; b_until : int; b_drop : float }

type law = Uniform | Exponential | Heavy
(** Virtual link-latency law for the asynchronous executor
    ({!Ls_local.Async}): uniform on [[0.5, 1.5)], exponential of mean 1,
    or Pareto([x_m] = 0.5, [alpha] = 2) — all normalized to mean 1.0
    virtual time unit, so laws change delay {e tails}, not average load.
    Timing knobs never touch a fault verdict: the synchronous executor
    ignores them entirely, and the synchronizer-mode async executor
    produces bit-identical logical results under every law. *)

type t = private {
  seed : int64;
  drop : float;  (** Per-(round, directed edge) message loss probability. *)
  duplicate : float;  (** Probability a surviving message is sent twice. *)
  delay : float;  (** Probability a copy is delayed by 1..[max_delay] rounds. *)
  max_delay : int;
  crash : float;  (** Per-node probability of crashing. *)
  crash_horizon : int;
      (** Crash rounds are sampled uniformly from [0, crash_horizon). *)
  recovery : float;
      (** Probability a crashed node recovers (else it is crash-stop). *)
  recovery_delay : int;
      (** A recovering node returns 1..[recovery_delay] rounds after its
          crash. *)
  corrupt : float;  (** Per-(round, edge, copy) payload-corruption probability. *)
  partitions : partition list;
  bursts : burst list;
  law : law;
  skew : float;
      (** Max extra per-node clock-rate factor (a node's local round costs
          [1 .. 1 + skew] virtual time units); ≥ 0, async executor only. *)
  reorder : float;
      (** Probability a copy's virtual latency spikes 4×, forcing event
          reordering on the async executor's clock. *)
}

val none : t
(** The zero-fault plan: perfectly reliable network, nobody crashes. *)

val is_none : t -> bool

val make :
  ?base:t ->
  ?seed:int64 ->
  ?drop:float ->
  ?duplicate:float ->
  ?delay:float ->
  ?max_delay:int ->
  ?crash:float ->
  ?crash_horizon:int ->
  ?recovery:float ->
  ?recovery_delay:int ->
  ?corrupt:float ->
  ?partitions:(int * int * int) list ->
  ?bursts:(int * int * float) list ->
  ?law:law ->
  ?skew:float ->
  ?reorder:float ->
  unit ->
  t
(** Build a validated plan.  Every field omitted takes [base]'s value
    ([base] defaults to {!none} with seed [1L]); every field given
    overrides it — also when the value given equals the default.  This
    is the one merge rule of a [--fault-profile] preset and explicit
    flags: [make ?base:(Option.map preset profile) ?drop ...].

    All rates must lie in [\[0,1]]; [max_delay], [crash_horizon] and
    [recovery_delay] must be ≥ 1; partition intervals
    [(from, until, parts)] need [0 <= from < until] and [parts >= 2];
    burst intervals [(from, until, rate)] need [0 <= from < until] and a
    rate in [\[0,1]] — else [Invalid_argument] naming the offending
    parameter (the CLI flags [--fault-rate], [--crash-rate],
    [--max-delay] and [--corrupt-rate] funnel through this check). *)

(** {1 Verdicts}

    [round] is the network's absolute fault clock, so retried phases draw
    fresh verdicts while remaining deterministic. *)

val dropped : t -> round:int -> src:int -> dst:int -> bool
(** Base rate, active bursts, and partition cuts, combined: a message is
    dropped if any of the three fires. *)

val copies : t -> round:int -> src:int -> dst:int -> int
(** 0 (dropped), 1, or 2 (duplicated). *)

val delay_of : t -> round:int -> src:int -> dst:int -> copy:int -> int
(** Extra rounds before copy [copy] arrives: 0, or 1..[max_delay]. *)

val corrupted : t -> round:int -> src:int -> dst:int -> copy:int -> bool
(** Per-copy, like {!delay_of}: duplicated copies draw independent
    corruption verdicts ([copy] is 1-based; the [copy = 1] verdict
    coincides with the historical per-edge one). *)

val crash_interval : t -> node:int -> (int * int option) option
(** [Some (c, r)]: the node crashes at absolute round [c] and recovers at
    round [r] (restoring its last checkpoint), or never if [r = None]
    (crash-stop).  Recovery rounds are strictly after the crash.  A
    crashed node neither sends nor receives until it recovers; its state
    is frozen meanwhile. *)

(** {1 Schedules} *)

val partition_parts : t -> round:int -> (int * int) option
(** [(interval index, parts)] of the partition in force at [round], if
    any.  Intervals are consulted in declaration order; the first match
    wins. *)

val partition_side : t -> index:int -> node:int -> parts:int -> int
(** Which of the [parts] sides [node] lands on during partition interval
    [index] — a pure hash of (seed, index, node). *)

val partitioned : t -> round:int -> src:int -> dst:int -> bool
(** Is the directed edge cut by an active partition at [round]? *)

(** {1 Virtual-time draws}

    Consulted only by the asynchronous executor ({!Ls_local.Async}).
    Like every verdict they are pure functions of (seed, coordinates), so
    an async schedule replays exactly; unlike the verdicts above they
    shape {e when} events happen on the virtual clock, never {e what}
    happens — which is why timing-only plans still count as {!is_none}. *)

val law_name : law -> string
val law_of_string : string -> law
(** ["uniform"] | ["exp"]/["exponential"] | ["heavy"]/["pareto"]; raises
    [Invalid_argument] naming the [--delay-law] flag otherwise. *)

val link_latency : t -> round:int -> src:int -> dst:int -> copy:int -> float
(** Virtual transit time of copy [copy], drawn from the plan's [law]
    (mean 1.0), multiplied by 4 when the [reorder] spike verdict fires. *)

val control_latency : t -> round:int -> src:int -> dst:int -> kind:int -> float
(** Transit time of a control message (ack/safe/nack — distinguished by
    [kind]): uniform on [[0.1, 0.3)], its own salt. *)

val node_skew : t -> node:int -> float
(** The node's clock-rate factor in [[1, 1 + skew]]: virtual time one of
    its local rounds costs. *)

val timeout_jitter : t -> round:int -> src:int -> dst:int -> attempt:int -> float
(** Uniform [[0, 1)] jitter folded into adaptive-timeout deadlines so
    synchronized timeout storms decorrelate deterministically. *)

val retransmit_dropped : t -> round:int -> src:int -> dst:int -> attempt:int -> bool
(** Does retransmission [attempt] of the round-[round] copy fail?  A fresh
    link-layer verdict: cut by an active partition, or lost with the
    plan's base drop rate. *)

val reseed : t -> seed:int64 -> t
(** The same plan shape (rates, bounds, schedules) under a fresh seed —
    an independent replica of the schedule, used by per-trial sweeps. *)

val describe : t -> string
(** One-line human-readable summary, e.g. for experiment headers.
    Mentions {e every} nonzero field — including corrupt, max_delay,
    recovery, and every scheduled interval. *)

(** {1 Profile presets} *)

val preset : string -> t
(** The CLI's [--fault-profile] shorthand, as a full plan (seed [1L]):
    ["lossy"] (pure message loss), ["flaky"] (loss + duplication + delay
    + crash-recovery + corruption), ["partitioned"] (partition interval +
    burst over light loss).  Callers merge explicit flags into it with
    [make ~base].  Raises [Invalid_argument] naming the flag on any other
    string. *)
