(** Sharded multi-process execution of faulty broadcast phases.

    [install] plugs a transport into {!Ls_local.Network.set_transport}
    that runs each faulty phase across [shards] worker OS processes
    forked inside the phase call (so the phase's closures, fault plan
    and carried state are in scope in every child).  Workers own
    contiguous vertex blocks ({!Router.range}); cross-shard copies
    travel through the parent in a per-round batch/deliver barrier that
    preserves synchronous semantics exactly.

    Because fault verdicts are pure in (seed, round, src, dst, copy)
    and delivery order within an inbox slot is fixed by the
    {!Ls_local.Linksem} comparators, a sharded run is bit-identical to
    the in-process executor — same states, meters and trace events (the
    only addition being shard lifecycle events, which CI strips when
    diffing).  Phases under a zero-fault plan never consult the
    transport: they always run in-process.

    Fault tolerance: workers checkpoint atomically after every round
    ({!Ckpt}); a worker killed with [SIGKILL] (for real — see
    {!kill_spec}) is re-forked by the {!Supervisor}, restores its
    checkpoint, replays forward, and the parent answers replayed
    batches from stored history after checking they carry the same
    verdict coordinates.  Healthy shards, blocked at the round barrier,
    never observe the crash.  Checkpoint files are removed when a phase
    completes and left behind when it fails — they are the post-mortem
    artifact. *)

(** {1 Kill injection} *)

type kill_spec = {
  k_shard : int;
  k_phase : int;  (** Process-global phase index, in execution order. *)
  k_round : int;  (** Phase-relative round; fires at the round start. *)
  k_incarnation : int;  (** Which incarnation dies (0 = the original). *)
  k_hang : bool;  (** Hang instead of dying: sleep until SIGKILLed. *)
}

val parse_kill_specs : string -> (kill_spec list, string) result
(** Parse a comma-separated list of [SHARD:PHASE:ROUND[:INCARNATION][:hang]]
    specs (the [--shard-kill] syntax).  Empty segments are skipped; an
    empty string is [Ok []]. *)

val kill_matches :
  kill_spec list ->
  shard:int ->
  phase:int ->
  round:int ->
  incarnation:int ->
  kill_spec option

val fire_kill : kill_spec -> 'a
(** Execute a matched spec in the current process: [kill -9] self, or
    sleep forever for a hang spec.  Does not return. *)

(** {1 Configuration} *)

type config = {
  shards : int;
  kills : kill_spec list;
  dir : string;  (** Checkpoint directory. *)
  policy : Supervisor.policy;
  ckpt_every : int;  (** Checkpoint every k completed rounds. *)
}

val config :
  ?kills:kill_spec list ->
  ?dir:string ->
  ?policy:Supervisor.policy ->
  ?ckpt_every:int ->
  shards:int ->
  unit ->
  config
(** Defaults: no kills, {!Ckpt.default_dir}, {!Supervisor.default_policy},
    checkpoint every round.  Raises [Invalid_argument] on [shards < 1]
    or [ckpt_every < 1]. *)

val install : config -> unit
(** Install the sharded transport process-globally.  Subsequent faulty
    {!Ls_local.Network.run_broadcast} phases run sharded; phase indices
    (for kill specs) count from the last {!reset_phase_counter}. *)

val uninstall : unit -> unit
val installed : unit -> bool

val reset_phase_counter : unit -> unit
(** Phase indices are process-global so kill specs address phases by
    execution order; tests reset between runs to keep specs stable. *)

