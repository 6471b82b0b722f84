(** Chaos-testing harness for the LOCAL runtime.

    Generates random fault schedules from a seed, runs the supervised
    sampler workload under each, checks an invariant suite that must hold
    under {e every} schedule, and greedily shrinks failing schedules to
    minimal reproducers.

    {b The invariant suite}, per schedule:

    - {e conservation} (at teardown): after {!Ls_local.Network.finish}
      every transmitted copy is accounted for with nothing pending —
      [messages = delivered + 0 + quarantined + dead letters];
    - {e domain-determinism}: the trial batch is bit-identical at 1 and 2
      domains (verdicts, outputs, round charges);
    - {e sync-async-identity}: the synchronizer-mode event-driven executor
      ({!Ls_local.Async}) reproduces the synchronous runtime bit-for-bit
      under the schedule's delay law, clock skew and reordering;
    - {e las-vegas}: every success lies in the support of the exact joint
      — faults may cost availability, never correctness (under adaptive
      timeouts too: a misfired timeout may cost a retry, never exactness);
    - {e gof}: conditioned on success the output is exactly [mu]
      (chi-square at significance 0.001, skipped when successes are too
      few for meaningful expected cell counts).

    Once per run, {e zero-fault}: the supervised sampler under
    {!Ls_local.Faults.none} is bit-identical to the unsupervised one.

    {b Determinism.}  The whole run — generation, trials, verdicts,
    shrinking — is a pure function of [(seed, schedules, trials)], so the
    one line printed by {!reproducer} replays a failure exactly. *)

type spec = {
  plan_seed : int64;
  drop : float;
  duplicate : float;
  delay : float;
  max_delay : int;
  crash : float;
  recovery : float;
  recovery_delay : int;
  corrupt : float;
  partitions : (int * int * int) list;
  bursts : (int * int * float) list;
  law : Ls_local.Faults.law;
  skew : float;
  reorder : float;
}
(** A fault schedule in shrinkable form: the arguments of
    {!Ls_local.Faults.make}, as data.  The last three are the timing
    dimensions only the asynchronous executor consults. *)

val quiet : int64 -> spec
(** The zero-fault schedule with the given plan seed (the shrinker's
    bottom element; useful for building targeted specs in tests). *)

type overrides = {
  o_async : string option;
      (** Executor mode name ({!Ls_local.Async.mode_of_string});
          [None] = synchronous. *)
  o_max_delay : int option;
  o_corrupt : float option;
  o_profile : string option;
  o_partitions : (int * int * int) list;  (** [[]] = keep generated ones. *)
  o_shards : int option;
      (** Run the sharded invariants ({e shard-identity} and
          {e kill-recovery}) at this {!Ls_shard.Exec} worker count.
          Synchronous-only; [None] skips them. *)
}
(** The `locsample chaos` flag surface, as data: dimensions forced onto
    every generated schedule (explicit values override the profile's
    fields, mirroring the sample command's precedence).  Carried by the
    {!summary} so {!reproducer}'s replay line reproduces them. *)

val no_overrides : overrides

type violation = Harness.violation = { invariant : string; detail : string }

val run_spec :
  ?check:(spec -> violation option) ->
  ?async:Ls_local.Async.mode ->
  ?shards:int ->
  ?trials:int ->
  spec ->
  violation list
(** Run the workload under one schedule and return every invariant
    violation (empty = schedule passed).  [check] injects an extra
    caller-supplied invariant — the hook the shrinker tests (and the CI
    self-test) use to plant a seeded failure.  [async] floods the trial
    batch over the event-driven executor in the given mode (the
    sync-vs-async identity invariant is checked either way).  [shards]
    additionally checks {e shard-identity} (the {!Ls_shard.Exec}
    transport reproduces the in-process executor bit-for-bit on a
    reduced batch) and {e kill-recovery} (a worker [kill -9]ed before
    its first checkpoint recovers to the same verdicts, twice); ignored
    under [async].  [shards] also skips {e domain-determinism}: the
    runtime permanently refuses [Unix.fork] in a process that ever
    created a domain, so sharded runs stay on one domain throughout
    (shard-identity plays the same scheduling-invariance role).
    Default [trials] is 80. *)

val shrink :
  ?check:(spec -> violation option) ->
  ?async:Ls_local.Async.mode ->
  ?shards:int ->
  ?trials:int ->
  spec ->
  spec
(** {!Harness.shrink} over this workload's one-step simplifications
    (drop an interval, zero a rate, collapse a bound): a minimal
    reproducer of the input's failure.  On a passing schedule it returns
    the schedule unchanged. *)

type params = { trials : int; overrides : overrides }

type summary = (spec, params) Harness.summary

val run :
  ?check:(spec -> violation option) ->
  ?overrides:overrides ->
  ?schedules:int ->
  ?trials:int ->
  seed:int64 ->
  unit ->
  summary
(** The full harness ({!Harness.run}): zero-fault identity, then
    [schedules] generated schedules (default 10) of [trials] trials each
    — with [overrides] applied to each — shrinking every failure.  Raises
    [Invalid_argument], before any work, on [schedules < 1] or
    [trials < 1], on an invalid [o_async] mode name, [o_profile] preset
    or override value, on [o_shards < 1], or on [o_shards] combined with
    [o_async] (the sharded transport is synchronous-only) — the CLI's
    rejection paths. *)

val ok : summary -> bool

val reproducer : summary -> string
(** Human-readable run report — violations and shrunk reproducers on
    failure, ["all invariants held"] otherwise — ending in the exact CLI
    line that replays the run, override flags included. *)

val parse_partition : string -> (int * int * int, string) result
(** ["FROM:UNTIL:PARTS"], as [--partition] takes it on the command line
    and in replay lines. *)

val parse_reproducer : string -> (int64 * int * params) option
(** Parse a {!reproducer} report (or any text containing its replay line)
    back into [(seed, schedules, params)] — the round-trip
    guarantee that the printed one-liner really replays the run. *)
