(** Process-global counters for the LOCAL runtime.

    Where {!Trace} records the {e sequence} of events, this module keeps
    cheap aggregate counters: a registry of named counters (LOCAL cost,
    fault verdicts, supervision, sketches, shards, serving, resource
    faults), a virtual-latency histogram, and {!Ls_par} pool utilization.
    All are atomics or mutex-guarded sums, so totals are domain-count
    invariant — only the [per_domain] split depends on scheduling.

    {!snapshot}, {!reset}, {!empty}, {!absorb} and {!print} are loops over
    the registry.  Adding a counter is one line in [metrics.ml]
    ([let c = def "group" "c"], the group being its [--metrics] line) plus
    its documented [val c : counter] below.

    Recording is off by default; producers go through {!add}/{!bump},
    which guard on {!enabled}, so a disabled run pays one atomic read per
    call. *)

type counter
(** A named [int Atomic.t] in the registry. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** {1 Recording} (no-ops while disabled) *)

val add : counter -> int -> unit
(** [add c k] adds [k] to [c]: one {!enabled} read and one
    [Atomic.fetch_and_add] — never a lookup by name. *)

val bump : counter -> unit
(** [bump c] is [add c 1]. *)

(** {1 Counters}, grouped by their [--metrics] line *)

(** {2 LOCAL cost ([local])} *)

val phases : counter
val bits : counter
val rounds : counter  (** Rounds charged by traced broadcast phases. *)

val messages : counter  (** Transmitted copies (duplicates pay twice). *)

(** {2 Applied fault verdicts ([faults])} *)

val drops : counter
val duplicates : counter
val delays : counter
val corruptions : counter
val crashes : counter

(** {2 Crash recovery ([recovery])} *)

val partitions : counter  (** Partition intervals that came into force. *)

val heals : counter  (** Partition intervals that ended. *)

val checkpoints : counter  (** Node states snapshotted at crash time. *)

val restores : counter  (** Recovering nodes that restored a checkpoint. *)

val quarantines : counter
(** Corrupted copies detected by an integrity digest. *)

val dead_letters : counter  (** Copies that arrived at a crashed receiver. *)

(** {2 Supervision ([supervision])} *)

val retries : counter
val backoff_rounds : counter
val degradations : counter

val attempts : counter
(** Supervised attempts, including the first of each run. *)

(** {2 Network decomposition ([decomposition])} *)

val decompositions : counter
val decomposition_failures : counter

(** {2 Asynchronous executors ([async])} *)

val timeouts : counter  (** Adaptive-mode async deadlines that fired. *)

val retransmits : counter  (** Payload copies re-sent after a nack. *)

val acks : counter  (** Synchronizer-mode per-copy acknowledgements. *)

val barriers : counter  (** Local round barriers completed. *)

val control_msgs : counter
(** Control-plane messages (acks, safes, nacks) — metered separately from
    [messages], which counts payload copies only, so the conservation
    invariant is executor-independent. *)

val late_letters : counter
(** Copies arriving after their slot closed (adaptive mode); a subset of
    [dead_letters]. *)

(** {2 Sketches ([sketch])} *)

val sketch_adds : counter  (** Items recorded into {!Ls_sketch} sketches. *)

val sketch_merges : counter  (** Sketch merge operations (CMS and bottom-k). *)

val sketch_evictions : counter
(** Bottom-k keys displaced after admission — a saturation signal. *)

(** {2 Worker processes ([shards])} *)

val shard_spawns : counter  (** Worker processes forked by {!Ls_shard}. *)

val shard_restarts : counter
(** Workers re-forked after a death ([kill -9], crash, hang). *)

val shard_probes : counter
(** Supervisor liveness probes fired on heartbeat silence.  Wall-clock
    driven, so scheduling-dependent like [per_domain]. *)

(** {2 Serving engine ([serve])} *)

val serve_cache_misses : counter
val serve_cache_evictions : counter
val serve_requests : counter
(** Requests admitted by the {!Ls_serve} engine. *)

val serve_batches : counter  (** Engine batch executions. *)

val serve_coalesced : counter
(** Requests that shared a compiled instance with an earlier request in
    the same batch (same-model coalescing). *)

val serve_cache_hits : counter  (** Instance/plan LRU hits. *)

val serve_rejections : counter
(** Requests rejected [Overloaded] by admission control.  Timing-
    dependent, so {e not} covered by the determinism contract. *)

(** {2 Serving robustness ([serve-robustness])} *)

val serve_expired : counter
(** Requests answered [Expired]: their deadline elapsed in the admission
    queue.  Timing-dependent, like rejections. *)

val serve_snapshot_hits : counter
(** Cache hits on entries restored from a warm-start snapshot. *)

val serve_drains : counter  (** Graceful drains completed (SIGTERM path). *)

(** {2 Resource faults ([resource-faults])} *)

val sysfaults : counter
(** Syscall faults injected through the {!Ls_shard.Sysio} hook (ENOSPC,
    EMFILE, EAGAIN, short writes, synthetic EINTR). *)

val degraded_enters : counter
(** Subsystems that entered a degraded mode ({!Health}). *)

val degraded_exits : counter
(** Subsystems that recovered to ok.  At a clean daemon exit, enters =
    exits — the pairing invariant the chaos suite checks. *)

val fork_retries : counter
(** [fork] attempts retried after [EAGAIN] (consume backoff, not restart
    budget). *)

val ckpt_skips : counter
(** Checkpoint writes skipped after a disk fault — the shard continued
    checkpoint-free on its last good checkpoint. *)

val serve_snapshot_failures : counter
(** Serve cache-snapshot writes that failed (circuit-breaks snapshotting
    with capped retry-after). *)

val serve_shed : counter
(** Accept-backoff windows entered after [EMFILE]/[ENFILE]: new
    connections wait in the backlog while existing ones are served. *)

(** {1 Latency and pool utilization} *)

val record_latency : float -> unit
(** Bucket a virtual link latency into {!snapshot.latency_hist}. *)

val record_batch : items:int -> per_worker:int array -> unit
(** Record one {!Ls_par} fan-out.  The whole pool-utilization group
    (batches, items, max_queue, per_domain) is updated atomically with
    respect to {!snapshot} and {!reset}: a reader never observes the
    batch count without its per-domain split. *)

(** {1 Reading} *)

type pool = {
  batches : int;  (** Parallel fan-outs executed by {!Ls_par}. *)
  items : int;  (** Work items across all batches. *)
  max_queue : int;  (** Largest batch installed (initial queue depth). *)
  per_domain : int array;
      (** Items executed per domain index (0 = the submitting domain).
          The only scheduling-dependent field. *)
}

type snapshot = private {
  counts : int array;  (** Counter values by registry slot; read with {!get}. *)
  latency_hist : int array;
      (** Virtual link-latency histogram: buckets doubling from 0.25
          virtual time units, the last one open-ended. *)
  pool : pool;
}
(** An immutable, marshalable value ({!Ls_shard} ships it between
    processes).  Slots follow the registry's name order, never the order
    of recording. *)

val counters : counter list
(** The registry, in name order. *)

val name : counter -> string
(** The counter's snake_case name, as [--metrics] prints it. *)

val get : snapshot -> counter -> int

val snapshot : unit -> snapshot
val reset : unit -> unit

val empty : snapshot
(** The all-zero snapshot — what {!snapshot} reads right after {!reset},
    and the identity of {!absorb}. *)

val absorb : snapshot -> unit
(** Merge a snapshot into the live counters: every counter adds, as do
    [batches] and [items]; [max_queue] takes the max and
    [per_domain]/[latency_hist] add index-wise.  This is how {!Ls_shard}
    folds a worker process's counter delta — the worker {!reset}s its
    (forked, private) copy, runs, {!snapshot}s, and ships the result to
    the parent.  No-op while disabled. *)

val print : out_channel -> snapshot -> unit
(** Human-readable summary table (the [--metrics] output): a [metrics:]
    header, then one line per display group that has a non-zero counter
    — [  group: name value  name value ...] in declaration order — then
    the non-empty latency buckets and the [pool:] line. *)
