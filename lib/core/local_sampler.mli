(** Approximate sampling in the LOCAL model (Theorem 3.2).

    The chain-rule SLOCAL sampler compiled through the network-decomposition
    scheduler of Lemma 3.1: the realized ordering [π] comes from the
    Linial–Saks decomposition of [G^{r+1}] ([r] = oracle radius), every node
    draws from its own random stream, and nodes the truncated decomposition
    failed to cluster report [F_v = 1].  Conditioned on no failure the
    output follows exactly the SLOCAL sampler's distribution [μ̂_{I,π}],
    whose total-variation distance to [μ^τ] is at most [n] times the
    oracle's per-site error.

    Round complexity (charged, not just claimed):
    [O(r log² n)] — decomposition plus [Σ_colors 2(R_c (r+1) + r)]. *)

type result = {
  sigma : int array;  (** The sample (defined even at failed nodes). *)
  failed : bool array;  (** [F_v]: decomposition and communication failures. *)
  success : bool;  (** No node failed. *)
  rounds : int;  (** LOCAL rounds charged. *)
  stats : Ls_local.Scheduler.stats;
  resilience : Ls_local.Resilient.report option;
      (** Supervision report of {!sample_resilient}; [None] for {!sample}. *)
}

val sample :
  Inference.oracle ->
  ?trace:Ls_obs.Trace.t ->
  Instance.t ->
  seed:int64 ->
  result
(** One LOCAL execution: fresh decomposition randomness and fresh per-node
    sampling streams, both derived from [seed] but independent of each
    other.  Decomposition stats are emitted to [trace] (or the ambient
    sink, see {!Ls_obs.Trace}).  Equivalent to
    [sample_planned oracle ~plan:(plan oracle inst ~seed) inst ~seed]. *)

val plan : Inference.oracle -> Instance.t -> seed:int64 -> Ls_local.Scheduler.plan
(** The compilation half of {!sample} alone: the decomposition and the
    realized ordering, driven by stream 0 of [seed]'s split — no payload
    runs, nothing is traced.  The plan is a pure function of
    (oracle radius, instance graph, seed), so the serving engine caches it
    keyed on the canonical request hash. *)

val sample_planned :
  Inference.oracle ->
  plan:Ls_local.Scheduler.plan ->
  ?trace:Ls_obs.Trace.t ->
  Instance.t ->
  seed:int64 ->
  result
(** The execution half of {!sample} against a (possibly cached) plan:
    re-derives the node streams 1..n from [seed] and runs the chain-rule
    payload on the plan's ordering.  [sample_planned ~plan:(plan o i ~seed)]
    is bit-identical to [sample] — streams are pure per (seed, index), so
    splitting the call in two consumes the same draws in the same order. *)

val sample_resilient :
  Inference.oracle ->
  ?policy:Ls_local.Resilient.policy ->
  ?faults:Ls_local.Faults.t ->
  ?trace:Ls_obs.Trace.t ->
  ?async:Ls_local.Async.t ->
  Instance.t ->
  seed:int64 ->
  result
(** {!sample} supervised on a faulty network by
    {!Ls_local.Resilient.supervise}, the attempt loop it shares with
    {!Jvv.run_local_resilient}.  Each attempt floods every node's
    radius-[t] ball over a {!Ls_local.Network} carrying [faults]; nodes
    that crashed or whose flooded view is incomplete are communication
    failures, OR-ed into [failed].  Failed attempts are retried per
    [policy] with exponential backoff (charged to [rounds], along with
    every attempt's scheduler and flooding rounds); when the budget runs
    out the best partial sample is returned with [resilience] marked
    degraded — graceful degradation, not an exception.  Under
    [Faults.none] the attempt succeeds immediately and the output law is
    that of {!sample}.

    [async] floods over the event-driven executor ({!Ls_local.Async})
    instead of the synchronous one: in synchronizer mode the execution is
    bit-identical; in adaptive mode a misfired timeout surfaces as an
    incomplete view — one more transient communication failure to retry,
    never a wrong answer, so the Las Vegas guarantee is preserved. *)
