(** The SLOCAL → LOCAL compiler (Lemma 3.1, after Ghaffari–Kuhn–Maus).

    Given an SLOCAL algorithm with locality [r], compute a Linial–Saks
    decomposition of the power graph [G^{r+1}] — implicitly: [G^{r+1}] is
    never built, every ball of it is one host-graph ball of [r+1] times
    its radius ({!Ls_graph.Graph.iter_power_ball}), so a plan costs O(n)
    memory however dense [G^{r+1}] is — and process color classes
    sequentially; within a color class all clusters run in parallel (they
    are [> r]-separated in [G], so concurrent steps cannot interact), and
    within a cluster the nodes are processed sequentially by the cluster
    center.  The resulting global order [π] is (color, cluster, BFS-from-
    center position); the payload runs exactly as the sequential algorithm
    would on [π], so conditioned on no failure the output distribution is
    [μ̂_{I,π}] — the property Lemma 3.1 needs.

    Failures: vertices left unclustered by the truncated decomposition get
    [F''_v = 1].  The decomposition uses its own random stream, independent
    of the payload's node streams, so [F''] is independent of the payload
    output, again as in Lemma 3.1.

    Round accounting, charged to the network: color class [c] costs
    [2·(R_c·(r+1) + r)] rounds — the center collects the states in its
    cluster plus the radius-[r] halo ([R_c] hops in [G^{r+1}], each worth
    [r+1] rounds in [G], plus [r]), computes, and ships results back — plus
    the decomposition itself, charged [phase_cap · radius_cap · (r+1)]
    rounds (each phase is one candidate election of depth [radius_cap] in
    [G^{r+1}]). *)

type stats = {
  rounds : int;  (** Total LOCAL rounds charged (decomposition + simulation). *)
  decomposition_rounds : int;
  colors : int;
  clusters : int;
  max_cluster_radius : int;  (** In power-graph hops. *)
  failures : int;  (** Number of [F''_v = 1] vertices. *)
  order : int array;  (** The realized global ordering [π] (failed vertices appended last). *)
  failed : bool array;
}

type plan = {
  p_locality : int;
  p_order : int array;
      (** The realized global ordering [π] (failed vertices appended last). *)
  p_failed : bool array;
  p_rounds : int;
  p_decomposition_rounds : int;
  p_colors : int;
  p_clusters : int;
  p_max_cluster_radius : int;
  p_failures : int;
}
(** A compiled schedule: the expensive half of {!compile} — Linial–Saks
    decomposition of the implicit [G^{r+1}], realized ordering, round
    bill — detached
    from any payload.  A plan is a pure function of
    [(graph, locality, rng draw sequence, caps)] and holds no reference to
    the graph, so it can be cached and replayed against many payloads
    (the serving engine keys an LRU of plans on the canonical request
    hash). *)

val compile_plan :
  graph:Ls_graph.Graph.t ->
  locality:int ->
  rng:Ls_rng.Rng.t ->
  ?radius_cap:int ->
  ?phase_cap:int ->
  unit ->
  plan
(** Build the schedule only; no payload runs, nothing is traced.  Consumes
    exactly the same draws from [rng] as {!compile} does. *)

val run_plan : plan -> ?trace:Ls_obs.Trace.t -> run:(order:int array -> unit) -> unit -> stats
(** Execute a payload against a (possibly cached) plan: invokes
    [run ~order] once, then emits the Decomposition trace event and
    metrics, exactly as {!compile} would — a cache hit is observationally
    identical to a fresh compilation. *)

val compile :
  graph:Ls_graph.Graph.t ->
  locality:int ->
  rng:Ls_rng.Rng.t ->
  ?radius_cap:int ->
  ?phase_cap:int ->
  ?trace:Ls_obs.Trace.t ->
  run:(order:int array -> unit) ->
  unit ->
  stats
(** [compile ~graph ~locality ~rng ~run ()] builds the schedule and invokes
    [run ~order] once with the realized ordering; the caller's closure
    executes its SLOCAL payload on that order.  Failed vertices appear at
    the end of [order] so the payload still produces a total output (their
    outputs are discarded by the failure flags, as in the paper's model
    where failures only gate the conditional guarantee).  The realized
    decomposition stats are emitted to [trace] (or the ambient sink).
    Equivalent to [run_plan (compile_plan ...) ~trace ~run ()]. *)
