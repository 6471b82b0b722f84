(** Sampling ⇒ inference (Theorem 3.4) and counting via self-reduction.

    The paper reconstructs the marginal of a sampler's output at [v] by
    enumerating the random bits the sampler consumes — exact, but only
    meaningful for bit-level algorithms.  Our samplers consume real-valued
    randomness, so we expose both faces:

    - {!marginal_of_chain_sampler}: the {e exact} output marginal of the
      chain-rule sampler, obtained by enumerating its value choices
      (feasible because the sampler is the chain rule — this is the
      distribution [μ̃_v] of the theorem, computed exactly);
    - {!monte_carlo_marginal}: the estimator any black-box sampler admits,
      with the usual [O(√(q/m))] statistical error on top of the theorem's
      [δ + ε₀] bound.

    The global counting connection (§1): by self-reducibility the partition
    function decomposes through the chain rule,
    [Z(τ) = w(σ) / Π_i μ^{τ∧σ^{i-1}}_{v_i}(σ_{v_i})] for {e any} feasible
    completion [σ] — {!estimate_log_partition} evaluates this with
    approximate marginals, turning local inference into global counting. *)

val marginal_of_chain_sampler :
  Inference.oracle -> Instance.t -> order:int array -> int -> Ls_dist.Dist.t
(** Exact marginal at a vertex of the chain-rule sampler's output
    distribution (tiny instances: enumerates the sampler's choices). *)

val monte_carlo_marginal :
  sample:(Ls_rng.Rng.t -> int array option) ->
  q:int ->
  samples:int ->
  rng:Ls_rng.Rng.t ->
  int ->
  Ls_dist.Dist.t option
(** Estimate a marginal from repeated runs of a black-box sampler
    ([None] results — failed runs — are discarded, as the theorem's
    conditioning does).  Returns [None] if every run failed. *)

val log_partition_via_sampling :
  sample:(Instance.t -> Ls_rng.Rng.t -> int array option) ->
  Instance.t ->
  order:int array ->
  samples:int ->
  rng:Ls_rng.Rng.t ->
  float
(** Counting from a black-box sampler — the classical JVV direction: pick
    a feasible completion [σ], estimate each chain-rule marginal
    [μ^{τ∧σ^{i-1}}_{v_i}(σ_{v_i})] by calling the sampler [samples] times
    on the prefix-pinned instance, and return
    [ln Ẑ = ln w(σ) − Σ_i ln μ̂_i].  Failed sampler runs ([None]) are
    discarded.  Raises [Failure] when an estimated marginal is 0 (increase
    [samples]).  Cost: [O(n · samples)] sampler runs.  [sample] gets a
    {!Chain}'s live pinning, under an oracle's contract: no keeping it,
    no writing to it. *)

val estimate_log_partition :
  Inference.oracle -> Instance.t -> order:int array -> float
(** [ln Ẑ(τ)] via the chain rule along the given order, using the oracle's
    marginals and a greedily constructed feasible completion.  With exact
    marginals this equals [ln Z(τ)] exactly; with approximate marginals the
    error is at most [n·ε] for per-site multiplicative error [ε].  [ln w(σ)]
    is {!Ls_gibbs.Spec.log_weight}, which does not underflow.  Both
    reductions check [order] ({!Chain.check_order}). *)
