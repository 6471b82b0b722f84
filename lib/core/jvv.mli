(** The distributed Jerrum–Valiant–Vazirani sampler (§4.2, Theorem 4.2).

    Exact sampling from approximate inference via {e local rejection
    sampling}.  Three passes over an adversarial order [π = v₁ … v_n]:

    + {b Ground state}: build a feasible [σ₀ ⊇ τ] by pinning each vertex to
      any value of positive approximate marginal.
    + {b Chain-rule sample}: draw [Y ⊇ τ] vertex by vertex from the
      approximate marginals; its law is [μ̂^τ] with
      [μ̂^τ(σ)/μ^τ(σ) ∈ \[e^{−nε}, e^{nε}\]] (Claim 4.5).
    + {b Local rejection}: interpolate [σ₀ → Y] through configurations
      [σ_i] that agree with [Y] on processed vertices and differ from
      [σ_{i−1}] only inside [B_t(v_i)] (existence: Claim 4.6).  Each free
      vertex computes
      [q_{v_i} = (μ̂^τ(σ_{i−1}) w(σ_i)) / (μ̂^τ(σ_i) w(σ_{i−1})) · e^{−3nε}]
      — computable within radius [3t + ℓ] because the [μ̂] ratio telescopes
      to a window [B_{2t}(v_i)] (eq. 11) and the weight ratio to factors
      meeting [B_t(v_i)] (eq. 12) — and {e succeeds} with probability
      [q_{v_i}].

    Conditioned on every node succeeding, the product of acceptance
    probabilities telescopes so that [Pr(Y = σ ∧ success) ∝ w(σ)]: the
    output is {e exactly} [μ^τ] (Lemma 4.8), with success probability
    [≥ e^{−5n²ε}] — i.e. [1 − O(1/n)] at the paper's error budget
    [ε = 1/n³].

    [ε] is the per-site multiplicative error bound of the oracle; when the
    true error exceeds it, some [q_{v_i}] may exceed 1 and get clamped —
    the [clamped] counter reports exactness erosion instead of hiding it. *)

type result = {
  y : int array;  (** The sample [Y]. *)
  ground : int array;  (** The ground state [σ₀]. *)
  failed : bool array;  (** [F'_v]: local rejection (or patch-search failure). *)
  success : bool;  (** No local failure. *)
  clamped : int;  (** Number of [q_{v_i} > 1] events (0 in healthy runs). *)
  acceptance_product : float;  (** [Π q_{v_i}] actually realized. *)
}

val run :
  Inference.oracle ->
  epsilon:float ->
  ?adaptive:bool ->
  Instance.t ->
  order:int array ->
  rng:Ls_rng.Rng.t ->
  result
(** The three-pass SLOCAL algorithm on an explicit order.  [adaptive]
    (default false) replaces the paper's per-vertex slack [e^{−3nε}] by
    [e^{−3|B_{2t}(v_i)|ε}] — the window that actually enters the ratio of
    eq. (11).  The window size does not depend on [Y], so exactness is
    untouched while the success probability improves from [e^{−O(n²ε)}] to
    [e^{−O(Σ|W_i|ε)}]; this design choice is ablated in the benches.
    Every function here taking an [order] checks it ({!Chain.check_order}). *)

type exact_output = {
  conditional : (int array * float) list;
      (** The exact law of [Y] conditioned on success. *)
  success_probability : float;
  total_clamps : int;
}

val output_distribution :
  Inference.oracle ->
  epsilon:float ->
  ?adaptive:bool ->
  Instance.t ->
  order:int array ->
  exact_output
(** The {e symbolic} law of the sampler: enumerate every possible [Y],
    replay the deterministic third pass on it, and aggregate
    [Pr(Y = σ ∧ success) = μ̂(σ)·Π q_{v_i}(σ)].  With zero clamps the
    conditional must equal [μ^τ] {e exactly} (Lemma 4.8) — the test suite
    checks this to 1e-9, a far sharper validation than any Monte Carlo run.
    Exponential in the free-vertex count; tiny instances only. *)

type certified = {
  result : result;
  pass_localities : int list;
      (** Measured locality of each pass: [t; t; 0; 3t+ℓ]. *)
  certified_locality : int;
      (** The Lemma 4.4 single-pass bound [r₁ + 2·Σ r_i = 9t + 2ℓ]. *)
}

val run_certified :
  Inference.oracle ->
  epsilon:float ->
  ?adaptive:bool ->
  Instance.t ->
  order:int array ->
  seed:int64 ->
  certified
(** The three passes executed on the locality-{e enforcing} SLOCAL runtime:
    every state read/write is checked against the declared pass radius
    (t, t, 3t+ℓ — Claims 4.6/4.7), every node draws from its own stream,
    and the chain-rule prefixes are rebuilt from the gathered radius only
    (sound by the oracle's radius contract).  A completed run has therefore
    {e certified} the paper's locality claims, not merely assumed them. *)

val run_local :
  Inference.oracle ->
  epsilon:float ->
  ?trace:Ls_obs.Trace.t ->
  Instance.t ->
  seed:int64 ->
  result * Ls_local.Scheduler.stats
(** Compiled to LOCAL via Lemma 3.1 with single-pass locality
    [r₁ + 2(r₂ + r₃) = 9t + 2ℓ] (Lemma 4.4); decomposition failures [F'']
    are OR-ed into [failed]. *)

type supervised = {
  sresult : result;  (** Best attempt; [failed] includes communication failures. *)
  resilience : Ls_local.Resilient.report;
  total_rounds : int;
      (** Every attempt's scheduler rounds + all flooding + all backoff. *)
}

val run_local_resilient :
  Inference.oracle ->
  epsilon:float ->
  ?policy:Ls_local.Resilient.policy ->
  ?faults:Ls_local.Faults.t ->
  ?trace:Ls_obs.Trace.t ->
  ?async:Ls_local.Async.t ->
  Instance.t ->
  seed:int64 ->
  supervised
(** {!run_local} supervised on a faulty network by
    {!Ls_local.Resilient.supervise}, the attempt loop it shares with
    {!Local_sampler.sample_resilient}: each attempt floods the three pass
    radii [t, t, 3t+ℓ] (Claims 4.6/4.7) — a node that crashed or whose
    flooded view misses part of some pass's ball is a communication
    failure, OR-ed into [failed] — and failed attempts retry per
    [policy] with exponential backoff, everything charged to
    [total_rounds].  Each pass floods for exactly its radius, leaving no
    slack rounds, so message loss genuinely endangers the deadline.
    Budget exhaustion returns the best partial result with a degraded
    [resilience] report.
    Conditional exactness survives faults: communication failures are
    independent of the payload's randomness (the fault plan has its own
    seed), so conditioned on success the output law is still exactly
    [μ^τ]. *)

val run_local_certified :
  Inference.oracle ->
  epsilon:float ->
  Instance.t ->
  seed:int64 ->
  certified * Ls_local.Scheduler.stats
(** {!run_local} with the certified payload: the SLOCAL passes enforce
    their radii while the scheduler's ordering and round accounting wrap
    them — the end-to-end composition of Lemma 3.1 with Claims 4.6/4.7. *)

val theory_epsilon : Instance.t -> float
(** The paper's error budget [1/n³]. *)
