(** Chain-rule sampling from an inference oracle (Theorem 3.2, SLOCAL part).

    Scanning the nodes in an adversarial order, each free vertex draws its
    value from the oracle's marginal conditioned on everything sampled so
    far; pinned vertices copy [τ].  Run with a per-site oracle error
    [δ/n], the output distribution [μ̂] satisfies [d_TV(μ̂, μ^τ) ≤ δ]
    (coupling argument in the proof of Theorem 3.2).  The SLOCAL locality
    equals the oracle radius. *)

val sample :
  Inference.oracle ->
  Instance.t ->
  order:int array ->
  rng:Ls_rng.Rng.t ->
  int array
(** One sample.  Every function here checks [order] ({!Chain.check_order}). *)

val sample_slocal :
  Inference.oracle ->
  Instance.t ->
  order:int array ->
  seed:int64 ->
  int array * int
(** Same, executed on the locality-enforcing {!Ls_local.Slocal} runtime
    with per-node random streams; returns the sample and the certified
    SLOCAL locality. *)

val output_distribution :
  Inference.oracle -> Instance.t -> order:int array -> (int array * float) list
(** The {e exact} distribution [μ̂] of {!sample} (all random choices
    enumerated) — this is the quantity [μ̂τ] of Claim 4.5.  Exponential in
    the number of free vertices; tiny instances only. *)

val chain_rule_probability :
  Inference.oracle -> Instance.t -> order:int array -> int array -> float
(** [μ̂(σ) = Π_i μ̂^{τ ∧ σ^{i-1}}_{v_i}(σ_{v_i})] for a total [σ]
    consistent with the pinning — the quantity the JVV rejection step
    needs; 0 when [σ] disagrees with the pinning. *)
