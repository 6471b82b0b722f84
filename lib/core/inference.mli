(** Approximate inference in the LOCAL model.

    An {!oracle} packages a marginal estimator with its LOCAL time
    complexity [radius]: calling [infer inst v] must only depend on the
    radius-[radius] ball around [v] — the invariant the reductions of §3–4
    rely on (two instances agreeing on that ball receive identical
    answers).  The constructors here provide:

    - {!exact}: the whole-graph exact marginal (radius = diameter), the
      ground-truth oracle used to isolate reduction error in experiments;
    - {!ssm_oracle}: the Theorem 5.1 algorithm for locally admissible local
      Gibbs distributions — gather [B_{t+ℓ}(v)], extend [τ] to a locally
      feasible configuration [τ'] on the annulus
      [Γ = B_{t+ℓ}(v) \ (B_t(v) ∪ Λ)], and return the ball marginal
      [μ^{τ'}_v] computed from [w_B].  Its total-variation error is the SSM
      rate [δ_n(t)] — measured empirically in experiment E5. *)

type oracle = {
  radius : int;
      (** LOCAL time complexity: [infer inst v] reads only
          [B_radius(v)]. *)
  infer : Instance.t -> int -> Ls_dist.Dist.t;
      (** Marginal estimate [μ̂^τ_v]; a point mass when [v] is pinned.
          [inst] may be a {!Chain}'s live pinning: an oracle must not keep
          it after it returns, nor write to it.  Every oracle here and
          {!Boosting.boost} only read it (boosting pins its own chain). *)
}

val exact : Instance.t -> oracle
(** Radius = graph diameter; exact [μ^τ_v].  Raises [Failure] on infeasible
    instances. *)

val ssm_oracle : t:int -> Instance.t -> oracle
(** The Theorem 5.1 construction with ball parameter [t]; its radius is
    [t + 2ℓ] where [ℓ] is the spec's locality. *)

val ssm_infer : t:int -> Instance.t -> int -> Ls_dist.Dist.t
(** One-shot version of {!ssm_oracle}. *)

val saw_oracle : depth:int -> Instance.t -> oracle
(** Weitz's self-avoiding-walk tree algorithm ({!Ls_gibbs.Saw}) packaged
    as an inference oracle — only for binary pairwise specs (hardcore,
    Ising, 2-spin).  A depth-[d] walk sees exactly [B_d(v)], so the
    radius is [depth].  Its error, like {!ssm_oracle}'s, is governed by
    the SSM rate; its cost is [O(Δ^depth)] independent of ball volume,
    making it the better engine on high-degree graphs.  On infeasible
    views it answers uniform (certifiably visible in the error curves,
    matching {!ssm_oracle}'s fallback).

    Each [infer] call walks the weight tables of its own instance's
    spec ({!Ls_gibbs.Spec.tables}, built when that spec was created), so
    nothing is built per call or per oracle.  Raises [Invalid_argument]
    on a negative depth or a spec that is not binary pairwise. *)

val annulus : Instance.t -> v:int -> t:int -> int array
(** [Γ = B_{t+ℓ}(v) \ (B_t(v) ∪ Λ)], sorted by id — exposed for the
    boosting construction (Lemma 4.1) which pins the same annulus. *)

val locally_feasible_extension :
  Instance.t -> vertices:int array -> Ls_gibbs.Config.t option
(** Extend the instance pinning to the given vertices so the result stays
    locally feasible, committing vertices in id order (the sequential local
    oblivious procedure of Remark 2.3).  Falls back to limited backtracking
    if the oblivious pass gets stuck; [None] if no extension exists. *)
