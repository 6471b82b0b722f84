(** The boosting lemma (Lemma 4.1): additive → multiplicative error.

    Given an approximate-inference oracle [A⁺] with small total-variation
    error, the algorithm [A×] at node [v]:

    + enumerates the annulus [Γ = B_{t+ℓ}(v) \ (B_t(v) ∪ Λ)] in id order
      [v₁ … v_m];
    + pins each [v_i] to the {e most likely} value under [A⁺] run on the
      instance extended so far (maximizing the marginal keeps every
      intermediate configuration feasible — the Claim inside Lemma 4.1);
    + returns the {e exact} ball marginal [μ^{τ_m}_v] on [B_{t+ℓ}(v)],
      well-defined by conditional independence (Proposition 2.1).

    The result has multiplicative error [ε] whenever [A⁺] has
    total-variation error [ε/(5qn)]; experiment E3 measures this. *)

val boost : Inference.oracle -> Instance.t -> Inference.oracle
(** [boost aplus inst0] is [A×]; its radius is [2t + ℓ] for
    [t = aplus.radius]. *)
