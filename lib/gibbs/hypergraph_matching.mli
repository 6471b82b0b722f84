(** Weighted hypergraph matchings, via intersection-graph duality.

    A matching of a hypergraph [H] with activity [λ] per hyperedge is the
    hardcore model with fugacity [λ] on the intersection graph of [H].
    Song–Yin–Zhao prove SSM up to [λ_c(r, Δ) = (Δ−1)^{Δ−1} /
    ((r−1)(Δ−2)^Δ)] where [r] is the rank and [Δ] the max vertex degree;
    the paper's application E10 samples up to that threshold. *)

type t = {
  spec : Spec.t;  (** Hardcore([λ]) on the intersection graph. *)
  hypergraph : Ls_graph.Hypergraph.t;
  lambda : float;
}

val make : Ls_graph.Hypergraph.t -> lambda:float -> t

val uniqueness_threshold : rank:int -> delta:int -> float
(** [λ_c(r, Δ)]; [infinity] when [Δ ≤ 2] or [r ≤ 1]. *)
