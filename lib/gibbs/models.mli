(** The joint-distribution families from the paper's application section.

    Each constructor returns a pairwise {!Spec.t}; uniqueness thresholds are
    provided where the paper cites them:

    - hardcore (weighted independent sets) with fugacity [λ], uniqueness at
      [λ_c(Δ) = (Δ−1)^{Δ−1}/(Δ−2)^Δ] (Weitz);
    - anti-ferromagnetic 2-spin systems [(β, γ, λ)] and the Ising
      specialization, zero-field uniqueness at [β_c(Δ) = (Δ−2)/Δ];
    - proper [q]-colorings and list colorings, with the triangle-free bound
      [q ≥ α·Δ], [α > α* ≈ 1.7632] where [α* = e^{1/α*}] (Gamarnik–Katz–
      Misra). *)

val hardcore : Ls_graph.Graph.t -> lambda:float -> Spec.t
(** Hardcore model: [σ_v ∈ {0, 1}], weight [λ^{|σ|}] on independent sets;
    value 1 = occupied. *)

val hardcore_uniqueness_threshold : int -> float
(** [λ_c(Δ)]; [infinity] for [Δ ≤ 2]. *)

val two_spin :
  Ls_graph.Graph.t -> beta:float -> gamma:float -> lambda:float -> Spec.t
(** General 2-spin system: edge weight matrix [\[\[β, 1\], \[1, γ\]\]],
    external field [λ] on spin 1.  Anti-ferromagnetic iff [βγ < 1]. *)

val ising : Ls_graph.Graph.t -> beta:float -> field:float -> Spec.t
(** Ising: [two_spin ~beta ~gamma:beta ~lambda:field]; [β < 1] is
    anti-ferromagnetic. *)

val ising_uniqueness_threshold : int -> float
(** Zero-field anti-ferro Ising uniqueness: [β_c(Δ) = (Δ−2)/Δ]; uniqueness
    holds for [β > β_c].  Returns [0.] for [Δ ≤ 2]. *)

val potts : Ls_graph.Graph.t -> q:int -> beta:float -> Spec.t
(** [q]-state Potts model: edge weight [β] for equal neighboring spins and
    1 otherwise.  [β > 1] is ferromagnetic, [β < 1] anti-ferromagnetic;
    [β = 0] degenerates to proper [q]-colorings. *)

val potts_uniqueness_threshold : q:int -> delta:int -> float
(** Anti-ferromagnetic Potts uniqueness on the [Δ]-regular tree:
    [β_c = (Δ − q)/Δ] (0 when [q ≥ Δ]); uniqueness for [β > β_c]. *)

val coloring : Ls_graph.Graph.t -> q:int -> Spec.t
(** Uniform proper [q]-colorings. *)

val list_coloring : Ls_graph.Graph.t -> q:int -> lists:int list array -> Spec.t
(** Proper colorings where vertex [v] may only use colors in
    [lists.(v) ⊆ {0..q-1}]. *)

val coloring_alpha_star : float
(** [α* ≈ 1.7632], the positive root of [x = e^{1/x}]. *)

val weighted_independent_set :
  Ls_graph.Graph.t -> vertex_lambda:(int -> float) -> Spec.t
(** Non-uniform hardcore: per-vertex fugacities. *)
