(** Gibbs distributions [(G, Σ, F)] — Definition 2.3 of the paper.

    A specification is a graph, an alphabet size [q], and a collection of
    constraints (factors) [(f, S)] with scope [S ⊆ V] and non-negative table
    [f : Σ^S → R≥0].  The weight of a full configuration is
    [w(σ) = Π_{(f,S)} f(σ_S)], and the Gibbs distribution is [μ(σ) =
    w(σ)/Z].  A spec is {e local} (Definition 2.4) when every scope has
    bounded diameter in [G]; the constructor computes that locality [ℓ].

    Pairwise specs — one factor per vertex and one per edge — cover every
    model in the paper's application section and unlock the exact forest
    dynamic programming of {!Forest_dp}. *)

type factor = {
  scope : int array;  (** Sorted distinct vertices. *)
  table : int array -> float;
      (** Weight of an assignment to the scope, values listed in scope
          order.  Must be non-negative. *)
}

type pairwise = {
  vertex_weight : int -> int -> float;  (** [vertex_weight v c]. *)
  edge_weight : int -> int -> int -> int -> float;
      (** [edge_weight u v cu cv] with [u < v]. *)
}

type t

val create : Ls_graph.Graph.t -> q:int -> factors:factor list -> t
(** General constructor; computes locality as the max scope diameter. *)

val create_pairwise : Ls_graph.Graph.t -> q:int -> pairwise -> t
(** Pairwise constructor: materializes one vertex factor per vertex and one
    edge factor per edge; locality is 1. *)

val graph : t -> Ls_graph.Graph.t
val q : t -> int
val locality : t -> int
(** [ℓ = max_{(f,S)} diam_G(S)] (0 when all scopes are singletons). *)

val factors : t -> factor array
val factors_of_vertex : t -> int -> int array
(** Indices into {!factors} of the constraints whose scope contains [v]. *)

val as_pairwise : t -> pairwise option
(** The pairwise structure when the spec was built by
    {!create_pairwise}. *)

val factor_value : t -> int -> Config.t -> float option
(** [factor_value spec i tau] evaluates factor [i] when its scope is fully
    assigned under [tau]; [None] otherwise. *)

val weight : t -> Config.t -> float
(** [w(σ)] of a total configuration (eq. 1). *)

val log_weight : t -> Config.t -> float
(** [ln w(σ)]: [log (weight σ)] when that product is a positive normal
    float, else the sum of the factors' logs — finite wherever every
    factor is positive, even when the product under- or overflows. *)

val weight_in : t -> member:(int -> bool) -> Config.t -> float
(** [w_B(σ) = Π_{(f,S) : S ⊆ B} f(σ_S)] — the ball-restricted weight used
    throughout §4–5.  Every vertex of [B] must be assigned. *)

val locally_feasible : t -> Config.t -> bool
(** Definition 2.5: no constraint with fully-assigned scope evaluates
    to 0. *)

val conditional : t -> Config.t -> int -> Ls_dist.Dist.t option
(** Heat-bath (Glauber) conditional of [v] given [tau] on the rest:
    [μ_v^{τ}(c) ∝ Π_{(f,S) ∋ v} f]; requires every other vertex of every
    scope containing [v] to be assigned.  [None] when every value has
    weight 0 (i.e. [tau] off-support). *)
