(** Instances for distributed sampling/counting (Definition 2.2).

    An instance is [(G, x, τ)]: a labeled graph specifying a Gibbs
    distribution [μ], plus a feasible configuration [τ ∈ Σ^Λ] pinning an
    arbitrary subset of variables.  The target distribution is the
    conditional [μ^τ].  Carrying [τ] explicitly is what enforces
    self-reducibility: pinning more vertices yields another valid
    instance.  {!Chain} pins along an order in place. *)

type t = { spec : Ls_gibbs.Spec.t; pinned : Ls_gibbs.Config.t }

val create : Ls_gibbs.Spec.t -> pinned:Ls_gibbs.Config.t -> t
(** Does not verify feasibility (that costs an enumeration); use
    {!is_feasible} in tests. *)

val unpinned : Ls_gibbs.Spec.t -> t
(** Instance with [Λ = ∅]. *)

val of_pins : Ls_gibbs.Spec.t -> (int * int) list -> t

val n : t -> int
val q : t -> int
val graph : t -> Ls_graph.Graph.t
val locality : t -> int

val is_pinned : t -> int -> bool

val free_vertices : t -> int list

val is_feasible : t -> bool
(** Exhaustive feasibility check ([Z(τ) > 0]); small instances only. *)
