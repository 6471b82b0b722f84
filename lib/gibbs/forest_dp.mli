(** Exact marginals for pairwise specs on forests, by dynamic programming.

    When the subgraph induced by a gathered ball is a forest (always true on
    trees, and true on cycles for radii below half the girth), the
    ball-restricted marginal of {!Enumerate.ball_marginal} can be computed
    in [O(|B| · q²)] instead of [O(q^{|B|})] by bottom-up message passing.
    This is an exactness-preserving speedup — the two engines agree bit-for-
    bit up to floating-point rounding (property-tested) — and it is what
    makes the large-[n] round-complexity sweeps (E5–E9) feasible.

    The kernel works on the ball itself: one pass over per-domain
    {!Ls_graph.Stamp} scratch indexes the set, decides whether it induces
    a forest and runs the sum-product, so its cost is proportional to the
    ball and its boundary edges, never to [n]. *)

type outcome =
  | Not_forest  (** The spec is not pairwise or the ball does not induce a forest. *)
  | Marginal of Ls_dist.Dist.t option
      (** The answer of {!Enumerate.ball_marginal} on the same arguments. *)

val ball_marginal : Spec.t -> ball:int array -> Config.t -> int -> outcome
(** [ball_marginal spec ~ball tau v] is the marginal of [v] in the
    ball-restricted measure [w_B] when the forest DP applies, and
    [Not_forest] otherwise.  Same contract as {!Enumerate.ball_marginal}
    for a pairwise spec: raises [Invalid_argument] when [v] is not in
    [ball] or [ball] repeats a vertex. *)

val marginal : Spec.t -> Config.t -> int -> Ls_dist.Dist.t option
(** Whole-graph marginal when the whole graph is a forest. *)

val log_partition : Spec.t -> Config.t -> float
(** [ln Z(τ)] for a pairwise spec on a forest; [neg_infinity] when [τ] is
    infeasible.  Rescaled per node, so deep trees are safe. *)
