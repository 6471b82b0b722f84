(** Exact-marginal dispatcher.

    Routes marginal queries to the fastest exact engine: the forest dynamic
    program of {!Ls_gibbs.Forest_dp} when the relevant induced subgraph is a
    forest and the spec is pairwise, falling back to pruned enumeration
    otherwise.  Both kernels work on the ball itself, never on an induced
    copy of the graph.  Both engines compute the same quantity (property-tested), so
    callers get exactness regardless of the route — the ablation bench
    measures the speed difference. *)

val marginal : Instance.t -> int -> Ls_dist.Dist.t option
(** Exact conditional marginal [μ^τ_v] on the whole graph. *)

val ball_marginal : Instance.t -> ball:int array -> int -> Ls_dist.Dist.t option
(** Exact marginal of the ball-restricted measure [w_B] (§4.1, §5): one
    call to the forest kernel, which either answers or reports that the
    ball is not a forest, then enumeration.  Raises [Invalid_argument]
    when [v] is not in [ball] or [ball] repeats a vertex. *)

val joint : Instance.t -> (int array * float) list
(** Full conditional distribution [μ^τ] by enumeration (tiny instances). *)

val partition : Instance.t -> float
(** [Z(τ)] by enumeration. *)
