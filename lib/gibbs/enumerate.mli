(** Exact computations by exhaustive enumeration (with pruning).

    These are the ground-truth engines: partition functions, joint
    distributions, conditional marginals, and the ball-restricted marginals
    [μ_v(c) = Σ_{σ ∈ C, σ_v = c} w_B(σ) / Σ_{σ ∈ C} w_B(σ)] that the
    paper's inference algorithms (§4.1, §5) compute inside a gathered ball.
    Cost is [O(q^{#free})]; callers keep the free region small (tiny whole
    instances for validation, radius-bounded balls in the algorithms).

    One enumerator serves every entry point.  Its set-up visits only the
    factors of the set's vertices, over {!Ls_graph.Stamp} scratch, and
    builds two things: the product of the factors [tau] already fixes, and
    for each free vertex the list of factors that assigning it completes,
    each resolved once (a pairwise factor to its entry in {!Spec.tables},
    a general one to its closure, scope sources and one reused values
    buffer).  The search then multiplies in one list per assignment and
    keeps its partial weights in a float array, so a node costs its
    list's table reads and no allocation.  The set-up allocates words in
    the size of the set, never in n, except where {!fold_completions}
    hands [f] a whole configuration (one copy of [tau]).  The products
    are taken in a fixed order, which the output bits depend on: the
    fixed factors in ascending factor id, then each assignment's list in
    {!Spec.factors_of_vertex} order. *)

val fold_completions :
  Spec.t ->
  members:int array ->
  Config.t ->
  init:'a ->
  f:('a -> Config.t -> float -> 'a) ->
  'a
(** Enumerate all assignments [σ] to the vertices of [members] (the set
    [B], sorted and distinct, else [Invalid_argument]) that are consistent
    with [tau] on already-assigned members, and call [f acc σ w] with
    [w = w_B(σ) = Π_{(f,S) : S ⊆ B} f(σ_S)] for every [σ] of positive
    weight.  Zero-weight branches are pruned as soon as a completed factor
    vanishes.  The configuration passed to [f] is one copy of [tau],
    rewritten in place — copy it if you keep it.  A pairwise spec's
    pinned member holding a value outside the alphabet raises
    [Invalid_argument]. *)

val partition : Spec.t -> Config.t -> float
(** [Z(τ) = Σ_{σ ⊇ τ} w(σ)] over total completions of [tau]. *)

val feasible : Spec.t -> Config.t -> bool
(** Is [tau] feasible w.r.t. [μ], i.e. [Z(τ) > 0]?  (Definition 2.2.) *)

val distribution : Spec.t -> Config.t -> (int array * float) list
(** The conditional joint distribution [μ^τ]: support configurations with
    their probabilities.  Raises [Failure] when [tau] is infeasible. *)

val marginal : Spec.t -> Config.t -> int -> Ls_dist.Dist.t option
(** Exact conditional marginal [μ^τ_v]; [None] when [tau] is infeasible.
    When [v] is assigned by [tau] this is the point mass at [τ_v]. *)

val ball_marginal :
  Spec.t -> ball:int array -> Config.t -> int -> Ls_dist.Dist.t option
(** Marginal of [v] in the ball-restricted measure [w_B] given the pinnings
    of [tau] inside the ball — the quantity computed locally by the
    algorithms of Lemma 4.1 and Theorem 5.1.  [ball] may come in any
    order; a strictly increasing one (as [Graph.ball_dist] returns it) is
    used as it stands, without a sorted copy.  Raises [Invalid_argument]
    when [v] is not in [ball] or [ball] repeats a vertex. *)

val count_feasible : Spec.t -> int
(** Number of feasible total configurations — [Z] for hard-constraint
    (Boolean-factor) specs. *)
