(** Exact computations by exhaustive enumeration (with pruning).

    These are the ground-truth engines: partition functions, joint
    distributions, conditional marginals, and the ball-restricted marginals
    [μ_v(c) = Σ_{σ ∈ C, σ_v = c} w_B(σ) / Σ_{σ ∈ C} w_B(σ)] that the
    paper's inference algorithms (§4.1, §5) compute inside a gathered ball.
    Cost is [O(q^{#free})]; callers keep the free region small (tiny whole
    instances for validation, radius-bounded balls in the algorithms). *)

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
    vanishes.  Only the factors of member vertices are visited, so apart
    from one copy of [tau] the set-up costs the set, not the spec.  The
    configuration passed to [f] is a scratch buffer — copy it if you keep
    it. *)

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
    algorithms of Lemma 4.1 and Theorem 5.1.  Raises [Invalid_argument]
    when [v] is not in [ball] or [ball] repeats a vertex. *)

val count_feasible : Spec.t -> int
(** Number of feasible total configurations — [Z] for hard-constraint
    (Boolean-factor) specs. *)
