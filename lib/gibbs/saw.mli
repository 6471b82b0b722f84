(** Weitz's self-avoiding-walk (SAW) tree algorithm for 2-spin systems.

    This is the machinery behind the strong-spatial-mixing results the
    paper consumes (Weitz for the hardcore model; Li–Lu–Yin for general
    anti-ferromagnetic 2-spin): the marginal of [v] in [G] equals the root
    marginal of the tree [T_SAW(G, v)] of self-avoiding walks from [v],
    where a walk closing a cycle at an already-visited vertex [u] becomes a
    {e pinned leaf} — occupied if the closing edge exceeds, in [u]'s local
    edge order, the edge through which the walk left [u], unoccupied
    otherwise.  Truncating the tree at depth [t] leaves an error bounded by
    the SSM rate at distance [t].

    This module implements the recursion for any pairwise spec with
    [q = 2] (hardcore, Ising, general 2-spin with arbitrary per-edge
    matrices), handling instance pinnings, truncation, and zero-weight
    edges by carrying marginals as unnormalized [(p₀, p₁)] pairs (no
    divisions by zero at hard constraints).  With [depth ≥ n] the result
    is the {e exact} marginal — property-tested against the enumeration
    engine, which validates the cycle-closing rule itself.

    Cost is the number of self-avoiding walks of length [≤ depth], i.e.
    [O(Δ^depth)] — an alternative inference engine whose work is bounded
    by degree and radius rather than by ball volume.

    The walk reads the spec's weight {!Spec.tables}, built once when
    {!Spec.create_pairwise} made the spec, so every call costs the same,
    the first on a spec included: O(walks), independent of [n].  The path
    marks and exit ranks of the cycle-closing rule live in per-domain
    {!Ls_graph.Stamp} scratch, so a call reads and writes only
    [B_depth(v)] and allocates a few words of fixed size and the result.
    Per tree node it allocates nothing and calls no closure.

    {b Forced roots.}  Hard constraints (hardcore, matchings, 2-colourings)
    often leave a free root one spin: a pinned neighbour whose leaf factor
    [a(s, c, τ_w)] is exactly 0 kills spin [c].  When, at [depth ≥ 1], the
    pins in [v]'s row kill exactly one spin [c] and the spec's flag
    [live.(c')] holds for [c' = 1 - c] ({!Spec.tables}), the call returns
    the point mass on [c'] at a cost of O(deg v), without a walk, and the
    answer is bit for bit the walk's.  Such a call reads only the pins of
    [N(v)]: a pin outside [{0, 1}] in the row makes the walk run (and
    raise, as it does without this test), while one further out is not
    read — {!Ls_core.Instance.create} refuses such pins in any case.

    Why the walk would end with [p_c = 0] and [0 < p_c' < ∞], so that
    [Dist.of_weights] gives exactly the point mass.  [live.(c')] holds
    when every weight that multiplies the [c'] side of a node — the vertex
    weights [w(u, c')] and every slot's row [a(s, c', ·)] — is at least
    [L > 0], every table entry is at most [U ≤ 2^26], and
    [L·(L/2U)^(Δ+1) ≥ 2^-70], [Δ] the maximum degree.  Then at every
    node, after each neighbour's factor and the rescale check:
    - the peak [P = max(p_0, p_1)] lies in [[1e-150, 1e150]]: it starts
      as vertex weights in [[L, U]] (and [L ≥ 2^-69]), and a peak outside
      that range is divided to exactly 1;
    - [p_c' ≥ ρ·P] with [ρ = (L/2U)^(k+1)] after [k ≤ Δ] factors.  A
      leaf factor has [a(s, c', ·) ≥ L] and [a(s, c, ·) ≤ U]; a free
      child's [(q_0, q_1)] enters as [Σ_x a(s, ·, x)·q_x], whose [c']
      side is at least [L/U] times its [c] side whatever the child's
      ratio.  So each factor costs the ratio at most [L/U] exactly, and
      the factor 2 per step absorbs the rounding of the step below.
    No product overflows: [P·2U·1e150 ≤ 2^27·1e300 < 1.8e308].  None
    loses [p_c']: a child's peak is at least [1e-150], so the new
    [p_c' ≥ ρ·L·1e-300 > 2^-1067], a positive float whose rounding
    error, even as a subnormal, is below [2^-8] of it.  Every [p_c'] is
    therefore positive and finite, no node's loop stops early, every
    factor is finite, and the root's [p_c], once multiplied by the exact
    0, stays [+0.].  Hardcore at fugacity [λ ≤ 1] keeps spin 0 live up to
    [Δ = 69]. *)

val supported : Spec.t -> bool
(** True for pairwise specs over a binary alphabet. *)

val marginal : depth:int -> Spec.t -> Config.t -> int -> Ls_dist.Dist.t option
(** [marginal ~depth spec tau v]: root marginal of the depth-truncated SAW
    tree of [v] under the pinning [tau].  Exact when [depth ≥ n]; [None]
    when every spin has weight 0 (infeasible pinning at the root's view).
    Raises [Invalid_argument] when the spec is not a binary pairwise
    spec, on a negative depth, on a [tau] whose length is not the spec's
    [n], or when the walk meets a pinned value outside [{0, 1}] (pins the
    walk never reaches are not read, and a forced root, above, runs no
    walk).

    To use it as a LOCAL inference oracle see
    [Ls_core.Inference.saw_oracle] (a walk of length [depth] sees exactly
    [B_depth(v)], so the oracle radius is [depth]). *)
