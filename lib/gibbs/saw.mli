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
    scratch stamped with one epoch per call, so a call reads and writes
    only [B_depth(v)] and allocates a few words of fixed size and the
    result; the scratch grows once per domain to the largest [n] seen.
    Per tree node it allocates nothing and calls no closure. *)

val supported : Spec.t -> bool
(** True for pairwise specs over a binary alphabet. *)

val marginal : depth:int -> Spec.t -> Config.t -> int -> Ls_dist.Dist.t option
(** [marginal ~depth spec tau v]: root marginal of the depth-truncated SAW
    tree of [v] under the pinning [tau].  Exact when [depth ≥ n]; [None]
    when every spin has weight 0 (infeasible pinning at the root's view).
    Raises [Invalid_argument] when the spec is not a binary pairwise
    spec, on a negative depth, on a [tau] whose length is not the spec's
    [n], or when the walk meets a pinned value outside [{0, 1}] (pins the
    walk never reaches are not read).

    To use it as a LOCAL inference oracle see
    [Ls_core.Inference.saw_oracle] (a walk of length [depth] sees exactly
    [B_depth(v)], so the oracle radius is [depth]). *)
