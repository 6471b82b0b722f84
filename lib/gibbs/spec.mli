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

(** The weights of a pairwise spec, laid out once by {!create_pairwise}
    for every kernel to read: [n·q + 2m·q²] floats, [n + 1 + 4m] ints
    and [q] flags, computed in one O(n + m) pass.
    Directed adjacency slot [s] in [off.(u) .. off.(u + 1) - 1] is the
    edge [u → dst.(s)], in the sorted order of [Graph.neighbors g u], so
    [s - off.(u)] is the rank of that edge in [u]'s row.  Never written
    after creation, so one spec serves any number of domains at once. *)
type tables = private {
  vertex : float array;  (** [vertex.(v·q + c) = vertex_weight v c]. *)
  off : int array;  (** Row offsets, length [n + 1]. *)
  dst : int array;  (** Destination of each slot. *)
  edge : float array;
      (** [edge.((s·q + cu)·q + cw)]: the weight of slot [s = u → w] with
          [u] (the row vertex) coloured [cu] and [w] coloured [cw], i.e.
          [edge_weight] with its endpoints in id order; the slots [u → w]
          and [w → u] hold transposed matrices. *)
  rev : int array;
      (** [rev.(s)]: the rank of [u] in [w]'s row for slot [u → w], so
          [off.(w) + rev.(s)] is the reverse slot. *)
  live : bool array;
      (** [live.(c)], one flag per colour, all false unless [q = 2]: no
          node of any SAW tree ({!Saw}) can see spin [c]'s weight vanish
          or leave the float range.  True when every [vertex_weight u c]
          and every entry [edge.((s·2 + c)·2 + cw)] of the row of [c] is
          at least [L > 0], every table entry is at most [U ≤ 2^26], and
          [L·(L/2U)^(Δ+1) ≥ 2^-70] with [Δ] the maximum degree; {!Saw}
          derives the bound.  Hardcore at [λ ≤ 1] and [Δ ≤ 69]: spin 0
          only; Ising and two-colour Potts with moderate positive
          weights: both. *)
}

type t

val create : Ls_graph.Graph.t -> q:int -> factors:factor list -> t
(** General constructor; computes locality as the max scope diameter. *)

val create_pairwise : Ls_graph.Graph.t -> q:int -> pairwise -> t
(** Pairwise constructor: fills the spec's {!tables}, calling
    [vertex_weight] once per (vertex, colour) and [edge_weight] once per
    (edge, colour pair) and never again, and materializes one vertex
    factor per vertex and one edge factor per edge whose [table]s index
    those tables; locality is 1.  Raises [Invalid_argument] naming the
    first weight that is negative, infinite or NaN, and when a factor is
    evaluated at a value outside the alphabet. *)

val graph : t -> Ls_graph.Graph.t
val q : t -> int
val locality : t -> int
(** [ℓ = max_{(f,S)} diam_G(S)] (0 when all scopes are singletons). *)

val factors : t -> factor array
val factors_of_vertex : t -> int -> int array
(** Indices into {!factors} of the constraints whose scope contains [v]. *)

val tables : t -> tables option
(** The weight tables when the spec was built by {!create_pairwise}. *)

val as_pairwise : t -> pairwise option
(** The closures a pairwise spec was built from.  Library kernels read
    {!tables}; these serve reference implementations. *)

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

val peak : float array -> int -> int -> float
(** [peak a pos len]: the left fold of {!fmax} from [0.] over
    [a.(pos) .. a.(pos + len - 1)].  One call per slice: under [-opaque]
    (dune's dev profile) a call into another module is never inlined and
    boxes its float arguments and result, so a kernel that called
    {!fmax} once per element would allocate per element. *)

val fmax : float -> float -> float
(** [Float.max] without its [sign_bit] C calls: NaN when either argument
    is NaN, the larger one otherwise, and either zero when both are
    zeros.  The kernels rescale a weight vector by its peak under this
    max; they divide by the peak only when it is positive, so their
    bits are the same as under [Float.max]. *)
