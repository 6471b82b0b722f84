(** Simple undirected graphs.

    Vertices are [0 .. n-1].  The representation is adjacency arrays with
    sorted neighbor lists, built once from an edge list; all algorithms in
    the repository treat graphs as immutable.  This module provides the
    graph-theoretic vocabulary of the paper: distances [dist_G(u,v)], balls
    [B_r(v)], balls of the power graph [G^k] (used by the network
    decomposition of Lemma 3.1, which never materialises [G^k]), induced
    subgraphs (used by ball enumeration), and the
    structural predicates the applications need (max degree, triangle-
    freeness, forest test). *)

type t

val create : n:int -> edges:(int * int) list -> t
(** Build a simple graph: self-loops rejected, duplicate edges collapsed,
    endpoints must lie in [0..n-1]. *)

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of edges. *)

val edges : t -> (int * int) list
(** Edge list with [u < v], sorted. *)

val neighbors : t -> int -> int array
(** Sorted neighbor array.  Do not mutate. *)

val degree : t -> int -> int

val max_degree : t -> int

val mem_edge : t -> int -> int -> bool
(** Adjacency test in O(log degree). *)

val iter_edges : t -> (int -> int -> unit) -> unit
(** Iterate each undirected edge once, as [u < v]. *)

val bfs_distances : t -> int -> int array
(** [bfs_distances g v] gives [dist_G(v, u)] for all [u]; unreachable
    vertices get [max_int]. *)

val distances_from_set : t -> int list -> int array
(** Multi-source BFS: [dist_G(u, S)] for every [u]. *)

val dist : t -> int -> int -> int
(** Pairwise distance ([max_int] when disconnected). *)

val iter_ball : t -> int -> int -> (int -> int -> unit) -> unit
(** [iter_ball g v r f] calls [f u (dist g v u)] once for every [u] in
    [B_r(v)], in BFS order from [v] (so [v] first and distances
    non-decreasing).  The search stops at depth [r] and runs over
    per-domain {!Stamp} scratch, so it costs the size of the ball, not
    [n].  At [r = max_int] the ball is every vertex: those unreachable
    from [v] come last, at distance [max_int]. *)

val iter_power_ball : t -> k:int -> int -> int -> (int -> int -> unit) -> unit
(** [iter_power_ball g ~k v r f] calls [f u d] once for every [u] in
    [B_r(v)] of the power graph [G^k] ([u ~ w] iff
    [1 ≤ dist_G(u,w) ≤ k]), where [d = ⌈dist_G(v,u)/k⌉] is the [G^k]
    distance, in non-decreasing [d].  [G^k] is never built: this is one
    {!iter_ball} search of radius [k·r] on [g], so it costs the host
    ball and O(1) words.  [r < 0] visits nothing; [k < 1] raises
    [Invalid_argument]. *)

val ball : t -> int -> int -> int array
(** [ball g v r] is [B_r(v) = { u | dist(u,v) ≤ r }], sorted.  One
    radius-bounded search as {!iter_ball}, then a sort: it costs
    [O(|B| log |B|)] plus the ball's boundary edges, not [n]. *)

val ball_dist : t -> int -> int -> int array * int array
(** [ball_dist g v r] is [(ball g v r, d)] where [d.(i)] is the distance
    from [v] to the [i]-th ball vertex: one search yields both, at the
    cost of {!ball}. *)

val sphere : t -> int -> int -> int array
(** [sphere g v r = { u | dist(u,v) = r }], sorted.  Costs what
    [ball g v r] costs. *)

val eccentricity : t -> int -> int
(** Max distance from a vertex to any reachable vertex. *)

val diameter : t -> int
(** Max eccentricity over all vertices ([0] for [n ≤ 1]); [max_int] if the
    graph is disconnected. *)

val connected : t -> bool

val components : t -> int array
(** Component id per vertex, ids are [0..k-1] in order of discovery. *)

val induced : t -> int array -> t * int array
(** [induced g vs] is the subgraph induced by the vertex set [vs]
    (duplicates rejected) together with the map from new indices to
    original vertex ids (i.e. [vs] itself, sorted). *)

val is_triangle_free : t -> bool

val is_forest : t -> bool

val complement : t -> t

val union : t -> t -> t
(** Union of edge sets; both graphs must have the same vertex count. *)
