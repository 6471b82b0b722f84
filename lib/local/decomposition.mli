(** Randomized [(O(log n), O(log n))] network decomposition (Linial–Saks).

    A [(C, D)] decomposition partitions (most of) the vertices into
    clusters of weak diameter [≤ D], colored with [C] colors so that
    same-colored clusters are non-adjacent.  Lemma 3.1 compiles SLOCAL
    algorithms to LOCAL by computing such a decomposition on the power
    graph [G^{r+1}] and scheduling color classes sequentially.  The power
    graph stays implicit: [~hop:k] decomposes [G^k] through host-graph
    balls ({!Ls_graph.Graph.iter_power_ball}), so memory stays O(n)
    however dense [G^k] is.

    This is the classic construction: per phase, every still-unclustered
    vertex [u] draws a truncated geometric radius [r_u]; vertex [v] elects
    the candidate [u] (with [dist(u,v) ≤ r_u]) maximizing [(r_u, id_u)]
    and joins its cluster iff [dist(u,v) < r_u] (strict interior).  Clusters
    formed in one phase are pairwise non-adjacent; each phase clusters every
    vertex with probability [≥ 1/2], so [O(log n)] phases suffice whp.
    Truncation makes the algorithm terminate in a fixed number of rounds at
    the price of {e locally certifiable failures}: vertices still
    unclustered when the phase budget runs out are flagged, exactly the
    [F''] failures of Lemma 3.1 with [Σ_v E\[F''_v\] = O(1/n²)] for the
    default budgets. *)

type cluster = {
  center : int;
  color : int;  (** Phase that formed the cluster. *)
  members : int array;  (** Sorted; may exclude the center itself. *)
  radius : int;
      (** Max member distance to center (weak: measured in [G^hop], through
          any vertex of the host graph). *)
}

type t = {
  clusters : cluster array;
  cluster_of : int array;  (** Cluster index per vertex; [-1] = failed. *)
  color_of : int array;  (** Color per vertex; [-1] = failed. *)
  num_colors : int;
  failed : bool array;
  radius_cap : int;
  phase_cap : int;
}

val default_radius_cap : int -> int
(** [⌈2·log₂ n⌉ + 2] — makes a truncation event [n^{-2}]-unlikely. *)

val default_phase_cap : int -> int
(** [⌈4·log₂ n⌉ + 4]. *)

val linial_saks :
  ?radius_cap:int -> ?phase_cap:int -> ?hop:int -> Ls_graph.Graph.t -> Ls_rng.Rng.t -> t
(** [linial_saks ~hop g rng] decomposes [G^hop] (default [hop = 1], [g]
    itself); every distance, radius and cap is in [G^hop] hops.  Each
    candidate's ball is one host search of radius [hop·r_u], and the
    output equals that of the same construction run on a materialised
    [G^hop] with the same draws.  [hop < 1] raises [Invalid_argument]. *)

val is_valid : ?hop:int -> Ls_graph.Graph.t -> t -> bool
(** Check the invariants of a decomposition of [G^hop] (default
    [hop = 1]): every non-failed vertex is in exactly one cluster, member
    radii are within the cap and reached by one [G^hop] ball of the
    cluster radius around the center, and same-color clusters are
    non-adjacent in [G^hop] (every pair is more than [hop] apart in
    [g]).  Memory is O(n). *)

val max_radius_of_color : t -> int -> int
(** Largest cluster radius within one color class (0 if the class is
    empty). *)
