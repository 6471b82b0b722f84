(** Partial configurations [τ ∈ Σ^Λ].

    A configuration assigns a value in [0..q-1] to each vertex of a subset
    [Λ ⊆ V]; unassigned vertices carry the sentinel {!unassigned}.  This is
    the [τ] of the paper's instances [(G, x, τ)] (Definition 2.2) and the
    partially-constructed samples of the chain-rule samplers. *)

val unassigned : int
(** The sentinel value [-1]. *)

type t = int array
(** [t.(v)] is the value at [v], or {!unassigned}. *)

val empty : int -> t
(** All-unassigned configuration on [n] vertices. *)

val of_pinning : int -> (int * int) list -> t
(** [of_pinning n [(v, c); ...]] pins each listed vertex; duplicates with
    conflicting values are rejected. *)

val is_assigned : t -> int -> bool

val assigned_vertices : t -> int list
(** Sorted list of the domain [Λ]. *)

val num_assigned : t -> int

val is_total : t -> bool
(** All vertices assigned. *)

val diff_domain : t -> t -> int list
(** Vertices on which the two configurations differ (including
    assigned-vs-unassigned mismatches). *)

val values_in_range : t -> int -> bool
(** All assigned values lie in [0..q-1]. *)
