(** The SLOCAL model runtime (Ghaffari–Kuhn–Maus, restated in §3).

    An SLOCAL algorithm scans the nodes in an adversarial order; when
    processing node [v] it reads the states of nodes within some radius
    [r_v], performs unbounded computation, and updates states.  This runtime
    {e enforces} locality: every read or write outside the radius declared
    for the current step raises, so an algorithm that runs to completion has
    certified its locality.  The runtime records, per pass, the maximum
    radius used, and converts multi-pass / nearby-write algorithms to the
    single-pass locality bound of Lemma 4.4:
    [r₁ + 2·Σ_{i≥2} r_i], with writes at distance [w] folded into the
    pass radius ([r + w], Observation 2.1 of GKM). *)

type 's t

val create : Ls_graph.Graph.t -> seed:int64 -> init:(int -> 's) -> 's t

val graph : _ t -> Ls_graph.Graph.t

val state : 's t -> int -> 's
(** Unrestricted read, for inspecting results {e after} the run. *)

val states : 's t -> 's array

(** {1 Processing steps} *)

type 's ctx
(** Capability handed to the algorithm while it processes one node. *)

val center : _ ctx -> int
val rng : _ ctx -> Ls_rng.Rng.t
(** The processed node's private stream. *)

val read : 's ctx -> int -> 's
(** Read a state within the declared radius (else [Invalid_argument]). *)

val write : 's ctx -> int -> 's -> unit
(** Write a state within the declared radius (else [Invalid_argument]). *)

val ball : _ ctx -> int array
(** The nodes within the declared radius of the processed node, sorted
    by id.  Shared with the context: do not mutate. *)

val dist : _ ctx -> int -> int
(** Distance from the processed node: exact within the declared radius,
    [max_int] beyond it (the step never computes distances past its
    ball). *)

val process : 's t -> v:int -> radius:int -> ('s ctx -> 'a) -> 'a
(** Execute one step at node [v] with locality budget [radius].  The
    step's ball is one radius-bounded search made before [f] runs, so
    a step costs its ball, not [n]. *)

val run_pass : 's t -> order:int array -> radius:int -> ('s ctx -> unit) -> unit
(** Process every node of [order] once with the same locality budget, then
    close the pass: subsequent steps count toward the next one. *)

(** {1 Locality accounting} *)

val pass_localities : _ t -> int list
(** Max radius used in each completed-or-current pass, oldest first. *)

val single_pass_locality : _ t -> int
(** Lemma 4.4 bound for the equivalent single-pass SLOCAL algorithm:
    [r₁ + 2·Σ_{i≥2} r_i]. *)
