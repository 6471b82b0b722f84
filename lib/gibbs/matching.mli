(** The monomer–dimer (weighted matchings) model, via line-graph duality.

    A matching of [G] with activity [λ] per edge is the hardcore model with
    fugacity [λ] on the line graph [L(G)]; the paper samples matchings in
    [O(√Δ log³ n)] rounds because the model has SSM at rate
    [1 − Ω(1/√Δ)] for every [λ] (Bayati–Gamarnik–Katz–Nair–Tetali).  The
    LOCAL simulation runs on [L(G)], whose distances are within ±1 of
    edge-to-edge distances in [G]. *)

type t = {
  spec : Spec.t;  (** Hardcore([λ]) on the line graph. *)
  lg : Ls_graph.Line_graph.t;
  lambda : float;
}

val make : Ls_graph.Graph.t -> lambda:float -> t

val matching_of_config : t -> int array -> (int * int) list
(** Base edges selected by a line-graph configuration. *)

val is_matching : t -> int array -> bool
(** Validity check on the base graph: no two selected edges share an
    endpoint. *)
