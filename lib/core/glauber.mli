(** Glauber dynamics (single-site heat bath) — the global MCMC baseline.

    The classical sequential sampler the paper's LOCAL algorithms are
    measured against: start from any feasible configuration, repeatedly pick
    a free vertex and resample it from its conditional distribution given
    the rest.  It is {e not} a LOCAL algorithm (the site schedule is a
    global sequential resource), which is exactly the contrast the paper
    draws; the benches report its accuracy-per-work next to the distributed
    samplers.  Its stationary distribution is [μ^τ] whenever the chain is
    irreducible (e.g. locally admissible specs). *)

type state = {
  config : int array;  (** Current configuration (mutated in place). *)
  inst : Instance.t;
  free : int array;  (** Unpinned vertices. *)
}

val init : Instance.t -> state
(** Start from the greedy locally feasible extension of the pinning.
    Raises [Failure] when the greedy construction gets stuck. *)

val init_from : Instance.t -> int array -> state
(** Start from a given total configuration (must respect the pinning). *)

val step : state -> Ls_rng.Rng.t -> unit
(** One heat-bath update at a uniformly random free vertex. *)

val sweep : state -> Ls_rng.Rng.t -> unit
(** One update at every free vertex, in a fresh uniformly random order. *)

val sample_many :
  Instance.t -> sweeps:int -> thin:int -> count:int -> rng:Ls_rng.Rng.t ->
  int array list
(** [count] samples from one chain: burn-in [sweeps], then record every
    [thin] sweeps. *)
