(* Calls into the layers below the engine, built only from their public
   entry points: the same instance and oracle the engine compiles for a
   request, and one chain-rule trial as [Local_sampler.sample] runs it,
   split into its plan and execution halves. *)

module P = Ls_serve.Protocol
module Engine = Ls_serve.Engine
open Ls_core

type compiled = {
  graph : Ls_graph.Graph.t;
  spec : Ls_gibbs.Spec.t;
  inst : Instance.t;
  oracle : Inference.oracle;
}

let compile (r : P.request) =
  let ( let* ) = Result.bind in
  match
    (* The engine seeds the graph generator with the request seed. *)
    let* graph = Engine.parse_graph (Ls_rng.Rng.create r.P.seed) r.P.graph in
    let* model = Engine.parse_model graph r.P.model in
    let inst = Instance.unpinned model.Engine.spec in
    let* oracle = Engine.make_oracle ~engine:r.P.engine ~t:r.P.t inst in
    Ok { graph; spec = model.Engine.spec; inst; oracle }
  with
  | Ok c -> c
  | Error msg -> failwith msg

(* Per-trial seeds of a Sample request, as the engine derives them. *)
let trial_seeds (r : P.request) =
  Array.map Ls_rng.Rng.bits64 (Ls_rng.Rng.streams r.P.seed r.P.trials)

let trial ?(plan_span = fun f -> f ()) ?(run_span = fun f -> f ()) c oracle
    ~seed =
  let plan = plan_span (fun () -> Local_sampler.plan oracle c.inst ~seed) in
  run_span (fun () -> Local_sampler.sample_planned oracle ~plan c.inst ~seed)

(* A trial's output is sound when the sampler reports success and sigma
   is a total, locally feasible configuration. *)
let sound c (r : Local_sampler.result) =
  r.Local_sampler.success
  && Ls_gibbs.Config.is_total r.Local_sampler.sigma
  && Ls_gibbs.Spec.locally_feasible c.spec r.Local_sampler.sigma
