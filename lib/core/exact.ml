module Gibbs = Ls_gibbs
module Graph = Ls_graph.Graph

let whole_graph_ball inst =
  Array.init (Instance.n inst) (fun v -> v)

let ball_marginal inst ~ball v =
  let spec = inst.Instance.spec and tau = inst.Instance.pinned in
  match Gibbs.Forest_dp.ball_marginal spec ~ball tau v with
  | Gibbs.Forest_dp.Marginal m -> m
  | Gibbs.Forest_dp.Not_forest -> Gibbs.Enumerate.ball_marginal spec ~ball tau v

let marginal inst v =
  (* Whole-graph queries admit one more exact engine than ball queries:
     the transfer-matrix DP for paths and cycles. *)
  if Gibbs.Chain_dp.supported inst.Instance.spec then
    Gibbs.Chain_dp.marginal inst.Instance.spec inst.Instance.pinned v
  else ball_marginal inst ~ball:(whole_graph_ball inst) v

let joint inst = Gibbs.Enumerate.distribution inst.Instance.spec inst.Instance.pinned

let partition inst = Gibbs.Enumerate.partition inst.Instance.spec inst.Instance.pinned
