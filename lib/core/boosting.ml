module Graph = Ls_graph.Graph
module Dist = Ls_dist.Dist

let boost (aplus : Inference.oracle) inst0 =
  let t = aplus.Inference.radius in
  let ell = Instance.locality inst0 in
  let infer inst v =
    if Instance.is_pinned inst v then
      Dist.point (Instance.q inst) inst.Instance.pinned.(v)
    else begin
      let gamma = Inference.annulus inst ~v ~t in
      (* Pin the annulus vertex by vertex at the arg-max of A+'s marginal on
         the instance extended so far. *)
      let chain = Chain.start inst in
      let live = Chain.instance chain in
      Array.iter
        (fun u -> Chain.pin chain u (Dist.argmax (aplus.Inference.infer live u)))
        gamma;
      let ball = Graph.ball (Instance.graph inst) v (t + Instance.locality inst) in
      match Exact.ball_marginal live ~ball v with
      | Some d -> d
      | None ->
          (* Arg-max pinning produced an infeasible tau_m: A+'s error was too
             large for the boosting guarantee.  Surface it loudly. *)
          failwith "Boosting.boost: infeasible annulus pinning"
    end
  in
  { Inference.radius = (2 * t) + ell; infer }
