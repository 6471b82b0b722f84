module Hypergraph = Ls_graph.Hypergraph

type t = { spec : Spec.t; hypergraph : Hypergraph.t; lambda : float }

let make h ~lambda =
  let ig = Hypergraph.intersection_graph h in
  { spec = Models.hardcore ig ~lambda; hypergraph = h; lambda }

let uniqueness_threshold ~rank ~delta =
  if delta <= 2 || rank <= 1 then infinity
  else
    let d = float_of_int delta and r = float_of_int rank in
    ((d -. 1.) ** (d -. 1.)) /. ((r -. 1.) *. ((d -. 2.) ** d))
