module Spec = Ls_gibbs.Spec
module Config = Ls_gibbs.Config
module Graph = Ls_graph.Graph

type t = { spec : Spec.t; pinned : Config.t }

let create spec ~pinned =
  if Array.length pinned <> Graph.n (Spec.graph spec) then
    invalid_arg "Instance.create: pinning size mismatch";
  if not (Config.values_in_range pinned (Spec.q spec)) then
    invalid_arg "Instance.create: pinned value out of alphabet";
  { spec; pinned = Array.copy pinned }

let unpinned spec =
  { spec; pinned = Config.empty (Graph.n (Spec.graph spec)) }

let of_pins spec pins =
  create spec ~pinned:(Config.of_pinning (Graph.n (Spec.graph spec)) pins)

let n i = Graph.n (Spec.graph i.spec)
let q i = Spec.q i.spec
let graph i = Spec.graph i.spec
let locality i = Spec.locality i.spec

let is_pinned i v = Config.is_assigned i.pinned v

let free_vertices i =
  List.filter (fun v -> not (is_pinned i v)) (List.init (n i) (fun v -> v))

let is_feasible i = Ls_gibbs.Enumerate.feasible i.spec i.pinned
