module Line_graph = Ls_graph.Line_graph

type t = { spec : Spec.t; lg : Line_graph.t; lambda : float }

let make g ~lambda =
  let lg = Line_graph.make g in
  { spec = Models.hardcore lg.Line_graph.line ~lambda; lg; lambda }

let matching_of_config m sigma =
  let acc = ref [] in
  Array.iteri
    (fun i c -> if c = 1 then acc := m.lg.Line_graph.edge_of_vertex.(i) :: !acc)
    sigma;
  List.rev !acc

let is_matching m sigma =
  let n = Ls_graph.Graph.n m.lg.Line_graph.base in
  let used = Array.make n false in
  try
    Array.iteri
      (fun i c ->
        if c = 1 then begin
          let u, v = m.lg.Line_graph.edge_of_vertex.(i) in
          if used.(u) || used.(v) then raise Exit;
          used.(u) <- true;
          used.(v) <- true
        end)
      sigma;
    true
  with Exit -> false
