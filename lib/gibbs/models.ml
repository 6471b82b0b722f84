module Graph = Ls_graph.Graph

let weighted_independent_set g ~vertex_lambda =
  Spec.create_pairwise g ~q:2
    {
      Spec.vertex_weight = (fun v c -> if c = 1 then vertex_lambda v else 1.);
      edge_weight = (fun _ _ cu cv -> if cu = 1 && cv = 1 then 0. else 1.);
    }

let hardcore g ~lambda =
  if lambda < 0. then invalid_arg "Models.hardcore: negative fugacity";
  weighted_independent_set g ~vertex_lambda:(fun _ -> lambda)

let hardcore_uniqueness_threshold delta =
  if delta <= 2 then infinity
  else
    let d = float_of_int delta in
    ((d -. 1.) ** (d -. 1.)) /. ((d -. 2.) ** d)

let two_spin g ~beta ~gamma ~lambda =
  if beta < 0. || gamma < 0. || lambda < 0. then
    invalid_arg "Models.two_spin: negative parameter";
  Spec.create_pairwise g ~q:2
    {
      Spec.vertex_weight = (fun _ c -> if c = 1 then lambda else 1.);
      edge_weight =
        (fun _ _ cu cv ->
          match (cu, cv) with
          | 0, 0 -> beta
          | 1, 1 -> gamma
          | _ -> 1.);
    }

let ising g ~beta ~field = two_spin g ~beta ~gamma:beta ~lambda:field

let ising_uniqueness_threshold delta =
  if delta <= 2 then 0.
  else float_of_int (delta - 2) /. float_of_int delta

let potts g ~q ~beta =
  if q < 1 then invalid_arg "Models.potts: need q >= 1";
  if beta < 0. then invalid_arg "Models.potts: negative interaction";
  Spec.create_pairwise g ~q
    {
      Spec.vertex_weight = (fun _ _ -> 1.);
      edge_weight = (fun _ _ cu cv -> if cu = cv then beta else 1.);
    }

let potts_uniqueness_threshold ~q ~delta =
  if q >= delta then 0.
  else float_of_int (delta - q) /. float_of_int delta

let coloring g ~q =
  if q < 1 then invalid_arg "Models.coloring: need q >= 1";
  Spec.create_pairwise g ~q
    {
      Spec.vertex_weight = (fun _ _ -> 1.);
      edge_weight = (fun _ _ cu cv -> if cu = cv then 0. else 1.);
    }

let list_coloring g ~q ~lists =
  if Array.length lists <> Graph.n g then
    invalid_arg "Models.list_coloring: one list per vertex required";
  let allowed =
    Array.map
      (fun l ->
        let a = Array.make q false in
        List.iter
          (fun c ->
            if c < 0 || c >= q then
              invalid_arg "Models.list_coloring: color out of range";
            a.(c) <- true)
          l;
        a)
      lists
  in
  Spec.create_pairwise g ~q
    {
      Spec.vertex_weight = (fun v c -> if allowed.(v).(c) then 1. else 0.);
      edge_weight = (fun _ _ cu cv -> if cu = cv then 0. else 1.);
    }

let coloring_alpha_star =
  (* Positive root of x = e^{1/x}, by fixed-point iteration. *)
  let rec go x i = if i = 0 then x else go (exp (1. /. x)) (i - 1) in
  go 1.8 200
