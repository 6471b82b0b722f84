module Gibbs = Ls_gibbs
module Graph = Ls_graph.Graph
module Dist = Ls_dist.Dist
module Rng = Ls_rng.Rng

type point = {
  distance : int;
  tv : float;
  mult : float;
  boundary_configs : int;
  exhaustive : bool;
}

(* Marginal at v under a candidate boundary, pinned on [chain] and undone
   afterwards; None when the combined pinning is infeasible. *)
let marginal_under chain sphere values v =
  let m = Chain.mark chain in
  let live = Chain.instance chain in
  let consistent = ref true in
  Array.iteri
    (fun i u ->
      if !consistent then
        if Chain.is_pinned chain u then
          consistent := live.Instance.pinned.(u) = values.(i)
        else Chain.pin chain u values.(i))
    sphere;
  let d = if !consistent then Exact.marginal live v else None in
  Chain.undo chain m;
  d

let exhaustive_boundaries q k =
  (* All q^k value tuples. *)
  let rec go i acc =
    if i = k then List.rev_map (fun l -> Array.of_list (List.rev l)) acc
    else
      go (i + 1)
        (List.concat_map (fun prefix -> List.init q (fun c -> c :: prefix)) acc)
  in
  go 0 [ [] ]

(* One feasible boundary drawn from the true conditional distribution on
   the sphere (chain rule with exact marginals): guaranteed feasible. *)
let random_boundary ~rng chain sphere =
  let m = Chain.mark chain in
  let live = Chain.instance chain in
  let values = Array.make (Array.length sphere) 0 in
  let ok = ref true in
  Array.iteri
    (fun i u ->
      if !ok then
        if Chain.is_pinned chain u then values.(i) <- live.Instance.pinned.(u)
        else
          match Exact.marginal live u with
          | None -> ok := false
          | Some mu ->
              let c = Dist.sample rng mu in
              values.(i) <- c;
              Chain.pin chain u c)
    sphere;
  Chain.undo chain m;
  if !ok then Some values else None

let influence_at ?(max_exhaustive = 512) ?(samples = 64) ~rng inst ~v ~d =
  let g = Instance.graph inst in
  let q = Instance.q inst in
  let sphere =
    Array.of_list
      (List.filter
         (fun u -> not (Instance.is_pinned inst u))
         (Array.to_list (Graph.sphere g v d)))
  in
  let k = Array.length sphere in
  if k = 0 then { distance = d; tv = 0.; mult = 0.; boundary_configs = 0; exhaustive = true }
  else begin
    let total = float_of_int q ** float_of_int k in
    let exhaustive = total <= float_of_int max_exhaustive in
    let chain = Chain.start inst in
    let candidates =
      if exhaustive then exhaustive_boundaries q k
      else begin
        let constants = List.init q (fun c -> Array.make k c) in
        let sampled =
          List.filter_map
            (fun _ -> random_boundary ~rng chain sphere)
            (List.init samples (fun i -> i))
        in
        constants @ sampled
      end
    in
    let marginals =
      List.filter_map (fun values -> marginal_under chain sphere values v) candidates
    in
    let worst_tv = ref 0. and worst_mult = ref 0. in
    let arr = Array.of_list marginals in
    let kk = Array.length arr in
    for i = 0 to kk - 1 do
      for j = i + 1 to kk - 1 do
        worst_tv := max !worst_tv (Dist.tv arr.(i) arr.(j));
        worst_mult := max !worst_mult (Dist.mult_err arr.(i) arr.(j))
      done
    done;
    {
      distance = d;
      tv = !worst_tv;
      mult = !worst_mult;
      boundary_configs = kk;
      exhaustive;
    }
  end

let decay_curve ?max_exhaustive ?samples ~rng inst ~v ~max_d =
  let g = Instance.graph inst in
  let points = ref [] in
  for d = 1 to max_d do
    if Array.length (Graph.sphere g v d) > 0 then
      points := influence_at ?max_exhaustive ?samples ~rng inst ~v ~d :: !points
  done;
  List.rev !points

let fit_exponential_rate points =
  let usable =
    List.filter_map
      (fun p -> if p.tv > 0. then Some (float_of_int p.distance, log p.tv) else None)
      points
  in
  match usable with
  | [] | [ _ ] -> None
  | _ ->
      let n = float_of_int (List.length usable) in
      let sx = List.fold_left (fun a (x, _) -> a +. x) 0. usable in
      let sy = List.fold_left (fun a (_, y) -> a +. y) 0. usable in
      let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0. usable in
      let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0. usable in
      let denom = (n *. sxx) -. (sx *. sx) in
      if Float.abs denom < 1e-12 then None
      else
        let slope = ((n *. sxy) -. (sx *. sy)) /. denom in
        Some (exp slope)
