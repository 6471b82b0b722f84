module Gibbs = Ls_gibbs
module Graph = Ls_graph.Graph

let log_z_exact inst =
  let spec = inst.Instance.spec in
  let tau = inst.Instance.pinned in
  if Gibbs.Chain_dp.supported spec then Gibbs.Chain_dp.log_partition spec tau
  else if
    Gibbs.Spec.tables spec <> None
    && Graph.is_forest (Gibbs.Spec.graph spec)
  then Gibbs.Forest_dp.log_partition spec tau
  else begin
    let z = Gibbs.Enumerate.partition spec tau in
    if z > 0. then log z else neg_infinity
  end

let log_z_local oracle inst =
  let order = Array.init (Instance.n inst) (fun i -> i) in
  Reductions.estimate_log_partition oracle inst ~order

let count_independent_sets g =
  exp (log_z_exact (Instance.unpinned (Gibbs.Models.hardcore g ~lambda:1.)))

let count_matchings g =
  if Graph.is_forest g then
    exp (Gibbs.Matching_dp.log_partition g ~lambda:1. ~pins:[])
  else begin
    let m = Gibbs.Matching.make g ~lambda:1. in
    exp (log_z_exact (Instance.unpinned m.Gibbs.Matching.spec))
  end

let count_proper_colorings g ~q =
  exp (log_z_exact (Instance.unpinned (Gibbs.Models.coloring g ~q)))

(* Closed forms. *)

let fib n =
  (* F_1 = F_2 = 1. *)
  let rec go i a b = if i >= n then b else go (i + 1) b (a +. b) in
  if n <= 0 then 0. else if n <= 2 then 1. else go 2 1. 1.

let closed_form_independent_sets_path n = fib (n + 2)

let closed_form_independent_sets_cycle n =
  if n < 3 then invalid_arg "Counting: cycle needs n >= 3";
  (* Lucas: L_n = F_{n-1} + F_{n+1}. *)
  fib (n - 1) +. fib (n + 1)

let closed_form_matchings_path n = fib (n + 1)

let closed_form_colorings_cycle ~n ~q =
  let qm1 = float_of_int (q - 1) in
  (qm1 ** float_of_int n) +. (if n mod 2 = 0 then qm1 else -.qm1)

let closed_form_colorings_tree ~n ~q =
  if n < 1 then invalid_arg "Counting: empty tree";
  float_of_int q *. (float_of_int (q - 1) ** float_of_int (n - 1))
