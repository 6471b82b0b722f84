module Gibbs = Ls_gibbs
module Dist = Ls_dist.Dist
module Rng = Ls_rng.Rng

let marginal_of_chain_sampler oracle inst ~order v =
  let q = Instance.q inst in
  let weights = Array.make q 0. in
  List.iter
    (fun (sigma, p) -> weights.(sigma.(v)) <- weights.(sigma.(v)) +. p)
    (Sequential_sampler.output_distribution oracle inst ~order);
  Dist.of_weights weights

let monte_carlo_marginal ~sample ~q ~samples ~rng v =
  let counts = Array.make q 0. in
  let kept = ref 0 in
  for _i = 1 to samples do
    match sample rng with
    | Some sigma ->
        incr kept;
        counts.(sigma.(v)) <- counts.(sigma.(v)) +. 1.
    | None -> ()
  done;
  if !kept = 0 then None else Some (Dist.of_weights counts)

(* The counting reduction along [order]: ln Z(τ) = ln w(σ) − Σ_i ln μ̂_i for
   a greedy feasible completion σ, where [estimate live v c] is the
   marginal estimate μ̂^{τ∧σ^{i-1}}_v(c) on the prefix-pinned instance.
   Which σ is chosen does not affect exactness, only conditioning. *)
let chain_log_partition ~name ~estimate inst ~order =
  let spec = inst.Instance.spec in
  let sigma =
    match Gibbs.Admissible.greedy_extension spec inst.Instance.pinned with
    | Some sigma -> sigma
    | None -> failwith (name ^ ": no greedy completion")
  in
  let log_p = ref 0. in
  ignore
    (Chain.run inst ~order ~choose:(fun live v ->
         log_p := !log_p +. log (estimate live v sigma.(v));
         sigma.(v)));
  Gibbs.Spec.log_weight spec sigma -. !log_p

let log_partition_via_sampling ~sample inst ~order ~samples ~rng =
  let name = "Reductions.log_partition_via_sampling" in
  chain_log_partition ~name inst ~order ~estimate:(fun live v c ->
      let hits = ref 0 and kept = ref 0 in
      for _i = 1 to samples do
        match sample live rng with
        | Some y ->
            incr kept;
            if y.(v) = c then incr hits
        | None -> ()
      done;
      if !hits = 0 then failwith (name ^ ": zero marginal estimate (increase samples)");
      float_of_int !hits /. float_of_int !kept)

let estimate_log_partition (oracle : Inference.oracle) inst ~order =
  let name = "Reductions.estimate_log_partition" in
  chain_log_partition ~name inst ~order ~estimate:(fun live v c ->
      let p = Dist.prob (oracle.Inference.infer live v) c in
      if not (p > 0.) then failwith (name ^ ": zero marginal on completion");
      p)
