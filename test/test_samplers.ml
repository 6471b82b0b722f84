(* Tests for the chain-rule sampler (Theorem 3.2), its LOCAL compilation,
   the sampling->inference reduction (Theorem 3.4), and Glauber dynamics. *)

module Graph = Ls_graph.Graph
module Generators = Ls_graph.Generators
module Dist = Ls_dist.Dist
module Empirical = Ls_dist.Empirical
module Rng = Ls_rng.Rng
module Par = Ls_par.Par
module Models = Ls_gibbs.Models
module Config = Ls_gibbs.Config

open Ls_core

let checkb = Alcotest.check Alcotest.bool

let ident_order n = Array.init n (fun i -> i)

(* --- sequential (chain-rule) sampler --- *)

let test_exact_oracle_gives_exact_distribution () =
  (* With exact marginals, the chain-rule output distribution IS mu^tau:
     compare symbolically, no sampling noise. *)
  let inst = Instance.unpinned (Models.hardcore (Generators.cycle 5) ~lambda:1.4) in
  let oracle = Inference.exact inst in
  let out = Sequential_sampler.output_distribution oracle inst ~order:(ident_order 5) in
  let exact = Exact.joint inst in
  List.iter
    (fun (sigma, p) ->
      let p' = try List.assoc sigma out with Not_found -> 0. in
      checkb "probabilities match" true (Float.abs (p -. p') < 1e-9))
    exact;
  checkb "same support size" true (List.length out = List.length exact)

let test_order_invariance_with_exact_oracle () =
  (* The chain rule gives the same joint under any ordering when marginals
     are exact. *)
  let inst = Instance.unpinned (Models.coloring (Generators.path 4) ~q:3) in
  let oracle = Inference.exact inst in
  let a = Sequential_sampler.output_distribution oracle inst ~order:[| 0; 1; 2; 3 |] in
  let b = Sequential_sampler.output_distribution oracle inst ~order:[| 3; 1; 0; 2 |] in
  List.iter
    (fun (sigma, p) ->
      let p' = try List.assoc sigma b with Not_found -> 0. in
      checkb "order invariant" true (Float.abs (p -. p') < 1e-9))
    a

let test_sampler_respects_pinning () =
  let inst =
    Instance.of_pins (Models.hardcore (Generators.cycle 6) ~lambda:1.) [ (2, 1) ]
  in
  let oracle = Inference.exact inst in
  let rng = Rng.create 3L in
  for _i = 1 to 50 do
    let sigma = Sequential_sampler.sample oracle inst ~order:(ident_order 6) ~rng in
    checkb "pin kept" true (sigma.(2) = 1);
    checkb "valid independent set" true (sigma.(1) = 0 && sigma.(3) = 0)
  done

let test_sampler_empirical_tv () =
  let inst = Instance.unpinned (Models.hardcore (Generators.path 4) ~lambda:1.) in
  let oracle = Inference.exact inst in
  let emp =
    Empirical.collect ~n:20_000 ~seed:5L (fun rng ->
        Sequential_sampler.sample oracle inst ~order:(ident_order 4) ~rng)
  in
  Test_statistics.check_gof "chain-rule sampler with the exact oracle"
    ~significance:0.001 emp (Exact.joint inst)

let test_approx_oracle_sampler_tv_bound () =
  (* Theorem 3.2 coupling: output TV <= n * per-site TV error. *)
  let inst = Instance.unpinned (Models.hardcore (Generators.cycle 8) ~lambda:0.7) in
  let oracle = Inference.ssm_oracle ~t:3 inst in
  let out = Sequential_sampler.output_distribution oracle inst ~order:(ident_order 8) in
  let exact = Exact.joint inst in
  let tv =
    0.5
    *. List.fold_left
         (fun acc (sigma, p) ->
           let p' = try List.assoc sigma out with Not_found -> 0. in
           acc +. Float.abs (p -. p'))
         0. exact
  in
  checkb "small total-variation error" true (tv < 0.05)

let test_sample_slocal_matches_plain () =
  (* The locality-enforcing SLOCAL run must complete (certifying locality)
     and produce feasible samples. *)
  let inst = Instance.unpinned (Models.hardcore (Generators.cycle 10) ~lambda:1.) in
  let oracle = Inference.ssm_oracle ~t:2 inst in
  let sigma, locality =
    Sequential_sampler.sample_slocal oracle inst ~order:(ident_order 10) ~seed:11L
  in
  checkb "feasible output" true (Ls_gibbs.Spec.weight inst.Instance.spec sigma > 0.);
  checkb "locality = oracle radius" true (locality = oracle.Inference.radius)

let test_chain_rule_probability () =
  let inst = Instance.unpinned (Models.hardcore (Generators.path 3) ~lambda:1.) in
  let oracle = Inference.exact inst in
  let order = ident_order 3 in
  (* Sum over all configurations must be 1. *)
  let total = ref 0. in
  let sigma = Array.make 3 0 in
  for a = 0 to 1 do
    for b = 0 to 1 do
      for c = 0 to 1 do
        sigma.(0) <- a;
        sigma.(1) <- b;
        sigma.(2) <- c;
        total := !total +. Sequential_sampler.chain_rule_probability oracle inst ~order sigma
      done
    done
  done;
  checkb "chain rule sums to one" true (Float.abs (!total -. 1.) < 1e-9)

let test_order_validation () =
  let inst = Instance.unpinned (Models.hardcore (Generators.path 3) ~lambda:1.) in
  let oracle = Inference.exact inst in
  Alcotest.check_raises "duplicate vertex"
    (Invalid_argument "Chain: order is not a permutation") (fun () ->
      ignore
        (Sequential_sampler.sample oracle inst ~order:[| 0; 0; 1 |]
           ~rng:(Rng.create 1L)))

(* --- LOCAL sampler (Theorem 3.2 compiled via Lemma 3.1) --- *)

let test_local_sampler_feasible_and_accounted () =
  let inst = Instance.unpinned (Models.hardcore (Generators.cycle 12) ~lambda:1.) in
  let oracle = Inference.ssm_oracle ~t:2 inst in
  let result = Local_sampler.sample oracle inst ~seed:21L in
  checkb "feasible" true (Ls_gibbs.Spec.weight inst.Instance.spec result.Local_sampler.sigma > 0.);
  checkb "rounds charged" true (result.Local_sampler.rounds > 0)

let test_local_sampler_empirical () =
  (* Conditioned on success the LOCAL sampler's output must be close to the
     target distribution.  Trials fan out over domains; per-trial seeds come
     from the engine's seed-split streams, so the verdict is domain-count
     invariant. *)
  let inst = Instance.unpinned (Models.hardcore (Generators.cycle 5) ~lambda:1.) in
  let oracle = Inference.ssm_oracle ~t:3 inst in
  let results =
    Par.run_trials ~n:4_000 ~seed:1000L (fun rng ->
        Local_sampler.sample oracle inst ~seed:(Rng.bits64 rng))
  in
  let emp = Empirical.create () in
  let successes = ref 0 in
  Array.iter
    (fun r ->
      if r.Local_sampler.success then begin
        incr successes;
        Empirical.add emp r.Local_sampler.sigma
      end)
    results;
  checkb "mostly successful" true (!successes > 3_600);
  checkb "close to target" true (Empirical.tv_against emp (Exact.joint inst) < 0.05)

let test_local_sampler_deterministic_in_seed () =
  let inst = Instance.unpinned (Models.hardcore (Generators.cycle 8) ~lambda:1.) in
  let oracle = Inference.ssm_oracle ~t:2 inst in
  let a = Local_sampler.sample oracle inst ~seed:5L in
  let b = Local_sampler.sample oracle inst ~seed:5L in
  checkb "reproducible" true (a.Local_sampler.sigma = b.Local_sampler.sigma)

(* --- sampling => inference (Theorem 3.4) --- *)

let test_marginal_of_chain_sampler () =
  let inst = Instance.unpinned (Models.hardcore (Generators.cycle 6) ~lambda:1.1) in
  let oracle = Inference.ssm_oracle ~t:3 inst in
  let m = Reductions.marginal_of_chain_sampler oracle inst ~order:(ident_order 6) 2 in
  let exact = Option.get (Exact.marginal inst 2) in
  checkb "reconstructed marginal close" true (Dist.tv m exact < 0.03)

let test_monte_carlo_marginal () =
  let inst = Instance.unpinned (Models.hardcore (Generators.path 5) ~lambda:1.) in
  let oracle = Inference.exact inst in
  let rng = Rng.create 31L in
  let sample rng =
    Some (Sequential_sampler.sample oracle inst ~order:(ident_order 5) ~rng)
  in
  let m = Option.get (Reductions.monte_carlo_marginal ~sample ~q:2 ~samples:20_000 ~rng 2) in
  let exact = Option.get (Exact.marginal inst 2) in
  checkb "monte carlo close" true (Dist.tv m exact < 0.02)

let test_log_partition_via_sampling () =
  (* Counting from a black-box sampler (the classical JVV direction). *)
  let inst = Instance.unpinned (Models.hardcore (Generators.path 5) ~lambda:1.) in
  let oracle = Inference.exact inst in
  let order = ident_order 5 in
  let sample inst rng = Some (Sequential_sampler.sample oracle inst ~order ~rng) in
  let rng = Rng.create 71L in
  let est =
    Reductions.log_partition_via_sampling ~sample inst ~order ~samples:4_000 ~rng
  in
  let truth = log (Exact.partition inst) in
  checkb "sampled counting close" true (Float.abs (est -. truth) < 0.1)

let test_monte_carlo_all_failures () =
  let rng = Rng.create 33L in
  checkb "none" true
    (Reductions.monte_carlo_marginal ~sample:(fun _ -> None) ~q:2 ~samples:10 ~rng 0
    = None)

(* --- JVV statistical exactness (Theorem 4.2, Monte-Carlo side) --- *)

let test_jvv_empirical_exactness () =
  (* Lemma 4.8: conditioned on success with zero clamps, the JVV output is
     exactly mu.  The symbolic machine-precision check lives in
     test_jvv.ml; here the claim additionally faces a chi-square
     goodness-of-fit test over 20k domain-parallel trials against the
     enumerated Gibbs distribution, at an explicit significance level. *)
  let inst =
    Instance.unpinned (Models.hardcore (Generators.cycle 7) ~lambda:1.3)
  in
  let oracle = Inference.exact inst in
  let order = ident_order 7 in
  let epsilon = 1e-6 in
  let trials = 20_000 in
  let results =
    Par.run_trials ~n:trials ~seed:97L (fun rng ->
        Jvv.run oracle ~epsilon inst ~order ~rng)
  in
  let emp = Empirical.create () in
  let clamps = ref 0 in
  Array.iter
    (fun r ->
      clamps := !clamps + r.Jvv.clamped;
      if r.Jvv.success then Empirical.add emp r.Jvv.y)
    results;
  Alcotest.check Alcotest.int "no clamps with the exact oracle" 0 !clamps;
  checkb "success probability ~1 at epsilon=1e-6" true
    (Empirical.total emp > trials * 9 / 10);
  Test_statistics.check_gof "JVV conditional law vs enumerated Gibbs"
    ~significance:0.001 emp (Exact.joint inst)

(* --- Glauber dynamics baseline --- *)

let test_glauber_preserves_feasibility () =
  let inst = Instance.unpinned (Models.coloring (Generators.cycle 7) ~q:3) in
  let st = Glauber.init inst in
  let rng = Rng.create 41L in
  for _i = 1 to 200 do
    Glauber.step st rng;
    checkb "always proper" true (Ls_gibbs.Spec.weight inst.Instance.spec st.Glauber.config > 0.)
  done

let test_glauber_respects_pins () =
  let inst =
    Instance.of_pins (Models.hardcore (Generators.cycle 6) ~lambda:1.) [ (0, 1) ]
  in
  let st = Glauber.init inst in
  let rng = Rng.create 43L in
  for _i = 1 to 100 do
    Glauber.sweep st rng;
    checkb "pin immutable" true (st.Glauber.config.(0) = 1)
  done

let test_glauber_converges () =
  let inst = Instance.unpinned (Models.hardcore (Generators.path 4) ~lambda:1.) in
  let rng = Rng.create 47L in
  let emp = Empirical.create () in
  List.iter (Empirical.add emp)
    (Glauber.sample_many inst ~sweeps:50 ~thin:5 ~count:20_000 ~rng);
  checkb "stationary close to target" true
    (Empirical.tv_against emp (Exact.joint inst) < 0.03)

let test_glauber_init_from_validates () =
  let inst =
    Instance.of_pins (Models.hardcore (Generators.path 3) ~lambda:1.) [ (0, 1) ]
  in
  Alcotest.check_raises "pin violation"
    (Invalid_argument "Glauber.init_from: configuration violates the pinning")
    (fun () -> ignore (Glauber.init_from inst [| 0; 0; 0 |]))

let qcheck_sequential_sampler_feasible =
  QCheck.Test.make ~name:"chain-rule samples are always feasible" ~count:30
    QCheck.(pair small_int (int_range 3 8))
    (fun (seed, n) ->
      let rng = Rng.of_int seed in
      let g = Generators.random_tree rng n in
      let inst = Instance.unpinned (Models.hardcore g ~lambda:(0.5 +. Rng.float rng)) in
      let oracle = Inference.ssm_oracle ~t:2 inst in
      let sigma =
        Sequential_sampler.sample oracle inst ~order:(Rng.permutation rng n) ~rng
      in
      Ls_gibbs.Spec.weight inst.Instance.spec sigma > 0.)

let suite =
  [
    Alcotest.test_case "exact oracle -> exact distribution" `Quick
      test_exact_oracle_gives_exact_distribution;
    Alcotest.test_case "order invariance" `Quick test_order_invariance_with_exact_oracle;
    Alcotest.test_case "pinning respected" `Quick test_sampler_respects_pinning;
    Alcotest.test_case "empirical TV" `Quick test_sampler_empirical_tv;
    Alcotest.test_case "approx oracle TV bound" `Quick test_approx_oracle_sampler_tv_bound;
    Alcotest.test_case "slocal run certifies locality" `Quick
      test_sample_slocal_matches_plain;
    Alcotest.test_case "chain-rule probability" `Quick test_chain_rule_probability;
    Alcotest.test_case "order validation" `Quick test_order_validation;
    Alcotest.test_case "LOCAL sampler runs" `Quick test_local_sampler_feasible_and_accounted;
    Alcotest.test_case "LOCAL sampler empirical" `Slow test_local_sampler_empirical;
    Alcotest.test_case "LOCAL sampler reproducible" `Quick
      test_local_sampler_deterministic_in_seed;
    Alcotest.test_case "sampling->inference exact reconstruction" `Quick
      test_marginal_of_chain_sampler;
    Alcotest.test_case "sampling->inference monte carlo" `Quick test_monte_carlo_marginal;
    Alcotest.test_case "monte carlo all-failures" `Quick test_monte_carlo_all_failures;
    Alcotest.test_case "counting from sampling" `Slow test_log_partition_via_sampling;
    Alcotest.test_case "JVV empirical exactness (chi-square)" `Slow
      test_jvv_empirical_exactness;
    Alcotest.test_case "glauber feasibility" `Quick test_glauber_preserves_feasibility;
    Alcotest.test_case "glauber pins" `Quick test_glauber_respects_pins;
    Alcotest.test_case "glauber converges" `Slow test_glauber_converges;
    Alcotest.test_case "glauber init_from validation" `Quick
      test_glauber_init_from_validates;
    QCheck_alcotest.to_alcotest qcheck_sequential_sampler_feasible;
  ]
