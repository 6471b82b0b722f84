(* Tests for Gibbs specs, models, exact engines and local admissibility. *)

module Graph = Ls_graph.Graph
module Generators = Ls_graph.Generators
module Dist = Ls_dist.Dist
module Rng = Ls_rng.Rng
module Config = Ls_gibbs.Config
module Spec = Ls_gibbs.Spec
module Models = Ls_gibbs.Models
module Enumerate = Ls_gibbs.Enumerate
module Forest_dp = Ls_gibbs.Forest_dp
module Admissible = Ls_gibbs.Admissible
module Matching = Ls_gibbs.Matching
module Hypergraph = Ls_graph.Hypergraph
module Hypergraph_matching = Ls_gibbs.Hypergraph_matching

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

(* --- configurations --- *)

let test_config () =
  let tau = Config.of_pinning 4 [ (1, 2); (3, 0) ] in
  checkb "assigned" true (Config.is_assigned tau 1);
  checkb "unassigned" false (Config.is_assigned tau 0);
  checki "num assigned" 2 (Config.num_assigned tau);
  Alcotest.check (Alcotest.list Alcotest.int) "domain" [ 1; 3 ]
    (Config.assigned_vertices tau)

let test_config_conflict () =
  Alcotest.check_raises "conflict"
    (Invalid_argument "Config.of_pinning: conflicting pinning") (fun () ->
      ignore (Config.of_pinning 3 [ (0, 1); (0, 2) ]))

let test_config_diff () =
  let a = Config.of_pinning 4 [ (0, 1); (1, 1) ] in
  let b = Config.of_pinning 4 [ (0, 1); (2, 0) ] in
  Alcotest.check (Alcotest.list Alcotest.int) "diff" [ 1; 2 ]
    (Config.diff_domain a b)

(* --- counting known values --- *)

let count_configs spec = Enumerate.count_feasible spec

let test_hardcore_counts () =
  (* Independent sets: P2 -> 3, P3 -> 5, C5 -> 11 (Lucas number). *)
  checki "P2" 3 (count_configs (Models.hardcore (Generators.path 2) ~lambda:1.));
  checki "P3" 5 (count_configs (Models.hardcore (Generators.path 3) ~lambda:1.));
  checki "C5" 11 (count_configs (Models.hardcore (Generators.cycle 5) ~lambda:1.))

let test_hardcore_partition () =
  (* P2: Z = 1 + 2λ. *)
  let spec = Models.hardcore (Generators.path 2) ~lambda:0.7 in
  checkf "Z" (1. +. (2. *. 0.7)) (Enumerate.partition spec (Config.empty 2));
  (* P3: Z = 1 + 3λ + λ². *)
  let spec3 = Models.hardcore (Generators.path 3) ~lambda:2. in
  checkf "Z3" (1. +. 6. +. 4.) (Enumerate.partition spec3 (Config.empty 3))

let test_coloring_counts () =
  (* Triangle with 3 colors: 3! = 6; C4 with 3 colors: 2^4 + 2 = 18. *)
  checki "K3 q=3" 6 (count_configs (Models.coloring (Generators.cycle 3) ~q:3));
  checki "C4 q=3" 18 (count_configs (Models.coloring (Generators.cycle 4) ~q:3));
  checki "P3 q=2" 2 (count_configs (Models.coloring (Generators.path 3) ~q:2))

let test_matching_counts () =
  (* Matchings: P3 has 3, C4 has 7 (empty, 4 single edges, 2 opposite pairs). *)
  let m3 = Matching.make (Generators.path 3) ~lambda:1. in
  checki "P3 matchings" 3 (count_configs m3.Matching.spec);
  let c4 = Matching.make (Generators.cycle 4) ~lambda:1. in
  checki "C4 matchings" 7 (count_configs c4.Matching.spec)

let test_matching_validity () =
  let m = Matching.make (Generators.cycle 4) ~lambda:1. in
  List.iter
    (fun (sigma, _) ->
      checkb "every feasible config is a matching" true (Matching.is_matching m sigma))
    (Enumerate.distribution m.Matching.spec
       (Config.empty (Graph.n m.Matching.lg.Ls_graph.Line_graph.line)))

let test_ising_partition () =
  (* Single edge Ising, no field: Z = 2β + 2. *)
  let spec = Models.ising (Generators.path 2) ~beta:0.4 ~field:1. in
  checkf "Z" (2. +. (2. *. 0.4)) (Enumerate.partition spec (Config.empty 2))

let test_hypergraph_matching_counts () =
  (* Two disjoint hyperedges: matchings = all subsets = 4.
     Two intersecting: 3. *)
  let h1 = Hypergraph.create ~n:6 ~hyperedges:[ [ 0; 1; 2 ]; [ 3; 4; 5 ] ] in
  let hm1 = Hypergraph_matching.make h1 ~lambda:1. in
  checki "disjoint" 4 (count_configs hm1.Hypergraph_matching.spec);
  let h2 = Hypergraph.create ~n:5 ~hyperedges:[ [ 0; 1; 2 ]; [ 2; 3; 4 ] ] in
  let hm2 = Hypergraph_matching.make h2 ~lambda:1. in
  checki "intersecting" 3 (count_configs hm2.Hypergraph_matching.spec)

let test_potts () =
  (* Single edge: Z = q*beta + q(q-1). *)
  let spec = Models.potts (Generators.path 2) ~q:3 ~beta:2. in
  checkf "Z" ((3. *. 2.) +. 6.) (Enumerate.partition spec (Config.empty 2));
  (* beta = 0 degenerates to proper colorings. *)
  let p0 = Models.potts (Generators.cycle 4) ~q:3 ~beta:0. in
  checki "beta=0 = colorings" 18 (count_configs p0);
  (* Thresholds. *)
  checkf "potts threshold" (2. /. 5.) (Models.potts_uniqueness_threshold ~q:3 ~delta:5);
  checkf "q >= delta" 0. (Models.potts_uniqueness_threshold ~q:5 ~delta:4)

let qcheck_greedy_never_fails_when_admissible =
  (* Remark 2.3: for locally admissible specs the sequential local
     oblivious construction always completes from a feasible pinning. *)
  QCheck.Test.make ~name:"greedy extension completes on hardcore (admissible)"
    ~count:50
    QCheck.(pair small_int (int_range 2 8))
    (fun (seed, n) ->
      let rng = Rng.of_int seed in
      let g = Generators.erdos_renyi rng ~n ~p:0.4 in
      let spec = Models.hardcore g ~lambda:(0.2 +. Rng.float rng) in
      let tau = Config.empty n in
      for v = 0 to n - 1 do
        if Rng.bernoulli rng 0.3 then tau.(v) <- Rng.int rng 2
      done;
      (not (Enumerate.feasible spec tau))
      ||
      match Admissible.greedy_extension spec tau with
      | None -> false
      | Some sigma -> Spec.weight spec sigma > 0.)

(* --- thresholds --- *)

let test_thresholds () =
  checkf "hardcore D=3" 4. (Models.hardcore_uniqueness_threshold 3);
  checkf "hardcore D=4" (27. /. 16.) (Models.hardcore_uniqueness_threshold 4);
  checkb "D=2 infinite" true (Models.hardcore_uniqueness_threshold 2 = infinity);
  checkf "ising D=4" 0.5 (Models.ising_uniqueness_threshold 4);
  checkb "alpha* root" true
    (Float.abs (Models.coloring_alpha_star -. exp (1. /. Models.coloring_alpha_star))
    < 1e-9);
  checkb "alpha* value" true (Float.abs (Models.coloring_alpha_star -. 1.7632) < 1e-3);
  (* Rank-2 hypergraph matching threshold degenerates to the hardcore one. *)
  checkf "rank 2 = hardcore"
    (Models.hardcore_uniqueness_threshold 4)
    (Hypergraph_matching.uniqueness_threshold ~rank:2 ~delta:4)

(* --- marginals --- *)

let test_marginal_path2 () =
  (* P2 hardcore λ: μ_0(1) = λ(1) / (1+2λ) — occupied mass at 0 is λ·1
     (neighbor must be empty). *)
  let lambda = 0.9 in
  let spec = Models.hardcore (Generators.path 2) ~lambda in
  match Enumerate.marginal spec (Config.empty 2) 0 with
  | None -> Alcotest.fail "feasible"
  | Some d -> checkf "occupied mass" (lambda /. (1. +. (2. *. lambda))) (Dist.prob d 1)

let test_marginal_conditional () =
  (* Pinning a neighbor occupied forces v empty in hardcore. *)
  let spec = Models.hardcore (Generators.path 3) ~lambda:1. in
  let tau = Config.of_pinning 3 [ (1, 1) ] in
  (match Enumerate.marginal spec tau 0 with
  | None -> Alcotest.fail "feasible"
  | Some d -> checkf "forced empty" 1. (Dist.prob d 0));
  match Enumerate.marginal spec tau 1 with
  | None -> Alcotest.fail "feasible"
  | Some d -> checkf "pinned is point mass" 1. (Dist.prob d 1)

let test_marginal_infeasible () =
  let spec = Models.hardcore (Generators.path 2) ~lambda:1. in
  let tau = Config.of_pinning 2 [ (0, 1); (1, 1) ] in
  checkb "infeasible" true (Enumerate.marginal spec tau 0 = None);
  checkb "partition zero" true (Enumerate.partition spec tau = 0.)

let test_distribution_sums_to_one () =
  let spec = Models.coloring (Generators.cycle 4) ~q:3 in
  let dist = Enumerate.distribution spec (Config.empty 4) in
  let total = List.fold_left (fun acc (_, p) -> acc +. p) 0. dist in
  checkf "sums to 1" 1. total;
  checki "support size" 18 (List.length dist)

let test_ball_marginal_matches_conditional_independence () =
  (* If the pinning separates the ball from the rest, the ball marginal is
     the true marginal (Proposition 2.1). *)
  let g = Generators.path 5 in
  let spec = Models.hardcore g ~lambda:1.3 in
  let tau = Config.of_pinning 5 [ (3, 0) ] in
  let ball = [| 0; 1; 2; 3 |] in
  let ball_m = Option.get (Enumerate.ball_marginal spec ~ball tau 1) in
  let full_m = Option.get (Enumerate.marginal spec tau 1) in
  checkb "separator makes ball exact" true (Dist.tv ball_m full_m < 1e-12)

(* --- conditional (Glauber kernel) --- *)

let test_conditional_matches_enumeration () =
  let g = Generators.cycle 4 in
  let spec = Models.coloring g ~q:3 in
  let sigma = Config.of_pinning 4 [ (1, 0); (2, 1); (3, 2) ] in
  let cond = Option.get (Spec.conditional spec sigma 0) in
  (* Enumerate with everything else pinned. *)
  let exact = Option.get (Enumerate.marginal spec sigma 0) in
  checkb "glauber conditional = conditional marginal" true (Dist.tv cond exact < 1e-12)

let test_conditional_infeasible () =
  let spec = Models.coloring (Generators.path 2) ~q:1 in
  let sigma = Config.of_pinning 2 [ (1, 0) ] in
  checkb "no valid color" true (Spec.conditional spec sigma 0 = None)

(* --- spec utilities --- *)

let test_weight_and_locality () =
  let g = Generators.path 3 in
  let spec = Models.hardcore g ~lambda:2. in
  checki "pairwise locality" 1 (Spec.locality spec);
  let sigma = Config.of_pinning 3 [ (0, 1); (1, 0); (2, 1) ] in
  checkf "weight λ²" 4. (Spec.weight spec sigma);
  let bad = Config.of_pinning 3 [ (0, 1); (1, 1); (2, 0) ] in
  checkf "violating weight 0" 0. (Spec.weight spec bad)

let test_weight_in () =
  let g = Generators.path 3 in
  let spec = Models.hardcore g ~lambda:2. in
  let sigma = Config.of_pinning 3 [ (0, 1); (1, 0) ] in
  (* Factors inside {0,1}: vertex 0, vertex 1, edge 01. *)
  let w = Spec.weight_in spec ~member:(fun v -> v <= 1) sigma in
  checkf "w_B" 2. w

let test_locally_feasible () =
  let spec = Models.hardcore (Generators.path 3) ~lambda:1. in
  let ok = Config.of_pinning 3 [ (0, 1); (2, 1) ] in
  checkb "non-adjacent occupied ok" true (Spec.locally_feasible spec ok);
  let bad = Config.of_pinning 3 [ (0, 1); (1, 1) ] in
  checkb "adjacent occupied bad" false (Spec.locally_feasible spec bad)

(* --- forest DP vs enumeration --- *)

let random_two_spin rng g =
  let beta = Rng.float rng *. 2. in
  let gamma = Rng.float rng *. 2. in
  let lambda = 0.1 +. (Rng.float rng *. 2.) in
  Models.two_spin g ~beta ~gamma ~lambda

let test_forest_dp_matches_enumeration_trees () =
  let rng = Rng.create 51L in
  for _trial = 1 to 40 do
    let n = 2 + Rng.int rng 8 in
    let g = Generators.random_tree rng n in
    let spec = random_two_spin rng g in
    (* Random pinning of a few vertices. *)
    let tau = Config.empty n in
    for v = 0 to n - 1 do
      if Rng.bernoulli rng 0.3 then tau.(v) <- Rng.int rng 2
    done;
    for v = 0 to n - 1 do
      let e = Enumerate.marginal spec tau v in
      let f = Forest_dp.marginal spec tau v in
      match (e, f) with
      | None, None -> ()
      | Some de, Some df ->
          checkb "engines agree" true (Dist.tv de df < 1e-9)
      | _ -> Alcotest.fail "feasibility disagreement"
    done
  done

let test_forest_dp_ball_on_cycle () =
  (* Balls of radius < n/2 on a cycle induce paths: DP applies and matches
     enumeration. *)
  let rng = Rng.create 52L in
  let g = Generators.cycle 9 in
  let spec = Models.hardcore g ~lambda:1.5 in
  for _trial = 1 to 20 do
    let v = Rng.int rng 9 in
    let ball = Graph.ball g v 3 in
    let tau = Config.empty 9 in
    if Rng.bernoulli rng 0.5 then tau.((v + 3) mod 9) <- Rng.int rng 2;
    let e = Option.get (Enumerate.ball_marginal spec ~ball tau v) in
    let f =
      match Forest_dp.ball_marginal spec ~ball tau v with
      | Forest_dp.Marginal m -> Option.get m
      | Forest_dp.Not_forest -> Alcotest.fail "path ball reported as not a forest"
    in
    checkb "ball engines agree" true (Dist.tv e f < 1e-9)
  done

let test_forest_dp_disconnected () =
  (* A pinned-empty far component must not disturb the marginal; an
     infeasible far component must kill it. *)
  let g = Graph.create ~n:4 ~edges:[ (0, 1); (2, 3) ] in
  let spec = Models.hardcore g ~lambda:1. in
  let tau = Config.of_pinning 4 [ (2, 1); (3, 1) ] in
  checkb "infeasible elsewhere" true (Forest_dp.marginal spec tau 0 = None);
  checkb "matches enumeration" true (Enumerate.marginal spec tau 0 = None)

(* --- local admissibility --- *)

let test_hardcore_admissible () =
  checkb "hardcore is locally admissible" true
    (Admissible.is_locally_admissible (Models.hardcore (Generators.cycle 4) ~lambda:1.))

let test_coloring_admissibility_threshold () =
  let p3 = Generators.path 3 in
  checkb "3 colors on a path: admissible" true
    (Admissible.is_locally_admissible (Models.coloring p3 ~q:3));
  (* 2 colors on a path: pin the endpoints with equal colors — locally
     feasible but globally infeasible (parity). *)
  checkb "2 colors on a path: not admissible" false
    (Admissible.is_locally_admissible (Models.coloring p3 ~q:2));
  match Admissible.counterexample (Models.coloring p3 ~q:2) with
  | None -> Alcotest.fail "expected counterexample"
  | Some tau ->
      checkb "locally feasible" true (Spec.locally_feasible (Models.coloring p3 ~q:2) tau);
      checkb "infeasible" false (Enumerate.feasible (Models.coloring p3 ~q:2) tau)

let test_greedy_extension () =
  let spec = Models.coloring (Generators.cycle 5) ~q:3 in
  let tau = Config.of_pinning 5 [ (0, 0) ] in
  (match Admissible.greedy_extension spec tau with
  | None -> Alcotest.fail "greedy should succeed"
  | Some sigma ->
      checkb "total" true (Config.is_total sigma);
      checkb "feasible" true (Spec.weight spec sigma > 0.));
  (* Greedy cannot fix a 2-coloring parity trap: endpoints of a 2-path
     pinned to different colors leave no color for the middle vertex. *)
  let spec2 = Models.coloring (Generators.path 3) ~q:2 in
  let trap = Config.of_pinning 3 [ (0, 0); (2, 1) ] in
  checkb "greedy stuck" true (Admissible.greedy_extension spec2 trap = None)

(* --- property tests --- *)

let qcheck_partition_additivity =
  QCheck.Test.make ~name:"Z(tau) = Σ_c Z(tau ∧ v=c)" ~count:60
    QCheck.(pair small_int (int_range 2 6))
    (fun (seed, n) ->
      let rng = Rng.of_int seed in
      let g = Generators.random_tree rng n in
      let spec = random_two_spin rng g in
      let tau = Config.empty n in
      let v = Rng.int rng n in
      let z = Enumerate.partition spec tau in
      let z' =
        List.fold_left
          (fun acc c -> acc +. Enumerate.partition spec (Config.of_pinning n [ (v, c) ]))
          0. (List.init 2 (fun c -> c))
      in
      Float.abs (z -. z') <= 1e-9 *. Float.max 1. z)

let qcheck_marginal_chain_rule =
  QCheck.Test.make ~name:"μ(σ) = Π chain-rule marginals" ~count:40
    QCheck.(pair small_int (int_range 2 5))
    (fun (seed, n) ->
      let rng = Rng.of_int seed in
      let g = Generators.erdos_renyi rng ~n ~p:0.5 in
      let spec = random_two_spin rng g in
      let dist = Enumerate.distribution spec (Config.empty n) in
      List.for_all
        (fun (sigma, p) ->
          let prod = ref 1. in
          let tau = Config.empty n in
          for v = 0 to n - 1 do
            (match Enumerate.marginal spec tau v with
            | Some m -> prod := !prod *. Dist.prob m sigma.(v)
            | None -> prod := 0.);
            tau.(v) <- sigma.(v)
          done;
          Float.abs (p -. !prod) < 1e-9)
        dist)

let qcheck_forest_dp_equiv =
  QCheck.Test.make ~name:"forest DP ≡ enumeration on random trees" ~count:40
    QCheck.(pair small_int (int_range 2 7))
    (fun (seed, n) ->
      let rng = Rng.of_int seed in
      let g = Generators.random_tree rng n in
      let spec = random_two_spin rng g in
      let tau = Config.empty n in
      if n > 1 && Rng.bernoulli rng 0.5 then tau.(Rng.int rng n) <- Rng.int rng 2;
      List.for_all
        (fun v ->
          match (Enumerate.marginal spec tau v, Forest_dp.marginal spec tau v) with
          | None, None -> true
          | Some a, Some b -> Dist.tv a b < 1e-9
          | _ -> false)
        (List.init n (fun v -> v)))

let suite =
  [
    Alcotest.test_case "config basics" `Quick test_config;
    Alcotest.test_case "config conflicts" `Quick test_config_conflict;
    Alcotest.test_case "config diff" `Quick test_config_diff;
    Alcotest.test_case "hardcore counts" `Quick test_hardcore_counts;
    Alcotest.test_case "hardcore partition" `Quick test_hardcore_partition;
    Alcotest.test_case "coloring counts" `Quick test_coloring_counts;
    Alcotest.test_case "matching counts" `Quick test_matching_counts;
    Alcotest.test_case "matching validity" `Quick test_matching_validity;
    Alcotest.test_case "ising partition" `Quick test_ising_partition;
    Alcotest.test_case "potts model" `Quick test_potts;
    QCheck_alcotest.to_alcotest qcheck_greedy_never_fails_when_admissible;
    Alcotest.test_case "hypergraph matching counts" `Quick test_hypergraph_matching_counts;
    Alcotest.test_case "uniqueness thresholds" `Quick test_thresholds;
    Alcotest.test_case "marginal on P2" `Quick test_marginal_path2;
    Alcotest.test_case "conditional marginal" `Quick test_marginal_conditional;
    Alcotest.test_case "infeasible pinning" `Quick test_marginal_infeasible;
    Alcotest.test_case "distribution normalized" `Quick test_distribution_sums_to_one;
    Alcotest.test_case "ball marginal + separator" `Quick
      test_ball_marginal_matches_conditional_independence;
    Alcotest.test_case "glauber conditional" `Quick test_conditional_matches_enumeration;
    Alcotest.test_case "conditional infeasible" `Quick test_conditional_infeasible;
    Alcotest.test_case "weight and locality" `Quick test_weight_and_locality;
    Alcotest.test_case "ball-restricted weight" `Quick test_weight_in;
    Alcotest.test_case "local feasibility" `Quick test_locally_feasible;
    Alcotest.test_case "forest DP = enumeration (trees)" `Quick
      test_forest_dp_matches_enumeration_trees;
    Alcotest.test_case "forest DP on cycle balls" `Quick test_forest_dp_ball_on_cycle;
    Alcotest.test_case "forest DP disconnected" `Quick test_forest_dp_disconnected;
    Alcotest.test_case "hardcore admissible" `Quick test_hardcore_admissible;
    Alcotest.test_case "coloring admissibility" `Quick
      test_coloring_admissibility_threshold;
    Alcotest.test_case "greedy extension" `Quick test_greedy_extension;
    QCheck_alcotest.to_alcotest qcheck_partition_additivity;
    QCheck_alcotest.to_alcotest qcheck_marginal_chain_rule;
    QCheck_alcotest.to_alcotest qcheck_forest_dp_equiv;
  ]
