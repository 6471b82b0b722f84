(* The paper-reproduction harness: one section per experiment E1-E10 of
   DESIGN.md.  Each prints the series the corresponding theorem predicts;
   EXPERIMENTS.md records claim-vs-measurement.

   All row sweeps and Monte-Carlo trial loops fan out over the
   deterministic domain-parallel engine (Ls_par.Par): rows/trials are
   computed in parallel under the engine's seed-splitting contract and
   printed sequentially afterwards, so stdout is bit-for-bit identical at
   every LOCSAMPLE_DOMAINS setting. *)

module Graph = Ls_graph.Graph
module Generators = Ls_graph.Generators
module Hypergraph = Ls_graph.Hypergraph
module Dist = Ls_dist.Dist
module Empirical = Ls_dist.Empirical
module Rng = Ls_rng.Rng
module Par = Ls_par.Par
module Config = Ls_gibbs.Config
module Models = Ls_gibbs.Models
module Matching = Ls_gibbs.Matching
module Matching_dp = Ls_gibbs.Matching_dp
module Hypergraph_matching = Ls_gibbs.Hypergraph_matching
module Scheduler = Ls_local.Scheduler
open Ls_core

let ident_order n = Array.init n (fun i -> i)

let tv_support a b =
  let lookup sigma l = try List.assoc sigma l with Not_found -> 0. in
  0.5
  *. (List.fold_left (fun acc (s, p) -> acc +. Float.abs (p -. lookup s a)) 0. b
     +. List.fold_left
          (fun acc (s, p) -> if List.mem_assoc s b then acc else acc +. p)
          0. a)

let log2 x = log x /. log 2.

(* ------------------------------------------------------------------ *)
(* E1 — Theorem 3.2: approximate inference => approximate sampling.    *)
(* ------------------------------------------------------------------ *)

let e1 () =
  (* Part A: symbolic total-variation error of the chain-rule sampler
     driven by the SSM inference oracle at ball radius t, against the exact
     joint distribution.  Paper shape: output TV <= n * per-site error,
     and the per-site error is the SSM rate, so the output error decays
     geometrically in t. *)
  let n = 10 in
  let inst = Instance.unpinned (Models.hardcore (Generators.cycle n) ~lambda:1.) in
  let exact = Exact.joint inst in
  let rows =
    Par.map_seeded ~seed:7L
      (fun t rng ->
        let oracle = Inference.ssm_oracle ~t inst in
        let out = Sequential_sampler.output_distribution oracle inst ~order:(ident_order n) in
        let tv = tv_support out exact in
        let site = (Ssm.influence_at ~rng inst ~v:0 ~d:t).Ssm.tv in
        [ Table.i t; Table.e site; Table.e (float_of_int n *. site); Table.e tv ])
      [ 1; 2; 3; 4 ]
  in
  Table.print ~title:"E1a  inference => sampling (hardcore C10, lambda=1)"
    ~note:
      "Output TV of the chain-rule sampler vs oracle radius t; the paper's\n\
       coupling bound is n * (per-site error), per-site error = SSM rate."
    ~header:[ "t"; "site_err"; "n*site_err"; "output_tv" ]
    rows;
  (* Part B: LOCAL compilation round complexity, O(r log^2 n). *)
  let rows =
    Par.map_list
      (fun n ->
        let inst = Instance.unpinned (Models.hardcore (Generators.cycle n) ~lambda:1.) in
        let oracle = Inference.ssm_oracle ~t:2 inst in
        let r = Local_sampler.sample oracle inst ~seed:(Int64.of_int (100 + n)) in
        let s = r.Local_sampler.stats in
        let fn = float_of_int n in
        let normalized =
          float_of_int r.Local_sampler.rounds
          /. (float_of_int oracle.Inference.radius *. log2 fn *. log2 fn)
        in
        [
          Table.i n;
          Table.i r.Local_sampler.rounds;
          Table.i s.Scheduler.colors;
          Table.i s.Scheduler.clusters;
          Table.i s.Scheduler.failures;
          Table.f ~digits:2 normalized;
        ])
      [ 16; 32; 64; 128; 256 ]
  in
  Table.print ~title:"E1b  LOCAL rounds of the compiled sampler (hardcore cycles)"
    ~note:
      "Theorem 3.2 predicts O(r log^2 n) rounds; the last column\n\
       (rounds / (r log^2 n)) should stay bounded as n grows."
    ~header:[ "n"; "rounds"; "colors"; "clusters"; "failures"; "rounds/(r*log^2 n)" ]
    rows

(* ------------------------------------------------------------------ *)
(* E2 — Theorem 3.4: approximate sampling => approximate inference.    *)
(* ------------------------------------------------------------------ *)

let e2 () =
  let n = 8 in
  let inst = Instance.unpinned (Models.hardcore (Generators.cycle n) ~lambda:1.) in
  let oracle = Inference.ssm_oracle ~t:2 inst in
  let order = ident_order n in
  let exact_marginal v = Option.get (Exact.marginal inst v) in
  (* Exact reconstruction (the paper's enumeration of the sampler's
     randomness, realized symbolically). *)
  let worst_exact =
    List.fold_left
      (fun acc v ->
        Float.max acc
          (Dist.tv (Reductions.marginal_of_chain_sampler oracle inst ~order v)
             (exact_marginal v)))
      0.
      (List.init n (fun v -> v))
  in
  (* Monte-Carlo reconstruction from black-box sampler runs: draw the
     sampler outputs in parallel (one seed-split stream per run), then
     read every vertex marginal off the same empirical multiset. *)
  let mc samples =
    let emp =
      Empirical.collect ~n:samples ~seed:31L (fun rng ->
          Sequential_sampler.sample oracle inst ~order ~rng)
    in
    List.fold_left
      (fun acc v ->
        Float.max acc
          (Dist.tv
             (Dist.of_weights (Empirical.marginal emp ~v ~q:2))
             (exact_marginal v)))
      0.
      (List.init n (fun v -> v))
  in
  let rows =
    [ "exact reconstruction"; "500 samples"; "2000 samples"; "8000 samples" ]
    |> List.mapi (fun i label ->
           let err =
             match i with
             | 0 -> worst_exact
             | 1 -> mc 500
             | 2 -> mc 2000
             | _ -> mc 8000
           in
           [ label; Table.e err ])
  in
  Table.print ~title:"E2  sampling => inference (hardcore C8, t=2 oracle)"
    ~note:
      "Worst per-vertex marginal TV of the reconstructed inference.  The\n\
       theorem bounds the exact reconstruction by the sampler error delta\n\
       (+ failure mass); Monte Carlo adds the usual statistical noise."
    ~header:[ "reconstruction"; "worst marginal TV" ]
    rows

(* ------------------------------------------------------------------ *)
(* E3 — Lemma 4.1: boosting additive error to multiplicative error.    *)
(* ------------------------------------------------------------------ *)

let e3 () =
  let n = 12 in
  let inst =
    Instance.of_pins (Models.hardcore (Generators.cycle n) ~lambda:1.5) [ (6, 1) ]
  in
  let exact = Option.get (Exact.marginal inst 0) in
  let rows =
    Par.map_list
      (fun t ->
        let aplus = Inference.ssm_oracle ~t inst in
        let boosted = Boosting.boost aplus inst in
        let plain = aplus.Inference.infer inst 0 in
        let b = boosted.Inference.infer inst 0 in
        [
          Table.i t;
          Table.e (Dist.tv plain exact);
          Table.e (Dist.mult_err plain exact);
          Table.e (Dist.tv b exact);
          Table.e (Dist.mult_err b exact);
          Table.i boosted.Inference.radius;
        ])
      [ 1; 2; 3 ]
  in
  Table.print ~title:"E3  boosting lemma (hardcore C12, lambda=1.5, pinned v6=1)"
    ~note:
      "The boosted algorithm A* spends 2t+l radius but converts additive\n\
       (TV) accuracy into multiplicative accuracy (err = max |ln ratio|)."
    ~header:[ "t"; "tv_plain"; "mult_plain"; "tv_boosted"; "mult_boosted"; "radius_boosted" ]
    rows

(* ------------------------------------------------------------------ *)
(* E4 — Theorem 4.2: the distributed JVV exact sampler.                *)
(* ------------------------------------------------------------------ *)

let e4 () =
  (* Part A: slack sweep with a deliberately coarse oracle.  Paper shape:
     once the slack absorbs the oracle error (no clamps), the conditional
     law is exact; more slack only costs success probability. *)
  let n = 9 in
  let inst = Instance.unpinned (Models.hardcore (Generators.cycle n) ~lambda:2.5) in
  let oracle = Inference.ssm_oracle ~t:1 inst in
  let order = ident_order n in
  let exact = Exact.joint inst in
  let raw = Sequential_sampler.output_distribution oracle inst ~order in
  Printf.printf "\nE4: raw chain-rule bias of the t=1 oracle on C9: TV = %s\n"
    (Table.e (tv_support raw exact));
  let rows =
    Par.map_list
      (fun epsilon ->
        let out = Jvv.output_distribution oracle ~epsilon inst ~order in
        [
          Table.f ~digits:3 epsilon;
          Table.i out.Jvv.total_clamps;
          Table.e out.Jvv.success_probability;
          Table.e (tv_support out.Jvv.conditional exact);
        ])
      [ 0.01; 0.05; 0.1; 0.2 ]
  in
  Table.print ~title:"E4a  JVV slack sweep (hardcore C9, lambda=2.5, t=1 oracle)"
    ~note:
      "cond_TV collapses to ~0 exactly when clamps reach 0: rejection\n\
       sampling buys exactness, paying with success probability."
    ~header:[ "epsilon"; "clamps"; "success_prob"; "cond_TV" ]
    rows;
  (* Part B: success probability across n at the paper's error budget,
     with an oracle radius covering the instance (the regime Theorem 4.2
     assumes: oracle error below 1/n^3). *)
  let rows =
    Par.map_list
      (fun n ->
        let inst = Instance.unpinned (Models.hardcore (Generators.cycle n) ~lambda:1.) in
        let oracle = Inference.ssm_oracle ~t:(n / 2) inst in
        let epsilon = Jvv.theory_epsilon inst in
        let out = Jvv.output_distribution oracle ~epsilon inst ~order:(ident_order n) in
        [
          Table.i n;
          Table.e epsilon;
          Table.i out.Jvv.total_clamps;
          Table.f ~digits:4 out.Jvv.success_probability;
          Table.f ~digits:4 (float_of_int n *. (1. -. out.Jvv.success_probability));
          Table.e (tv_support out.Jvv.conditional (Exact.joint inst));
        ])
      [ 6; 8; 10; 12 ]
  in
  Table.print ~title:"E4b  JVV success probability at epsilon = 1/n^3 (hardcore cycles)"
    ~note:
      "Theorem 4.2: failure probability O(1/n), i.e. n*(1-success) bounded;\n\
       conditional law exact (cond_TV ~ 0)."
    ~header:[ "n"; "epsilon"; "clamps"; "success_prob"; "n*(1-succ)"; "cond_TV" ]
    rows;
  (* Part C: ablation — adaptive (window-sized) slack vs the paper's n-sized
     slack, same exactness, better success probability. *)
  let inst = Instance.unpinned (Models.hardcore (Generators.path 12) ~lambda:1.) in
  let oracle = Inference.ssm_oracle ~t:1 inst in
  let order = ident_order 12 in
  let rows =
    Par.map_list
      (fun (label, adaptive) ->
        let out = Jvv.output_distribution oracle ~epsilon:0.2 ~adaptive inst ~order in
        [
          label;
          Table.i out.Jvv.total_clamps;
          Table.e out.Jvv.success_probability;
          Table.e (tv_support out.Jvv.conditional (Exact.joint inst));
        ])
      [ ("paper slack e^{-3n*eps}", false); ("window slack e^{-3|W|*eps}", true) ]
  in
  Table.print ~title:"E4c  slack ablation (hardcore P12, t=1 oracle, eps=0.2)"
    ~header:[ "variant"; "clamps"; "success_prob"; "cond_TV" ]
    rows

(* ------------------------------------------------------------------ *)
(* E5 — Theorem 5.1: inference error tracks strong spatial mixing.     *)
(* ------------------------------------------------------------------ *)

let e5 () =
  (* The transfer-matrix engine makes whole-graph exact marginals cheap on
     cycles, so this sweep runs at n = 64 and distances up to 10. *)
  let n = 64 in
  List.iter
    (fun lambda ->
      let inst = Instance.unpinned (Models.hardcore (Generators.cycle n) ~lambda) in
      let exact = Option.get (Exact.marginal inst 0) in
      let rows =
        Par.map_seeded ~seed:5L
          (fun d rng ->
            let ssm = (Ssm.influence_at ~rng inst ~v:0 ~d).Ssm.tv in
            let inf_err = Dist.tv (Inference.ssm_infer ~t:d inst 0) exact in
            [ Table.i d; Table.e ssm; Table.e inf_err ])
          [ 1; 2; 3; 4; 6; 8; 10 ]
      in
      let curve = Ssm.decay_curve ~rng:(Rng.create 5L) inst ~v:0 ~max_d:8 in
      let rate =
        match Ssm.fit_exponential_rate curve with
        | Some a -> Table.f ~digits:3 a
        | None -> "n/a"
      in
      Table.print
        ~title:
          (Printf.sprintf "E5  SSM vs inference error (hardcore C%d, lambda=%.1f)" n lambda)
        ~note:(Printf.sprintf "Fitted SSM decay rate alpha = %s (per unit distance)." rate)
        ~header:[ "d"; "SSM_tv(d)"; "inference_err(t=d)" ]
        rows)
    [ 0.5; 1.0; 2.0 ];
  (* Engine ablation: the Theorem 5.1 ball algorithm vs Weitz's SAW tree
     at matched information radius. *)
  let inst = Instance.unpinned (Models.hardcore (Generators.cycle n) ~lambda:1.) in
  let exact = Option.get (Exact.marginal inst 0) in
  let rows =
    Par.map_list
      (fun t ->
        let ball = Dist.tv (Inference.ssm_infer ~t inst 0) exact in
        let saw_oracle = Inference.saw_oracle ~depth:t inst in
        let saw = Dist.tv (saw_oracle.Inference.infer inst 0) exact in
        [ Table.i t; Table.e ball; Table.e saw ])
      [ 1; 2; 3; 4; 6; 8 ]
  in
  Table.print ~title:"E5b  inference engine ablation (hardcore C64, lambda=1)"
    ~note:
      "Two implementations of the same oracle contract: annulus-pinned\n\
       ball marginals (Thm 5.1) vs the truncated SAW tree (Weitz).  On a\n\
       cycle the SAW tree IS the annulus-pinned path, so the errors agree\n\
       exactly — a cross-engine consistency check; costs diverge on high-\n\
       degree graphs (ball volume vs Delta^t), see the micro-benches."
    ~header:[ "t"; "err(ball alg)"; "err(SAW tree)" ]
    rows

(* ------------------------------------------------------------------ *)
(* E6 — the computational phase transition (hardcore model).           *)
(* ------------------------------------------------------------------ *)

let e6 () =
  let branching = 2 in
  let lambda_c = Phase_transition.critical_lambda ~branching in
  Printf.printf "\nE6: hardcore on the complete binary tree; lambda_c(Delta=3) = %.3f\n"
    lambda_c;
  let lambdas = [ 1.0; 2.0; 4.0; 8.0; 16.0 ] in
  let rows =
    Par.map_list
      (fun depth ->
        Table.i depth
        :: List.map
             (fun lambda ->
               Table.f ~digits:4
                 (Phase_transition.tree_root_influence ~branching ~depth ~lambda))
             lambdas)
      [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
  in
  Table.print ~title:"E6a  boundary-to-root influence vs depth (rows) and lambda (cols)"
    ~note:
      "Below lambda_c = 4 the influence decays to 0 (uniqueness -> SSM ->\n\
       O(log^3 n) exact sampling); above it persists (the long-range\n\
       correlation behind the Omega(diam) lower bound of [FSY17])."
    ~header:("depth" :: List.map (fun l -> Printf.sprintf "lambda=%.0f" l) lambdas)
    rows;
  let depth = 8 in
  let rows =
    Par.map_list
      (fun ratio ->
        let lambda = ratio *. lambda_c in
        let infl = Phase_transition.tree_root_influence ~branching ~depth ~lambda in
        let deep = Phase_transition.tree_root_influence ~branching ~depth:(depth + 2) ~lambda in
        let status = if ratio < 1. then "uniqueness" else "non-uniqueness" in
        [
          Table.f ~digits:2 ratio;
          Table.f ~digits:3 lambda;
          Table.f ~digits:5 infl;
          Table.f ~digits:5 deep;
          status;
        ])
      [ 0.25; 0.5; 0.75; 1.0; 1.5; 2.0; 4.0 ]
  in
  Table.print ~title:"E6b  influence at depth 8 and 10 across the threshold"
    ~header:[ "lambda/lambda_c"; "lambda"; "influence@8"; "influence@10"; "regime" ]
    rows

(* ------------------------------------------------------------------ *)
(* E7 — matchings: SSM rate 1 - Omega(1/sqrt(Delta)).                  *)
(* ------------------------------------------------------------------ *)

let e7 () =
  (* On the complete (Delta-1)-ary tree, pin the level-d edges all-Out vs a
     maximal valid In set and watch the root edge occupancy. *)
  let influence ~branching ~depth d =
    let g = Generators.complete_tree ~branching ~depth in
    let dist0 = Graph.bfs_distances g 0 in
    let level_edges k =
      List.filter (fun (u, v) -> min dist0.(u) dist0.(v) = k - 1) (Graph.edges g)
    in
    let boundary = level_edges d in
    let all_out = List.map (fun (u, v) -> (u, v, Matching_dp.Out)) boundary in
    (* One In edge per parent: pick the lowest-id child of each parent. *)
    let seen = Hashtbl.create 16 in
    let max_in =
      List.filter_map
        (fun (u, v) ->
          let parent = if dist0.(u) < dist0.(v) then u else v in
          if Hashtbl.mem seen parent then None
          else begin
            Hashtbl.replace seen parent ();
            Some (u, v, Matching_dp.In)
          end)
        boundary
    in
    let root_edge = (0, (Graph.neighbors g 0).(0)) in
    let p pins = Option.get (Matching_dp.edge_marginal g ~lambda:1. ~pins root_edge) in
    Float.abs (p all_out -. p max_in)
  in
  let rows =
    Par.map_list
      (fun delta ->
        let branching = delta - 1 in
        let depth = if branching <= 3 then 7 else 6 in
        let pts =
          List.map
            (fun d -> (float_of_int d, influence ~branching ~depth d))
            [ 2; 3; 4; 5 ]
        in
        (* Least-squares slope of ln(influence) vs d. *)
        let usable = List.filter (fun (_, y) -> y > 0.) pts in
        let n = float_of_int (List.length usable) in
        let sx = List.fold_left (fun a (x, _) -> a +. x) 0. usable in
        let sy = List.fold_left (fun a (_, y) -> a +. log y) 0. usable in
        let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0. usable in
        let sxy = List.fold_left (fun a (x, y) -> a +. (x *. log y)) 0. usable in
        let slope = ((n *. sxy) -. (sx *. sy)) /. ((n *. sxx) -. (sx *. sx)) in
        let alpha = exp slope in
        [
          Table.i delta;
          Table.f ~digits:4 (influence ~branching ~depth 3);
          Table.f ~digits:4 alpha;
          Table.f ~digits:3 (-.log alpha *. sqrt (float_of_int delta));
        ])
      [ 2; 3; 4; 5; 6 ]
  in
  Table.print ~title:"E7  monomer-dimer SSM rate vs max degree (complete trees, lambda=1)"
    ~note:
      "Paper (via [BGKNT07]): decay rate alpha = 1 - Omega(1/sqrt(Delta)),\n\
       i.e. sqrt(Delta) * (-ln alpha) should stay bounded away from 0 and\n\
       roughly constant => O(sqrt(Delta) log^3 n)-round exact sampling."
    ~header:[ "Delta"; "influence@3"; "alpha (fit)"; "sqrt(Delta)*(-ln alpha)" ]
    rows

(* ------------------------------------------------------------------ *)
(* E8 — colorings of triangle-free graphs, q >= alpha* Delta.          *)
(* ------------------------------------------------------------------ *)

let e8 () =
  let branching = 2 in
  let depth = 6 in
  let g = Generators.complete_tree ~branching ~depth in
  let dist0 = Graph.bfs_distances g 0 in
  let delta = Graph.max_degree g in
  Printf.printf
    "\nE8: colorings of the complete binary tree (Delta=%d, triangle-free);\n\
     alpha* = %.4f so the paper's bound asks q >= %.2f\n"
    delta Models.coloring_alpha_star
    (Models.coloring_alpha_star *. float_of_int delta);
  let influence q d =
    let spec = Models.coloring g ~q in
    let boundary = List.filter (fun v -> dist0.(v) = d) (List.init (Graph.n g) (fun v -> v)) in
    let marginal c =
      let inst =
        Instance.create spec
          ~pinned:(Config.of_pinning (Graph.n g) (List.map (fun v -> (v, c)) boundary))
      in
      Exact.marginal inst 0
    in
    match (marginal 0, marginal 1) with
    | Some a, Some b -> Dist.tv a b
    | _ -> nan
  in
  let rows =
    Par.map_list
      (fun q ->
        let i3 = influence q 3 in
        let i6 = influence q 6 in
        let verdict =
          if float_of_int q >= Models.coloring_alpha_star *. float_of_int delta then
            "q >= alpha*Delta"
          else "below bound"
        in
        [ Table.i q; Table.f ~digits:5 i3; Table.f ~digits:5 i6; verdict ])
      [ 3; 4; 5; 6; 7 ]
  in
  Table.print ~title:"E8  boundary influence on the root color (depth-6 binary tree)"
    ~note:
      "Influence of recoloring the whole depth-d level. Decay strengthens\n\
       with q; q=3 on leaves freezes the parity-like correlations.\n\
       (On trees the true uniqueness threshold is q = Delta + 1; the\n\
       alpha* Delta bound is what the paper cites for all triangle-free\n\
       graphs.)"
    ~header:[ "q"; "influence@3"; "influence@6"; "regime" ]
    rows

(* ------------------------------------------------------------------ *)
(* E9 — anti-ferromagnetic Ising in the uniqueness regime.             *)
(* ------------------------------------------------------------------ *)

let e9 () =
  let branching = 2 in
  let depth = 8 in
  let g = Generators.complete_tree ~branching ~depth in
  let dist0 = Graph.bfs_distances g 0 in
  let leaves =
    List.filter (fun v -> dist0.(v) = depth) (List.init (Graph.n g) (fun v -> v))
  in
  let delta = Graph.max_degree g in
  let beta_c = Models.ising_uniqueness_threshold delta in
  Printf.printf "\nE9: anti-ferro Ising on the depth-8 binary tree; beta_c(Delta=%d) = %.4f\n"
    delta beta_c;
  let influence beta =
    let spec = Models.ising g ~beta ~field:1. in
    let marginal c =
      let inst =
        Instance.create spec
          ~pinned:(Config.of_pinning (Graph.n g) (List.map (fun v -> (v, c)) leaves))
      in
      Option.get (Exact.marginal inst 0)
    in
    Dist.tv (marginal 0) (marginal 1)
  in
  let rows =
    Par.map_list
      (fun beta ->
        let regime = if beta > beta_c then "uniqueness" else "non-uniqueness" in
        [ Table.f ~digits:3 beta; Table.f ~digits:5 (influence beta); regime ])
      [ 0.05; 0.15; 0.25; beta_c; 0.45; 0.6; 0.8 ]
  in
  Table.print ~title:"E9  leaf-to-root influence of the anti-ferro Ising model"
    ~note:"Decay (-> O(log^3 n) sampling) for beta > beta_c; persistence below."
    ~header:[ "beta"; "influence@8"; "regime" ]
    rows;
  (* Anti-ferromagnetic Potts across its tree threshold
     beta_c = (Delta - q)/Delta: same dichotomy, q-state alphabet. *)
  let branching = 4 in
  let depth = 6 in
  let g = Generators.complete_tree ~branching ~depth in
  let dist0 = Graph.bfs_distances g 0 in
  let leaves =
    List.filter (fun v -> dist0.(v) = depth) (List.init (Graph.n g) (fun v -> v))
  in
  let q = 3 in
  let delta = Graph.max_degree g in
  let beta_c = Models.potts_uniqueness_threshold ~q ~delta in
  let influence beta =
    let spec = Models.potts g ~q ~beta in
    let marginal c =
      let inst =
        Instance.create spec
          ~pinned:
            (Config.of_pinning (Graph.n g) (List.map (fun v -> (v, c)) leaves))
      in
      Option.get (Exact.marginal inst 0)
    in
    Dist.tv (marginal 0) (marginal 1)
  in
  let rows =
    Par.map_list
      (fun beta ->
        let regime = if beta > beta_c then "uniqueness" else "non-uniqueness" in
        [ Table.f ~digits:3 beta; Table.f ~digits:5 (influence beta); regime ])
      [ 0.05; 0.2; beta_c; 0.6; 0.9 ]
  in
  Table.print
    ~title:
      (Printf.sprintf
         "E9b  anti-ferro Potts q=%d on the %d-ary tree (Delta=%d, beta_c=%.2f)"
         q branching delta beta_c)
    ~header:[ "beta"; "influence@6"; "regime" ]
    rows;
  (* JVV exactness on an Ising cycle inside uniqueness. *)
  let inst = Instance.unpinned (Models.ising (Generators.cycle 8) ~beta:0.6 ~field:1.) in
  let oracle = Inference.ssm_oracle ~t:2 inst in
  let out = Jvv.output_distribution oracle ~epsilon:0.01 inst ~order:(ident_order 8) in
  Printf.printf
    "E9: JVV on Ising C8 (beta=0.6): success=%.4f clamps=%d cond_TV=%s\n"
    out.Jvv.success_probability out.Jvv.total_clamps
    (Table.e (tv_support out.Jvv.conditional (Exact.joint inst)))

(* ------------------------------------------------------------------ *)
(* E10 — weighted hypergraph matchings up to lambda_c(r, Delta).       *)
(* ------------------------------------------------------------------ *)

let e10 () =
  (* A "loose cycle": 3-uniform hyperedges e_i = {2i, 2i+1, 2i+2 mod 2k},
     consecutive hyperedges sharing one vertex, so the intersection graph
     is the cycle C_k — long enough to watch the decay over distances. *)
  let k = 14 in
  let h =
    Hypergraph.create ~n:(2 * k)
      ~hyperedges:
        (List.init k (fun i -> [ 2 * i; (2 * i) + 1; ((2 * i) + 2) mod (2 * k) ]))
  in
  let rank = Hypergraph.rank h in
  (* Reference threshold at Delta = 3, the smallest degree where lambda_c is
     finite (the loose cycle itself has Delta = 2, hence always unique). *)
  let lambda_c = Hypergraph_matching.uniqueness_threshold ~rank ~delta:3 in
  Printf.printf
    "\nE10: loose-cycle 3-uniform hypergraph, %d hyperedges (intersection graph\n\
     = C%d); reference lambda_c(r=%d, Delta=3) = %.4f\n"
    k k rank lambda_c;
  let rows =
    Par.map_seeded ~seed:101L
      (fun ratio rng ->
        let lambda = ratio *. lambda_c in
        let hm = Hypergraph_matching.make h ~lambda in
        let inst = Instance.unpinned hm.Hypergraph_matching.spec in
        let p d = (Ssm.influence_at ~rng inst ~v:0 ~d).Ssm.tv in
        [
          Table.f ~digits:2 ratio;
          Table.f ~digits:4 lambda;
          Table.f ~digits:5 (p 1);
          Table.f ~digits:5 (p 2);
          Table.f ~digits:5 (p 3);
          Table.f ~digits:5 (p 5);
        ])
      [ 0.5; 1.0; 2.0; 8.0 ]
  in
  Table.print
    ~title:"E10  SSM influence on the hypergraph-matching intersection graph"
    ~note:
      "Influence at duality distance d from a hyperedge; decays in d,\n\
       faster at smaller lambda."
    ~header:[ "lambda/lambda_c"; "lambda"; "infl@1"; "infl@2"; "infl@3"; "infl@5" ]
    rows;
  (* Exact sampling sanity on a small hypergraph. *)
  let h_small =
    Hypergraph.create ~n:9
      ~hyperedges:[ [ 0; 1; 2 ]; [ 2; 3; 4 ]; [ 4; 5; 6 ]; [ 6; 7; 8 ]; [ 8; 0; 1 ] ]
  in
  let hm = Hypergraph_matching.make h_small ~lambda:0.8 in
  let inst = Instance.unpinned hm.Hypergraph_matching.spec in
  let oracle = Inference.ssm_oracle ~t:2 inst in
  let out =
    Jvv.output_distribution oracle ~epsilon:0.01 inst
      ~order:(ident_order (Instance.n inst))
  in
  Printf.printf
    "E10: JVV over hypergraph matchings (5 hyperedges): success=%.4f clamps=%d cond_TV=%s\n"
    out.Jvv.success_probability out.Jvv.total_clamps
    (Table.e (tv_support out.Jvv.conditional (Exact.joint inst)))

(* ------------------------------------------------------------------ *)
(* E11 — end-to-end round complexity of exact sampling (Cor. 5.3).     *)
(* ------------------------------------------------------------------ *)

(* E11's recipe, shared with [e11_scale]: the SSM rate measured on a
   hardcore cycle at lambda = 1, and per n the radius t*, the JVV
   locality and the scheduler's stats at that locality. *)
let e11_lambda = 1.

let e11_alpha () =
  let inst = Instance.unpinned (Models.hardcore (Generators.cycle 64) ~lambda:e11_lambda) in
  let rng = Rng.create 3L in
  match Ssm.fit_exponential_rate (Ssm.decay_curve ~rng inst ~v:0 ~max_d:8) with
  | Some a -> a
  | None -> 0.5

let e11_row ~alpha n =
  let fn = float_of_int n in
  let budget = 5. *. 2. *. (fn ** 4.) in
  let t_star = int_of_float (Float.ceil (log budget /. log (1. /. alpha))) in
  let locality = (9 * t_star) + 2 in
  let stats =
    Scheduler.compile ~graph:(Generators.cycle n) ~locality
      ~rng:(Rng.create (Int64.of_int (7 * n)))
      ~run:(fun ~order:_ -> ())
      ()
  in
  (t_star, locality, stats)

let e11_rounds_per_log3 n stats =
  Table.f ~digits:1 (float_of_int stats.Scheduler.rounds /. (log (float_of_int n) ** 3.))

let e11 () =
  (* Corollary 5.3: SSM at rate alpha gives exact sampling in
     O(1/(1-alpha) log^3 n) rounds.  We measure each factor of the
     pipeline on hardcore cycles at lambda = 1 (uniqueness):
       - alpha: fitted SSM rate (E5);
       - t*(n): the radius at which the inference error drops below the
         Theorem 4.2 budget 1/(5 q n^4), i.e. ln(5qn^4)/ln(1/alpha);
       - the JVV locality 9 t* + 2l (Lemma 4.4);
       - the LOCAL rounds actually charged by the Lemma 3.1 scheduler at
         that locality (decomposition + chromatic simulation).
     The last column, rounds / ln^3 n, should stay bounded. *)
  let alpha = e11_alpha () in
  Printf.printf "\nE11: measured SSM rate alpha = %.3f at lambda = %.1f\n" alpha e11_lambda;
  let rows =
    Par.map_list
      (fun n ->
        let t_star, locality, stats = e11_row ~alpha n in
        [
          Table.i n;
          Table.i t_star;
          Table.i locality;
          Table.i stats.Scheduler.colors;
          Table.i stats.Scheduler.rounds;
          Table.i stats.Scheduler.failures;
          e11_rounds_per_log3 n stats;
        ])
      [ 32; 64; 128; 256; 512 ]
  in
  Table.print
    ~title:"E11  exact-sampling round complexity (hardcore cycles, lambda=1)"
    ~note:
      "t* = inference radius for the 1/(5qn^4) error budget; locality =\n\
       9t*+2l (the certified JVV single-pass bound); rounds = what the\n\
       Lemma 3.1 scheduler charges at that locality.  Paper shape:\n\
       rounds = O(log^3 n), i.e. the last column stays bounded."
    ~header:[ "n"; "t*"; "locality"; "colors"; "rounds"; "failures"; "rounds/ln^3 n" ]
    rows

(* E11's recipe out to n = 2^17, where G^{locality+1} stops being
   complete.  The power graph is implicit, so a plan costs O(n) memory
   at any locality.  Rows run one after another so that each plan's
   wall time (stderr, with the stats it belongs to) is its own. *)
let e11_scale () =
  let alpha = e11_alpha () in
  Printf.printf "\nE11-scale: measured SSM rate alpha = %.3f at lambda = %.1f\n" alpha
    e11_lambda;
  let sizes = List.init 8 (fun i -> 1 lsl (10 + i)) in
  let results =
    List.map
      (fun n ->
        let w0 = Unix.gettimeofday () in
        let t_star, locality, stats = e11_row ~alpha n in
        Printf.eprintf "[e11-scale n=%d plan %.3fs]\n%!" n (Unix.gettimeofday () -. w0);
        (n, t_star, locality, stats))
      sizes
  in
  Table.print
    ~title:"E11-scale  exact-sampling round complexity at scale (hardcore cycles, lambda=1)"
    ~note:
      "E11's recipe at n = 2^10 .. 2^17.  clusters = Linial-Saks clusters of\n\
       G^{locality+1}; the plan's wall time goes to stderr.  Paper shape:\n\
       rounds = O(log^3 n), i.e. the last column stays bounded."
    ~header:
      [ "n"; "t*"; "locality"; "colors"; "clusters"; "failures"; "rounds"; "rounds/ln^3 n" ]
    (List.map
       (fun (n, t_star, locality, stats) ->
         [
           Table.i n;
           Table.i t_star;
           Table.i locality;
           Table.i stats.Scheduler.colors;
           Table.i stats.Scheduler.clusters;
           Table.i stats.Scheduler.failures;
           Table.i stats.Scheduler.rounds;
           e11_rounds_per_log3 n stats;
         ])
       results);
  match List.find_opt (fun (_, _, _, s) -> s.Scheduler.colors > 1) results with
  | Some (n, _, _, _) -> Printf.printf "first n with colors > 1: %d\n" n
  | None -> Printf.printf "first n with colors > 1: none\n"

(* ------------------------------------------------------------------ *)
(* Ablation: decomposition truncation budgets vs certifiable failures. *)
(* ------------------------------------------------------------------ *)

let decomp_ablation () =
  (* Lemma 3.1 truncates the Linial-Saks construction to keep the round
     count deterministic, paying with locally certifiable failures F''.
     Sweep the phase budget and measure the failure mass and the rounds
     the scheduler would charge. *)
  let module Decomposition = Ls_local.Decomposition in
  let g = Generators.cycle 96 in
  let trials = 40 in
  let rows =
    List.map
      (fun phase_cap ->
        (* Same seed for every phase_cap: common random numbers across the
           sweep, so rows differ only through the budget. *)
        let per_trial =
          Par.run_trials ~n:trials ~seed:1000L (fun rng ->
              let d = Decomposition.linial_saks ~phase_cap g rng in
              ( Array.fold_left (fun a f -> if f then a + 1 else a) 0
                  d.Decomposition.failed,
                d.Decomposition.num_colors,
                Array.fold_left
                  (fun a c -> max a c.Decomposition.radius)
                  0 d.Decomposition.clusters ))
        in
        let failures, colors, radius =
          Array.fold_left
            (fun (f, c, r) (f', c', r') -> (f + f', c + c', max r r'))
            (0, 0, 0) per_trial
        in
        let per_run = float_of_int failures /. float_of_int trials in
        [
          Table.i phase_cap;
          Table.f ~digits:2 per_run;
          Table.f ~digits:4 (per_run /. 96.);
          Table.f ~digits:1 (float_of_int colors /. float_of_int trials);
          Table.i radius;
        ])
      [ 1; 2; 3; 4; 6; Decomposition.default_phase_cap 96 ]
  in
  Table.print
    ~title:"Ablation  Linial-Saks phase budget vs certifiable failures (C96)"
    ~note:
      "Each phase clusters a vertex with probability >= 1/2, so the\n\
       failure mass decays geometrically in the budget; the default cap\n\
       (last row) makes failures vanishing, matching Lemma 3.1's O(1/n^2)."
    ~header:[ "phase_cap"; "failed/run"; "failure rate"; "avg colors"; "max radius" ]
    rows

(* ------------------------------------------------------------------ *)
(* E12 — fault injection: success probability and output TV vs drop    *)
(* rate for the three samplers, under retry/backoff supervision.       *)
(* ------------------------------------------------------------------ *)

(* Overridable from bench/main.exe's --fault-rate / --crash-rate /
   --retry-budget flags; defaults reproduce the table in EXPERIMENTS.md. *)
let e12_rates = ref [ 0.; 0.01; 0.02; 0.05; 0.1; 0.15 ]
let e12_crash_rate = ref 0.01
let e12_retry_budget = ref 3
let e12_max_delay = ref 1
let e12_corrupt_rate = ref 0.
let e12_profile : string option ref = ref None

(* --async MODE from the bench driver: the supervised runs in E12/E13
   flood over the event-driven executor instead of lockstep rounds.  A
   fresh config is built per trial so its mutable stats stay trial-local
   and the tables remain domain-invariant.  In synchronizer mode stdout
   is byte-identical to the synchronous run — the CI determinism diff
   leans on exactly that. *)
let async_mode : string option ref = ref None

let async_cfg () =
  Option.map
    (fun name ->
      Ls_local.Async.make ~mode:(Ls_local.Async.mode_of_string name) ())
    !async_mode

let e12 () =
  let module Faults = Ls_local.Faults in
  let module Resilient = Ls_local.Resilient in
  let module Network = Ls_local.Network in
  let n = 8 in
  let g = Generators.cycle n in
  let inst = Instance.unpinned (Models.hardcore g ~lambda:1.) in
  let oracle = Inference.ssm_oracle ~t:2 inst in
  let exact = Exact.joint inst in
  let epsilon = Jvv.theory_epsilon inst in
  let order = ident_order n in
  let trials = 200 in
  let crash = !e12_crash_rate in
  let policy = Resilient.policy ~retry_budget:!e12_retry_budget () in
  (* The fault seed is the experiment's reproducibility handle: the whole
     table is a pure function of it (and the trial seed), at any domain
     count.  LOCSAMPLE_FAULT_SEED overrides it, like LOCSAMPLE_DOMAINS
     overrides the domain count. *)
  let fault_seed =
    match Sys.getenv_opt "LOCSAMPLE_FAULT_SEED" with
    | Some s -> (try Int64.of_string s with Failure _ -> 2026L)
    | None -> 2026L
  in
  let t = oracle.Inference.radius in
  let rows =
    List.map
      (fun drop ->
        (* One closure computes all three series per trial, each from its
           own payload draw; the per-trial fault plan is seeded from the
           global fault seed XOR a draw from the trial's stream, so it is
           domain-invariant and changes wholesale with LOCSAMPLE_FAULT_SEED. *)
        let per_trial =
          Par.run_trials ~n:trials ~seed:1200L (fun rng ->
              let fseed =
                Int64.logxor
                  (Ls_rng.Splitmix.mix64 fault_seed)
                  (Rng.bits64 rng)
              in
              (* Same preset-merge rule as bin/locsample: the profile fills
                 the fields no flag overrode; the swept drop and the
                 --crash-rate value always win for their own fields. *)
              let pr =
                match !e12_profile with
                | Some name -> Faults.preset name
                | None -> Faults.zero_preset
              in
              let over flag dflt preset = if flag <> dflt then flag else preset in
              let faults =
                Faults.make ~seed:fseed ~drop
                  ~duplicate:pr.Faults.pr_duplicate ~delay:pr.Faults.pr_delay
                  ~max_delay:(over !e12_max_delay 1 pr.Faults.pr_max_delay)
                  ~crash ~recovery:pr.Faults.pr_recovery
                  ~recovery_delay:pr.Faults.pr_recovery_delay
                  ~corrupt:(over !e12_corrupt_rate 0. pr.Faults.pr_corrupt)
                  ~partitions:pr.Faults.pr_partitions
                  ~bursts:pr.Faults.pr_bursts ()
              in
              (* Series 1: unsupervised chain rule over faulty gathering —
                 every node floods its radius-t ball once; any crashed or
                 view-incomplete node sinks the whole run.  The baseline the
                 supervision is measured against. *)
              let chain =
                let net =
                  Network.create ~faults g ~inputs:(Array.make n ())
                    ~seed:(Rng.bits64 rng)
                in
                let views = Network.flood_views net ~radius:t in
                let ok =
                  Array.for_all
                    (fun view -> Network.view_is_complete net view)
                    views
                  && not
                       (Array.exists
                          (fun v -> Network.crashed net v)
                          (Array.init n (fun v -> v)))
                in
                let rng' = Rng.create (Rng.bits64 rng) in
                let sigma =
                  Sequential_sampler.sample oracle inst ~order ~rng:rng'
                in
                (ok, sigma)
              in
              let async = async_cfg () in
              let resilient =
                let r =
                  Local_sampler.sample_resilient oracle ~policy ~faults ?async
                    inst ~seed:(Rng.bits64 rng)
                in
                (r.Local_sampler.success, r.Local_sampler.sigma)
              in
              let jvv =
                let s =
                  Jvv.run_local_resilient oracle ~epsilon ~policy ~faults
                    ?async inst ~seed:(Rng.bits64 rng)
                in
                (s.Jvv.sresult.Jvv.success, s.Jvv.sresult.Jvv.y)
              in
              (chain, resilient, jvv))
        in
        let series pick =
          let emp = Empirical.create () in
          Array.iter
            (fun trial ->
              let ok, sigma = pick trial in
              if ok then Empirical.add emp sigma)
            per_trial;
          let succ =
            float_of_int (Empirical.total emp) /. float_of_int trials
          in
          let tv =
            if Empirical.total emp = 0 then nan
            else Empirical.tv_against emp exact
          in
          (succ, tv)
        in
        let s1, tv1 = series (fun (c, _, _) -> c) in
        let s2, tv2 = series (fun (_, r, _) -> r) in
        let s3, tv3 = series (fun (_, _, j) -> j) in
        [
          Table.f ~digits:3 drop;
          Table.f ~digits:3 s1;
          Table.f ~digits:3 tv1;
          Table.f ~digits:3 s2;
          Table.f ~digits:3 tv2;
          Table.f ~digits:3 s3;
          Table.f ~digits:3 tv3;
        ])
      !e12_rates
  in
  Table.print
    ~title:
      (Printf.sprintf
         "E12  fault injection (hardcore C8; crash=%g, retry budget %d, \
          fault seed %Ld, %d trials%s)"
         crash policy.Resilient.retry_budget fault_seed trials
         (match !e12_profile with
         | Some name -> ", profile " ^ name
         | None -> ""))
    ~note:
      "Message-drop sweep on the flooded LOCAL runtime.  chain = one-shot\n\
       chain-rule sampling over faulty ball collection (no retries);\n\
       resilient = the compiled sampler under retry/backoff supervision;\n\
       jvv = the exact sampler likewise supervised.  Success probabilities\n\
       fall with the drop rate; the TV of the successful runs moves only\n\
       through sample-count noise (fewer successes => noisier estimate):\n\
       faults cost availability, not correctness (Las Vegas)."
    ~header:[ "drop"; "chain_ok"; "chain_tv"; "res_ok"; "res_tv"; "jvv_ok"; "jvv_tv" ]
    rows

(* ------------------------------------------------------------------ *)
(* E13 — crash-recovery vs crash-stop: availability under partitions   *)
(* and node recovery, paired at equal crash rates and retry budgets.   *)
(* ------------------------------------------------------------------ *)

(* Overridable grid, like e12's rate list. *)
let e13_plens = ref [ 2; 4; 6 ]
let e13_rdelays = ref [ 1; 4 ]

let e13 () =
  let module Faults = Ls_local.Faults in
  let module Resilient = Ls_local.Resilient in
  let n = 8 in
  let g = Generators.cycle n in
  let inst = Instance.unpinned (Models.hardcore g ~lambda:1.) in
  let oracle = Inference.ssm_oracle ~t:2 inst in
  let exact = Exact.joint inst in
  let trials = 200 in
  let crash = 0.25 and crash_horizon = 12 in
  let policy = Resilient.policy ~retry_budget:!e12_retry_budget () in
  let fault_seed =
    match Sys.getenv_opt "LOCSAMPLE_FAULT_SEED" with
    | Some s -> (try Int64.of_string s with Failure _ -> 2026L)
    | None -> 2026L
  in
  let rows =
    List.concat_map
      (fun plen ->
        List.map
          (fun rdelay ->
            let per_trial =
              Par.run_trials ~n:trials ~seed:1300L (fun rng ->
                  let fseed =
                    Int64.logxor
                      (Ls_rng.Splitmix.mix64 fault_seed)
                      (Rng.bits64 rng)
                  in
                  (* Both plans share fseed, so the same nodes crash at the
                     same rounds and the partition cuts the same sides; the
                     payload seed is shared too.  The only difference left
                     is whether a crashed node comes back — a paired
                     comparison of crash-stop vs crash-recovery. *)
                  let partitions = [ (2, 2 + plen, 2) ] in
                  let stop_plan =
                    Faults.make ~seed:fseed ~crash ~crash_horizon ~partitions
                      ()
                  in
                  let rec_plan =
                    Faults.make ~seed:fseed ~crash ~crash_horizon ~recovery:1.
                      ~recovery_delay:rdelay ~partitions ()
                  in
                  let pseed = Rng.bits64 rng in
                  let run faults =
                    let async = async_cfg () in
                    let r =
                      Local_sampler.sample_resilient oracle ~policy ~faults
                        ?async inst ~seed:pseed
                    in
                    ( r.Local_sampler.success,
                      r.Local_sampler.sigma,
                      r.Local_sampler.rounds )
                  in
                  (run stop_plan, run rec_plan))
            in
            let series pick =
              let emp = Empirical.create () in
              let rounds = ref 0 in
              Array.iter
                (fun trial ->
                  let ok, sigma, r = pick trial in
                  rounds := !rounds + r;
                  if ok then Empirical.add emp sigma)
                per_trial;
              let succ =
                float_of_int (Empirical.total emp) /. float_of_int trials
              in
              let tv =
                if Empirical.total emp = 0 then nan
                else Empirical.tv_against emp exact
              in
              (succ, tv, float_of_int !rounds /. float_of_int trials)
            in
            let stop_ok, stop_tv, stop_r = series fst in
            let rec_ok, rec_tv, rec_r = series snd in
            [
              Table.i plen;
              Table.i rdelay;
              Table.f ~digits:3 stop_ok;
              Table.f ~digits:3 stop_tv;
              Table.f ~digits:3 rec_ok;
              Table.f ~digits:3 rec_tv;
              Table.f ~digits:1 stop_r;
              Table.f ~digits:1 rec_r;
            ])
          !e13_rdelays)
      !e13_plens
  in
  Table.print
    ~title:
      (Printf.sprintf
         "E13  crash-recovery vs crash-stop (hardcore C8; crash=%g by round \
          %d, retry budget %d, fault seed %Ld, %d trials)"
         crash crash_horizon policy.Resilient.retry_budget fault_seed trials)
    ~note:
      "Partition-length x recovery-delay sweep on the supervised sampler.\n\
       Each trial runs both plans from the same fault seed and payload\n\
       seed, so the same nodes crash at the same rounds and the partition\n\
       cuts the same sides; the only difference is whether crashed nodes\n\
       come back (restoring their checkpoint, missed rounds charged as\n\
       catch-up).  Recovery dominates crash-stop availability at every\n\
       grid point under equal retry budgets; the TV of successful runs\n\
       moves only through sample-count noise (fewer successes => noisier\n\
       estimate): faults cost availability, never correctness.  Round\n\
       columns average over all trials, catch-up charges included —\n\
       recovery still ends up cheaper because attempts stop retrying\n\
       (and stop paying backoff) once the crashed nodes return."
    ~header:
      [
        "plen"; "rdelay"; "stop_ok"; "stop_tv"; "rec_ok"; "rec_tv"; "stop_r";
        "rec_r";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E14 — the asynchronous executor: synchronizer vs adaptive timeouts  *)
(* across the delay-law x clock-skew grid.                             *)
(* ------------------------------------------------------------------ *)

let e14_trials = ref 150

let e14 () =
  let module Faults = Ls_local.Faults in
  let module Resilient = Ls_local.Resilient in
  let module Async = Ls_local.Async in
  let n = 8 in
  let g = Generators.cycle n in
  let inst = Instance.unpinned (Models.hardcore g ~lambda:1.) in
  let oracle = Inference.ssm_oracle ~t:2 inst in
  let exact = Exact.joint inst in
  let trials = !e14_trials in
  let drop = 0.08 and delay = 0.25 and max_delay = 2 and reorder = 0.1 in
  let policy = Resilient.policy ~retry_budget:!e12_retry_budget () in
  let fault_seed =
    match Sys.getenv_opt "LOCSAMPLE_FAULT_SEED" with
    | Some s -> (try Int64.of_string s with Failure _ -> 2026L)
    | None -> 2026L
  in
  let rows =
    List.concat_map
      (fun law ->
        List.map
          (fun skew ->
            let per_trial =
              Par.run_trials ~n:trials ~seed:1400L (fun rng ->
                  let fseed =
                    Int64.logxor
                      (Ls_rng.Splitmix.mix64 fault_seed)
                      (Rng.bits64 rng)
                  in
                  let faults =
                    Faults.make ~seed:fseed ~drop ~delay ~max_delay ~law ~skew
                      ~reorder ()
                  in
                  (* All three executors run the identical trial: same fault
                     plan, same payload seed.  Whatever differs is the
                     executor's doing alone. *)
                  let pseed = Rng.bits64 rng in
                  let run async =
                    let r =
                      Local_sampler.sample_resilient oracle ~policy ~faults
                        ?async inst ~seed:pseed
                    in
                    ( r.Local_sampler.success,
                      r.Local_sampler.sigma,
                      r.Local_sampler.rounds )
                  in
                  let sync = run None in
                  let syn_cfg = Async.make () in
                  let syn = run (Some syn_cfg) in
                  let ad_cfg = Async.make ~mode:Async.Adaptive () in
                  let ad = run (Some ad_cfg) in
                  let s_syn = Async.stats syn_cfg in
                  let s_ad = Async.stats ad_cfg in
                  ( sync,
                    syn,
                    ad,
                    ( s_syn.Async.control_msgs,
                      s_ad.Async.control_msgs,
                      s_ad.Async.retransmits,
                      s_ad.Async.gave_up ) ))
            in
            let series pick =
              let emp = Empirical.create () in
              let rounds = ref 0 in
              Array.iter
                (fun trial ->
                  let ok, sigma, r = pick trial in
                  rounds := !rounds + r;
                  if ok then Empirical.add emp sigma)
                per_trial;
              let succ =
                float_of_int (Empirical.total emp) /. float_of_int trials
              in
              let tv =
                if Empirical.total emp = 0 then nan
                else Empirical.tv_against emp exact
              in
              (succ, tv, float_of_int !rounds /. float_of_int trials)
            in
            let sync_ok, _sync_tv, sync_r = series (fun (s, _, _, _) -> s) in
            let ad_ok, ad_tv, ad_r = series (fun (_, _, a, _) -> a) in
            (* Bit-identity, per trial: the synchronizer's (success, sample,
               rounds) triple must equal the synchronous executor's. *)
            let ident =
              Array.for_all (fun (s, y, _, _) -> s = y) per_trial
            in
            let mean pick =
              float_of_int
                (Array.fold_left
                   (fun acc (_, _, _, c) -> acc + pick c)
                   0 per_trial)
              /. float_of_int trials
            in
            let ctl_syn = mean (fun (a, _, _, _) -> a) in
            let ctl_ad = mean (fun (_, b, _, _) -> b) in
            let rtx_ad = mean (fun (_, _, c, _) -> c) in
            let gup_ad = mean (fun (_, _, _, d) -> d) in
            [
              Faults.law_name law;
              Table.f ~digits:2 skew;
              (if ident then "yes" else "NO");
              Table.f ~digits:3 sync_ok;
              Table.f ~digits:3 ad_ok;
              Table.f ~digits:3 ad_tv;
              Table.f ~digits:1 sync_r;
              Table.f ~digits:1 ad_r;
              Table.f ~digits:1 ctl_syn;
              Table.f ~digits:1 ctl_ad;
              Table.f ~digits:1 rtx_ad;
              Table.f ~digits:1 gup_ad;
            ])
          [ 0.; 0.5 ])
      [ Faults.Uniform; Faults.Exponential; Faults.Heavy ]
  in
  Table.print
    ~title:
      (Printf.sprintf
         "E14  async executors: synchronizer vs adaptive (hardcore C8; \
          drop=%g delay=%g(max %d) reorder=%g, retry budget %d, fault seed \
          %Ld, %d trials)"
         drop delay max_delay reorder policy.Resilient.retry_budget fault_seed
         trials)
    ~note:
      "Delay-law x clock-skew grid; every trial runs the SAME fault plan\n\
       and payload seed through three executors.  ident = the\n\
       alpha-synchronizer's (success, sample, rounds) triples are\n\
       bit-identical to the synchronous executor's over all trials —\n\
       asynchrony, delay tails and skew are invisible by construction.\n\
       The adaptive executor instead pays timeouts and retransmissions\n\
       (ctl/rtx columns, per-trial averages) and may give up on a slow\n\
       neighbor (gup), surfacing as an incomplete view and a retry —\n\
       so its ok rate differs while ad_tv stays flat modulo sample\n\
       noise: timing faults cost availability, never correctness.\n\
       Synchronizer control traffic (acks + safes) is the price of\n\
       determinism; rounds match the sync executor exactly."
    ~header:
      [
        "law"; "skew"; "ident"; "ok_sync"; "ok_adpt"; "tv_adpt"; "r_sync";
        "r_adpt"; "ctl_syn"; "ctl_adpt"; "rtx"; "giveup";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E15 — mergeable sketch aggregation: count-min width/depth sweep vs  *)
(* an exact histogram at 10^6 trials, plus the memory-vs-N table.      *)
(* ------------------------------------------------------------------ *)

let e15_grid = ref [ (64, 2); (256, 3); (1024, 4); (4096, 5) ]
let e15_k = ref 64
let e15_trials = ref 1_000_000

let e15 () =
  let module Sketched = Empirical.Sketched in
  let n = 10 in
  let inst =
    Instance.unpinned (Models.hardcore (Generators.cycle n) ~lambda:1.)
  in
  let exact = Exact.joint inst in
  let support = Array.of_list (List.map fst exact) in
  let probs = Array.of_list (List.map snd exact) in
  let sample rng = support.(Rng.discrete rng probs) in
  let trials = !e15_trials in
  let seed = 1500L in
  (* One exact streaming histogram is the referee for every grid row:
     same trials, same seed-split streams, O(support) memory. *)
  let referee = Empirical.collect_streaming ~chunk:65536 ~n:trials ~seed sample in
  let tv_exact = Empirical.tv_against referee exact in
  let rows =
    List.map
      (fun (w, d) ->
        let sk =
          Sketched.collect ~chunk:65536 ~width:w ~depth:d ~k:!e15_k ~n:trials
            ~seed sample
        in
        let eps = Sketched.epsilon sk and delta = Sketched.delta sk in
        let bound =
          int_of_float (ceil (eps *. float_of_int (Sketched.total sk)))
        in
        let under = ref 0 and viol = ref 0 and maxerr = ref 0 in
        Array.iter
          (fun sigma ->
            let err = Sketched.count sk sigma - Empirical.count referee sigma in
            if err < 0 then incr under;
            if err > bound then incr viol;
            if err > !maxerr then maxerr := err)
          support;
        let nkeys = Array.length support in
        let viol_frac = float_of_int !viol /. float_of_int nkeys in
        let ok = !under = 0 && viol_frac <= delta in
        let tv_sk = Sketched.tv_against sk exact in
        [
          Table.i w;
          Table.i d;
          Table.e eps;
          Table.i bound;
          Table.i !under;
          Table.i !maxerr;
          Table.f ~digits:4 viol_frac;
          Table.e delta;
          (if ok then "yes" else "NO");
          Table.e tv_exact;
          Table.e tv_sk;
          Table.e (Float.abs (tv_sk -. tv_exact));
          Table.f ~digits:1 (Sketched.distinct_estimate sk);
          Table.i (String.length (Sketched.serialize sk));
          Sketched.digest sk;
        ])
      !e15_grid
  in
  Table.print
    ~title:
      (Printf.sprintf
         "E15  count-min / bottom-k sketch vs exact histogram (hardcore C10, \
          %d trials, k=%d, seed %Ld)"
         trials !e15_k seed)
    ~note:
      (Printf.sprintf
         "Width/depth sweep of the mergeable sketch pair against an exact\n\
          streaming histogram over the same seed-split trial streams.\n\
          under counts CMS underestimates (the hard invariant: must be 0);\n\
          maxerr is the worst overestimate across all %d support keys and\n\
          must exceed eps*N (column bound) on at most a delta fraction\n\
          (viol <= delta => ok).  tv_sk is the support-restricted TV of\n\
          the sketch, drift its gap to the exact histogram's TV.  kmv is\n\
          the bottom-k distinct estimate (true distinct: %d; k=%d\n\
          saturates, exercising the estimator).  bytes is the serialized\n\
          sketch size — fixed by (w,d,k), independent of trial count —\n\
          and digest is what the CI domain-determinism diff compares."
         (Array.length support) (Array.length support) !e15_k)
    ~header:
      [
        "w"; "d"; "eps"; "bound"; "under"; "maxerr"; "viol"; "delta"; "ok";
        "tv_exact"; "tv_sk"; "drift"; "kmv"; "bytes"; "digest";
      ]
    rows;
  (* Part B: memory accounting.  The sketch's footprint is pinned by
     (w, d, k); only the exact histogram grows with the stream. *)
  let w, d = (1024, 4) in
  let rows_b =
    List.map
      (fun nt ->
        let sk =
          Sketched.collect ~chunk:65536 ~width:w ~depth:d ~k:!e15_k ~n:nt ~seed
            sample
        in
        let emp = Empirical.collect_streaming ~chunk:65536 ~n:nt ~seed sample in
        [
          Table.i nt;
          Table.i (Sketched.total sk);
          Table.i (String.length (Sketched.serialize sk));
          Table.i (Empirical.distinct emp);
          Table.f ~digits:1 (Sketched.distinct_estimate sk);
          Sketched.digest sk;
        ])
      [ 10_000; 100_000; trials ]
  in
  Table.print
    ~title:
      (Printf.sprintf "E15b  sketch memory vs trial count (w=%d d=%d k=%d)" w d
         !e15_k)
    ~note:
      "bytes stays constant while N grows 100x: sketch memory is a\n\
       function of (w, d, k) alone.  distinct/kmv track the true support\n\
       size as the stream saturates it."
    ~header:[ "N"; "total"; "bytes"; "distinct"; "kmv"; "digest" ]
    rows_b

(* ------------------------------------------------------------------ *)
(* E16 — sharded multi-process execution (Ls_shard): bit-identity of   *)
(* the sharded sweep against the in-process engine, and kill -9        *)
(* recovery with restart accounting.                                   *)
(* ------------------------------------------------------------------ *)

let e16_trials = ref 48
let e16_shards = ref [ 1; 2; 4 ]

let e16 () =
  let module Faults = Ls_local.Faults in
  let module Resilient = Ls_local.Resilient in
  let module Exec = Ls_shard.Exec in
  let module Sweep = Ls_shard.Sweep in
  let module Supervisor = Ls_shard.Supervisor in
  let module Metrics = Ls_obs.Metrics in
  (* Worker processes are forked, and the runtime refuses Unix.fork once
     a domain has ever been created — probe with a no-op child so a
     multi-core full-harness run degrades into a deterministic skip line
     instead of an exception. *)
  let fork_ok =
    Par.quiesce ();
    match Unix.fork () with
    | 0 -> Unix._exit 0
    | pid ->
        ignore (Unix.waitpid [] pid);
        true
    | exception Failure _ -> false
  in
  if not fork_ok then
    print_endline
      "E16  sharded execution: skipped (domains already created; run \
       section e16 alone or with --domains 1)"
  else begin
    let n = 6 in
    let inst =
      Instance.unpinned (Models.hardcore (Generators.cycle n) ~lambda:1.)
    in
    let oracle = Inference.ssm_oracle ~t:2 inst in
    let policy = Resilient.policy ~retry_budget:3 () in
    let trials = !e16_trials in
    let seed = 1600L in
    let profiles =
      [
        ("none", fun _rng -> Faults.none);
        ( "flaky",
          fun rng ->
            Faults.make ~seed:(Rng.bits64 rng) ~drop:0.05 ~duplicate:0.04
              ~delay:0.15 ~max_delay:2 ~crash:0.08 ~recovery:0.8
              ~recovery_delay:2 ~corrupt:0.02
              ~partitions:[ (1, 3, 2) ]
              () );
      ]
    in
    let trial faults_of rng =
      let faults = faults_of rng in
      let r =
        Local_sampler.sample_resilient oracle ~policy ~faults inst
          ~seed:(Rng.bits64 rng)
      in
      (r.Local_sampler.success, r.Local_sampler.sigma, r.Local_sampler.rounds)
    in
    let digest results =
      Printf.sprintf "%016Lx"
        (Ls_shard.Frame.digest64 (Marshal.to_string results []))
    in
    let summarize results =
      let succ = ref 0 and rounds = ref 0 in
      Array.iter
        (fun (ok, _, r) ->
          if ok then incr succ;
          rounds := !rounds + r)
        results;
      (!succ, !rounds)
    in
    let ckpt_dir tag =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "locsample-e16-%s-%d" tag (Unix.getpid ()))
    in
    let rm_rf d =
      if Sys.file_exists d then begin
        Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
        Unix.rmdir d
      end
    in
    let was_metrics = Metrics.enabled () in
    Metrics.set_enabled true;
    Fun.protect ~finally:(fun () -> Metrics.set_enabled was_metrics)
    @@ fun () ->
    (* Part A: identity grid.  The in-process engine pinned to one domain
       is the referee; every (profile, shards) cell must reproduce its
       result array byte-for-byte.  Wall-clock goes to stderr, keeping
       stdout diffable across shard counts. *)
    let rows =
      List.concat_map
        (fun (pname, faults_of) ->
          let referee, _ =
            Par.run_trials_timed ~domains:1 ~n:trials ~seed (trial faults_of)
          in
          let succ, rounds = summarize referee in
          List.map
            (fun shards ->
              let dir = ckpt_dir (Printf.sprintf "a-%s-%d" pname shards) in
              let t0 = Unix.gettimeofday () in
              let got, _ =
                Sweep.run_trials_timed
                  (Exec.config ~shards ~dir ())
                  ~n:trials ~seed (trial faults_of)
              in
              rm_rf dir;
              Printf.eprintf "[e16 %s shards=%d: %.2fs wall]\n%!" pname shards
                (Unix.gettimeofday () -. t0);
              [
                pname;
                Table.i shards;
                Table.i trials;
                Table.i succ;
                Table.i rounds;
                digest got;
                (if got = referee then "yes" else "NO");
              ])
            !e16_shards)
        profiles
    in
    Table.print
      ~title:
        (Printf.sprintf
           "E16  sharded sweep vs in-process engine (hardcore C%d, %d \
            trials, seed %Ld)"
           n trials seed)
      ~note:
        "Each row runs the same resilient-sampling sweep across K worker\n\
         OS processes (Ls_shard.Sweep) and byte-compares the result array\n\
         against the single-domain in-process referee.  succ/rounds\n\
         summarize the referee; digest is the sharded run's — identical\n\
         digests across every K (and profile-matched rows of the CI's\n\
         sharded diff) are the determinism contract.  identical is the\n\
         full structural comparison, not just the digest."
      ~header:[ "profile"; "K"; "trials"; "succ"; "rounds"; "digest"; "ident" ]
      rows;
    (* Part B: kill -9 recovery.  Workers are killed (or hung) for real at
       fixed trial coordinates; the supervisor restarts them from their
       checkpoints and the sweep must still land byte-identical on the
       referee.  Restart counts come from the metrics deltas. *)
    let _, flaky = List.nth profiles 1 in
    let referee, _ =
      Par.run_trials_timed ~domains:1 ~n:trials ~seed (trial flaky)
    in
    let kill_policy =
      { Supervisor.default_policy with hang_timeout_ms = 500; hang_probes = 2 }
    in
    let rows_b =
      List.map
        (fun spec ->
          let kills =
            match Exec.parse_kill_specs spec with
            | Ok ks -> ks
            | Error msg -> failwith msg
          in
          let dir = ckpt_dir "b" in
          let before = Metrics.snapshot () in
          let t0 = Unix.gettimeofday () in
          let got, _ =
            Sweep.run_trials_timed
              (Exec.config ~shards:2 ~kills ~policy:kill_policy ~dir ())
              ~n:trials ~seed (trial flaky)
          in
          rm_rf dir;
          Printf.eprintf "[e16 kill %s: %.2fs wall]\n%!" spec
            (Unix.gettimeofday () -. t0);
          let after = Metrics.snapshot () in
          let d c = Metrics.get after c - Metrics.get before c in
          [
            spec;
            Table.i 2;
            Table.i (d Metrics.shard_spawns);
            Table.i (d Metrics.shard_restarts);
            digest got;
            (if got = referee then "yes" else "NO");
          ])
        [ "0:0:4:0"; "0:0:4:0,0:0:8:1"; "1:0:30:0:hang" ]
    in
    Table.print
      ~title:"E16b  kill -9 recovery (flaky profile, 2 shards)"
      ~note:
        "SHARD:PHASE:TRIAL[:INCARNATION][:hang] specs, executed for real\n\
         (SIGKILL to self at the trial boundary; hang sleeps until the\n\
         supervisor's liveness probes SIGKILL it).  spawns counts worker\n\
         forks, restarts the supervisor's re-forks after each kill; the\n\
         digest must equal the undisturbed flaky rows above — recovery is\n\
         observable only in the lifecycle columns."
      ~header:[ "kill"; "K"; "spawns"; "restarts"; "digest"; "ident" ]
      rows_b
  end

(* ------------------------------------------------------------------ *)
(* E17 — the serving daemon (Ls_serve): batch coalescing and cache     *)
(* effectiveness in-process (deterministic), then request latency,     *)
(* throughput and admission control against a live daemon.             *)
(* ------------------------------------------------------------------ *)

let e17_requests = ref 96

let e17 () =
  let module Protocol = Ls_serve.Protocol in
  let module Engine = Ls_serve.Engine in
  let module Server = Ls_serve.Server in
  let module Client = Ls_serve.Client in
  let module Metrics = Ls_obs.Metrics in
  let n = !e17_requests in
  (* The mixed workload `locsample query` sends. *)
  let stream = Client.stream ~seed:1700L n in
  (* The daemon parts run the server IN THIS PROCESS (so its cache-hit and
     rejection counters flow through Ls_obs here) and fork the load
     clients — which must happen before anything creates a domain, the
     same constraint E16 probes for. *)
  let fork_ok =
    Par.quiesce ();
    match Unix.fork () with
    | 0 -> Unix._exit 0
    | pid ->
        ignore (Unix.waitpid [] pid);
        true
    | exception Failure _ -> false
  in
  let sock tag =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "locsample-e17-%s-%d.sock" tag (Unix.getpid ()))
  in
  let addr_b = Server.Unix_path (sock "b") in
  let addr_c = Server.Unix_path (sock "c") in
  (* Each load client is one forked [Client.burst].  Clients write
     measurements to stderr only — stdout belongs to the parent. *)
  let fork_client tag ~attempts addr ~pipeline reqs report =
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 -> (
        match
          Client.burst ~pipeline reqs ~connect:(fun () ->
              Client.connect_retry ~attempts ~delay_ms:100 addr)
        with
        | Error msg ->
            Printf.eprintf "[e17 client %s: %s]\n%!" tag msg;
            Unix._exit 1
        | Ok b ->
            Client.close b.Client.conn;
            report b.Client.latency;
            Unix._exit 0)
    | pid -> pid
  in
  (* Client B: the mixed stream, pipeline 8, per-window latency. *)
  let fork_client_b () =
    fork_client "b" ~attempts:600 addr_b ~pipeline:8 stream (fun lat ->
        Array.sort compare lat;
        let pct p = lat.(min (n - 1) (int_of_float (p *. float_of_int n))) in
        Printf.eprintf "[e17 daemon: p50 %.1f ms, p99 %.1f ms]\n%!"
          (1000. *. pct 0.5) (1000. *. pct 0.99))
  in
  (* Client C: a 32-deep burst into a queue bound of 2 — the admission
     smoke.  Overload verdicts are counted by the parent's Ls_obs
     metrics; the client only checks every request is answered. *)
  let burst = 32 in
  let fork_client_c () =
    fork_client "c" ~attempts:1200 addr_c ~pipeline:burst
      (Array.init burst (fun id ->
           {
             Protocol.id;
             op = Protocol.Sample;
             seed = 17L;
             graph = "cycle:24";
             model = "hardcore:0.8";
             t = 1;
             engine = "ball";
             trials = 2;
             vertex = 0;
             deadline_ms = 0;
           }))
      ignore
  in
  (* Fork both load clients NOW, before part A touches the engine: once
     the pool has created a domain the runtime refuses Unix.fork for the
     rest of the process.  The clients retry connecting for minutes, so
     they simply wait out part A. *)
  let clients =
    if fork_ok then Some (fork_client_b (), fork_client_c ()) else None
  in
  let was_metrics = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled was_metrics)
  @@ fun () ->
  (* Part A — in-process engine, fixed batch sizes: every column is a
     pure function of the request stream (the batching the daemon applies
     depends on arrival timing, so it is measured in part B instead). *)
  let rows_a =
    List.map
      (fun batch_size ->
        let e = Engine.create () in
        let before = Metrics.snapshot () in
        let t0 = Unix.gettimeofday () in
        let rec go i =
          if i < n then begin
            let k = min batch_size (n - i) in
            ignore (Engine.submit_batch e (Array.to_list (Array.sub stream i k)));
            go (i + k)
          end
        in
        go 0;
        let wall = Unix.gettimeofday () -. t0 in
        Printf.eprintf "[e17 batch=%d: %.2fs wall, %.0f req/s]\n%!" batch_size
          wall
          (float_of_int n /. Float.max wall 1e-9);
        let after = Metrics.snapshot () in
        let d c = Metrics.get after c - Metrics.get before c in
        let hits = d Metrics.serve_cache_hits in
        let misses = d Metrics.serve_cache_misses in
        [
          Table.i batch_size;
          Table.i (d Metrics.serve_requests);
          Table.i (d Metrics.serve_batches);
          Table.i (d Metrics.serve_coalesced);
          Table.i hits;
          Table.i misses;
          Table.f ~digits:3
            (float_of_int hits /. Float.max (float_of_int (hits + misses)) 1.);
        ])
      [ 1; 8; 32 ]
  in
  Table.print
    ~title:
      (Printf.sprintf
         "E17  serving engine: batching and cache effect (%d-request mixed \
          stream, seed 1700)"
         n)
    ~note:
      "The same request stream submitted through Ls_serve.Engine at fixed\n\
       batch sizes.  Larger batches coalesce same-instance requests onto\n\
       one compiled model and share one parallel fan-out; the plan/instance\n\
       LRUs absorb the 4-seed request pool.  Counters flow through\n\
       Ls_obs.Metrics; every column is a pure function of the stream, so\n\
       this table is domain-count invariant."
    ~header:[ "batch"; "req"; "batches"; "coalesced"; "hits"; "miss"; "hitrate" ]
    rows_a;
  (* Parts B and C need the forked clients. *)
  match clients with
  | None ->
      print_endline
        "E17b serving daemon: skipped (domains already created; run section \
         e17 alone)"
  | Some (pid_b, pid_c) ->
    (* Part B — live daemon, ample queue: latency/throughput measured by
       the client (stderr); the daemon's own counters land here because
       the server loop runs in this process. *)
    let before = Metrics.snapshot () in
    let t0 = Unix.gettimeofday () in
    let stats_b =
      Server.run
        ~cfg:
          (Server.config ~address:addr_b ~queue_bound:64 ~batch_max:32
             ~max_requests:n ())
        ()
    in
    let wall_b = Unix.gettimeofday () -. t0 in
    Printf.eprintf "[e17 daemon: %.2fs wall, %.0f req/s, %d batches]\n%!"
      wall_b
      (float_of_int n /. Float.max wall_b 1e-9)
      stats_b.Protocol.st_batches;
    let after = Metrics.snapshot () in
    let d c = Metrics.get after c - Metrics.get before c in
    let hits = d Metrics.serve_cache_hits in
    let misses = d Metrics.serve_cache_misses in
    (* Part C — tiny queue, deep burst: admission control must reject. *)
    let before_c = Metrics.snapshot () in
    let stats_c =
      Server.run
        ~cfg:
          (Server.config ~address:addr_c ~queue_bound:2 ~batch_max:2
             ~max_requests:burst ())
        ()
    in
    let after_c = Metrics.snapshot () in
    let d_c c = Metrics.get after_c c - Metrics.get before_c c in
    let rejected_obs = d_c Metrics.serve_rejections in
    Printf.eprintf "[e17 admission: %d/%d rejected (queue bound 2)]\n%!"
      stats_c.Protocol.st_rejected burst;
    (match Unix.waitpid [] pid_b with
    | _, Unix.WEXITED 0 -> ()
    | _ -> Printf.eprintf "[e17 client b: nonzero exit]\n%!");
    (match Unix.waitpid [] pid_c with
    | _, Unix.WEXITED 0 -> ()
    | _ -> Printf.eprintf "[e17 client c: nonzero exit]\n%!");
    Table.print
      ~title:"E17b  live daemon (unix socket, forked load clients)"
      ~note:
        "One daemon per row, serving in this process so its counters flow\n\
         through Ls_obs.Metrics.  `mixed` answers the part-A stream from a\n\
         pipelining client (p50/p99/throughput on stderr — they are\n\
         measurements); `burst` pushes 32 requests into a queue bound of 2\n\
         and must see Overloaded verdicts.  Batching columns depend on\n\
         arrival timing, so only the admission verdict columns are\n\
         deterministic here."
      ~header:[ "phase"; "req"; "answered"; "rejected"; "hits"; "miss"; "ok" ]
      [
        [
          "mixed";
          Table.i n;
          Table.i stats_b.Protocol.st_requests;
          Table.i stats_b.Protocol.st_rejected;
          Table.i hits;
          Table.i misses;
          (if stats_b.Protocol.st_rejected = 0 then "yes" else "NO");
        ];
        [
          "burst";
          Table.i burst;
          Table.i stats_c.Protocol.st_requests;
          Table.i stats_c.Protocol.st_rejected;
          Table.i (d_c Metrics.serve_cache_hits);
          Table.i (d_c Metrics.serve_cache_misses);
          (if rejected_obs >= 1 && rejected_obs = stats_c.Protocol.st_rejected
           then "yes"
           else "NO");
        ];
      ]

(* ------------------------------------------------------------------ *)
(* E18 — crash-tolerant serving: a supervised daemon kill -9ed at      *)
(* different points of a burst.  The resilient client must finish the  *)
(* burst with a transcript byte-identical to the unkilled row, and the *)
(* replacement worker must warm-start from the cache snapshot.         *)
(* ------------------------------------------------------------------ *)

let e18_requests = ref 64

let e18 () =
  let module Protocol = Ls_serve.Protocol in
  let module Server = Ls_serve.Server in
  let module Client = Ls_serve.Client in
  let n = !e18_requests in
  let fork_ok =
    Par.quiesce ();
    match Unix.fork () with
    | 0 -> Unix._exit 0
    | pid ->
        ignore (Unix.waitpid [] pid);
        true
    | exception Failure _ -> false
  in
  if not fork_ok then
    print_endline
      "E18 crash-tolerant serving: skipped (domains already created; run \
       section e18 alone)"
  else begin
    let reqs = Client.stream ~seed:1800L n in
    let tmp tag =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "locsample-e18-%s-%d" tag (Unix.getpid ()))
    in
    let enc rid body = Protocol.encode_response { Protocol.rid; body } in
    (* One grid row: fork a supervised daemon (fresh state dir), run the
       burst as a reconnect/resend client, kill -9 the worker after
       [kill_after] harvested responses, finish, pull stats, SIGTERM. *)
    let run_row kill_after =
      let dir = tmp (Printf.sprintf "state-k%d" kill_after) in
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let sock = tmp (Printf.sprintf "k%d.sock" kill_after) in
      let pid_file = tmp (Printf.sprintf "k%d.pid" kill_after) in
      flush stdout;
      flush stderr;
      Par.quiesce ();
      let dpid =
        match Unix.fork () with
        | 0 ->
            (try
               let cfg =
                 Server.config ~address:(Server.Unix_path sock)
                   ~queue_bound:64 ~batch_max:8 ~snapshot_every:2
                   ~state_dir:dir ()
               in
               ignore (Server.run_supervised ~cfg ~worker_pid_file:pid_file ());
               Unix._exit 0
             with _ -> Unix._exit 3)
        | pid -> pid
      in
      (* Kill -9 the worker after [kill_after] harvested responses. *)
      let on_answer answered =
        if answered = kill_after then begin
          let ic = open_in pid_file in
          let wpid = int_of_string (String.trim (input_line ic)) in
          close_in ic;
          try Unix.kill wpid Sys.sigkill with Unix.Unix_error _ -> ()
        end
      in
      let t0 = Unix.gettimeofday () in
      let { Client.responses; conn; _ } =
        match
          Client.burst ~on_answer ~pipeline:4 reqs ~connect:(fun () ->
              Client.connect_retry ~attempts:600 ~delay_ms:10
                (Server.Unix_path sock))
        with
        | Ok b -> b
        | Error msg -> failwith ("e18: " ^ msg)
      in
      let wall = Unix.gettimeofday () -. t0 in
      let bodies = Array.map (fun r -> enc r.Protocol.rid r.Protocol.body) responses in
      let stats =
        match Client.call conn (Client.control ~id:n Protocol.Stats) with
        | Ok { Protocol.body = Protocol.Stats_r st; _ } -> Some st
        | _ -> None
      in
      Client.close conn;
      (try Unix.kill dpid Sys.sigterm with Unix.Unix_error _ -> ());
      let drained =
        match Unix.waitpid [] dpid with
        | _, Unix.WEXITED 0 -> true
        | _ -> false
        | exception Unix.Unix_error _ -> false
      in
      (try Unix.unlink pid_file with Unix.Unix_error _ -> ());
      Printf.eprintf "[e18 kill@%d: %.2fs wall, %.0f req/s]\n%!" kill_after
        wall
        (float_of_int n /. Float.max wall 1e-9);
      (bodies, stats, wall, drained)
    in
    let kills = [ 0; n / 4; n / 2 ] in
    let rows = List.map (fun k -> (k, run_row k)) kills in
    let reference =
      match rows with (_, (bodies, _, _, _)) :: _ -> bodies | [] -> [||]
    in
    Table.print
      ~title:
        (Printf.sprintf
           "E18  crash-tolerant serving: kill -9 vs drain (%d-request burst, \
            supervised daemon, snapshot every 2 batches)"
           n)
      ~note:
        "One supervised daemon per row, kill -9ed at the given response\n\
         count (0 = never).  The parent holds the listener, so the client's\n\
         reconnect/resend loop finishes every burst; `identical` checks the\n\
         response bytes against the unkilled row (response bodies are pure\n\
         functions of request bytes), `snap_hits` counts cache hits served\n\
         from the replacement worker's warm-start snapshot, and `drain`\n\
         checks SIGTERM still exits 0 after the chaos.  Wall time is a\n\
         measurement (stderr); every other column is deterministic."
      ~header:
        [ "kill@"; "req"; "restarts"; "snap_hits"; "drain"; "identical" ]
      (List.map
         (fun (k, (bodies, stats, _wall, drained)) ->
           let restarts, snap_hits =
             match stats with
             | Some st ->
                 ( Table.i st.Protocol.st_restarts,
                   Table.i st.Protocol.st_snapshot_hits )
             | None -> ("?", "?")
           in
           [
             Table.i k;
             Table.i n;
             restarts;
             snap_hits;
             (if drained then "yes" else "NO");
             (if k = 0 then "ref"
              else if bodies = reference then "yes"
              else "NO");
           ])
         rows)
  end

(* ------------------------------------------------------------------ *)
(* E19 — resource-exhaustion tolerance: one daemon per row under a     *)
(* deterministic syscall fault schedule targeting a single subsystem   *)
(* (disk ENOSPC, accept EMFILE/ENFILE, transparent EINTR/short         *)
(* writes, or all at once).  The burst must complete with bytes        *)
(* identical to the fault-free row, degraded entries must pair with    *)
(* exits in the daemon's trace, and health must read ok again once     *)
(* the schedule's budget silences it.                                  *)
(* ------------------------------------------------------------------ *)

let e19_requests = ref 64

let e19 () =
  let module Protocol = Ls_serve.Protocol in
  let module Server = Ls_serve.Server in
  let module Client = Ls_serve.Client in
  let module Sysfault = Ls_chaos.Sysfault in
  let module Trace = Ls_obs.Trace in
  let n = !e19_requests in
  let fork_ok =
    Par.quiesce ();
    match Unix.fork () with
    | 0 -> Unix._exit 0
    | pid ->
        ignore (Unix.waitpid [] pid);
        true
    | exception Failure _ -> false
  in
  if not fork_ok then
    print_endline
      "E19 resource-exhaustion tolerance: skipped (domains already created; \
       run section e19 alone)"
  else begin
    let reqs = Client.stream ~seed:1900L n in
    let tmp tag =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "locsample-e19-%s-%d" tag (Unix.getpid ()))
    in
    let enc rid body = Protocol.encode_response { Protocol.rid; body } in
    let count_substring hay needle =
      let nh = String.length hay and nn = String.length needle in
      if nn = 0 then 0
      else begin
        let k = ref 0 in
        for i = 0 to nh - nn do
          if String.sub hay i nn = needle then incr k
        done;
        !k
      end
    in
    (* One row: fork a daemon with the row's syscall schedule installed
       (plus a file trace and an aggressive snapshot cadence), run the
       burst as a reconnect/resend client, probe health once the budget
       has silenced the schedule, SIGTERM, then judge the trace. *)
    let run_row tag spec =
      let dir = tmp (Printf.sprintf "state-%s" tag) in
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let sock = tmp (tag ^ ".sock") in
      let trace_path = Filename.concat dir "trace.jsonl" in
      flush stdout;
      flush stderr;
      Par.quiesce ();
      let dpid =
        match Unix.fork () with
        | 0 ->
            (try
               let t = Trace.make ~path:trace_path () in
               Trace.install t;
               if not (Sysfault.is_quiet spec) then Sysfault.install spec;
               let cfg =
                 Server.config ~address:(Server.Unix_path sock)
                   ~queue_bound:64 ~batch_max:8 ~snapshot_every:2
                   ~state_dir:dir ()
               in
               ignore (Server.run ~cfg ());
               Trace.close t;
               Unix._exit 0
             with _ -> Unix._exit 3)
        | pid -> pid
      in
      let fresh () =
        match
          Client.connect_retry ~attempts:600 ~delay_ms:10
            (Server.Unix_path sock)
        with
        | Ok c -> c
        | Error msg -> failwith ("e19: " ^ msg)
      in
      let t0 = Unix.gettimeofday () in
      let { Client.responses; conn; _ } =
        match
          Client.burst ~pipeline:4 reqs ~connect:(fun () -> Ok (fresh ()))
        with
        | Ok b -> b
        | Error msg -> failwith ("e19: " ^ msg)
      in
      let wall = Unix.gettimeofday () -. t0 in
      let bodies = Array.map (fun r -> enc r.Protocol.rid r.Protocol.body) responses in
      (* Health probe on a fresh connection: by now the burst has burned
         well past the schedule's budget, so a correct daemon has cleared
         every degraded mode it can clear without new work (the accept
         mark clears on this very connection's accept). *)
      Client.close conn;
      let hc = fresh () in
      let health_end =
        match Client.call hc (Client.control ~id:n Protocol.Health) with
        | Ok { Protocol.body = Protocol.Health_r { reasons = [] }; _ } -> "ok"
        | Ok { Protocol.body = Protocol.Health_r { reasons }; _ } ->
            Printf.sprintf "degraded:%d" (List.length reasons)
        | _ -> "?"
      in
      Client.close hc;
      (try Unix.kill dpid Sys.sigterm with Unix.Unix_error _ -> ());
      let drained =
        match Unix.waitpid [] dpid with
        | _, Unix.WEXITED 0 -> true
        | _ -> false
        | exception Unix.Unix_error _ -> false
      in
      let trace =
        match open_in trace_path with
        | ic ->
            let len = in_channel_length ic in
            let s = really_input_string ic len in
            close_in ic;
            s
        | exception Sys_error _ -> ""
      in
      let enters = count_substring trace {|"ev":"degraded_enter"|} in
      let exits = count_substring trace {|"ev":"degraded_exit"|} in
      Printf.eprintf "[e19 %s: %.2fs wall, %.0f req/s]\n%!" tag wall
        (float_of_int n /. Float.max wall 1e-9);
      (bodies, health_end, drained, enters, exits)
    in
    let budget = 100 in
    let rows =
      [
        ("none", Sysfault.quiet 19L);
        ( "disk",
          {
            (Sysfault.quiet 19L) with
            Sysfault.write_fail = 0.8;
            rename_fail = 0.8;
            open_fail = 0.8;
            ops_budget = budget;
          } );
        ( "accept",
          {
            (Sysfault.quiet 19L) with
            Sysfault.accept_fail = 0.6;
            ops_budget = budget;
          } );
        ( "transparent",
          {
            (Sysfault.quiet 19L) with
            Sysfault.eintr = 0.5;
            short_write = 0.5;
            ops_budget = budget;
          } );
        ( "mixed",
          {
            (Sysfault.quiet 19L) with
            Sysfault.write_fail = 0.6;
            rename_fail = 0.6;
            open_fail = 0.6;
            eintr = 0.3;
            short_write = 0.3;
            accept_fail = 0.3;
            ops_budget = budget;
          } );
      ]
    in
    let results = List.map (fun (tag, spec) -> (tag, run_row tag spec)) rows in
    let reference =
      match results with (_, (bodies, _, _, _, _)) :: _ -> bodies | [] -> [||]
    in
    Table.print
      ~title:
        (Printf.sprintf
           "E19  resource-exhaustion tolerance: syscall faults by subsystem \
            (%d-request burst, budget %d consultations)"
           n budget)
      ~note:
        "One daemon per row under a deterministic syscall fault schedule\n\
         (seed 19) aimed at one subsystem: ENOSPC on snapshot/checkpoint\n\
         disk IO, EMFILE/ENFILE on accept, transparent EINTR/short-write\n\
         storms, or all at once.  `identical` checks the response bytes\n\
         against the fault-free row — resource faults may cost snapshots\n\
         and connections, never answers.  `enters`/`exits` count degraded\n\
         transitions in the daemon's trace (they must pair by clean\n\
         shutdown), `health` is the Health op's verdict after the\n\
         schedule's budget silenced it, and `drain` checks SIGTERM still\n\
         exits 0."
      ~header:[ "faults"; "req"; "identical"; "enters"; "exits"; "paired";
                "health"; "drain" ]
      (List.map
         (fun (tag, (bodies, health_end, drained, enters, exits)) ->
           [
             tag;
             Table.i n;
             (if tag = "none" then "ref"
              else if bodies = reference then "yes"
              else "NO");
             Table.i enters;
             Table.i exits;
             (if enters = exits then "yes" else "NO");
             health_end;
             (if drained then "yes" else "NO");
           ])
         results)
  end
