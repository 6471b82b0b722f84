(* Tests for approximate inference (Theorem 5.1 algorithm), the boosting
   lemma (Lemma 4.1), and the counting reduction. *)

module Graph = Ls_graph.Graph
module Generators = Ls_graph.Generators
module Dist = Ls_dist.Dist
module Rng = Ls_rng.Rng
module Config = Ls_gibbs.Config
module Models = Ls_gibbs.Models
module Enumerate = Ls_gibbs.Enumerate

open Ls_core

let checkb = Alcotest.check Alcotest.bool
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

let hardcore_spec n lambda = Models.hardcore (Generators.cycle n) ~lambda
let hardcore_cycle n lambda = Instance.unpinned (hardcore_spec n lambda)

(* --- instance --- *)

let test_instance_basics () =
  let inst = hardcore_cycle 5 1. in
  Alcotest.check Alcotest.int "n" 5 (Instance.n inst);
  Alcotest.check Alcotest.int "q" 2 (Instance.q inst);
  checkb "feasible" true (Instance.is_feasible inst);
  let inst' = Instance.of_pins inst.Instance.spec [ (0, 1) ] in
  checkb "pinned" true (Instance.is_pinned inst' 0);
  checkb "original untouched" false (Instance.is_pinned inst 0);
  Alcotest.check (Alcotest.list Alcotest.int) "free" [ 1; 2; 3; 4 ]
    (Instance.free_vertices inst')

let test_exact_dispatcher_agrees () =
  (* The dispatcher must match raw enumeration on a non-forest graph too. *)
  let g = Generators.cycle 6 in
  let inst = Instance.unpinned (Models.hardcore g ~lambda:1.2) in
  for v = 0 to 5 do
    let a = Option.get (Exact.marginal inst v) in
    let b = Option.get (Enumerate.marginal inst.Instance.spec inst.Instance.pinned v) in
    checkb "dispatcher = enumeration" true (Dist.tv a b < 1e-12)
  done

(* --- exact oracle --- *)

let test_exact_oracle () =
  let inst = hardcore_cycle 6 0.8 in
  let oracle = Inference.exact inst in
  let m = oracle.Inference.infer inst 0 in
  let e = Option.get (Exact.marginal inst 0) in
  checkb "oracle = exact" true (Dist.tv m e < 1e-12)

(* --- annulus and extensions --- *)

let test_annulus () =
  let inst = hardcore_cycle 9 1. in
  (* locality 1, t=2: annulus = sphere at distance 3. *)
  let gamma = Inference.annulus inst ~v:0 ~t:2 in
  Alcotest.check (Alcotest.array Alcotest.int) "annulus" [| 3; 6 |] gamma

let test_annulus_excludes_pinned () =
  let inst = Instance.of_pins (hardcore_spec 9 1.) [ (3, 0) ] in
  let gamma = Inference.annulus inst ~v:0 ~t:2 in
  Alcotest.check (Alcotest.array Alcotest.int) "pinned excluded" [| 6 |] gamma

let test_locally_feasible_extension () =
  let inst = Instance.of_pins (hardcore_spec 6 1.) [ (0, 1) ] in
  match Inference.locally_feasible_extension inst ~vertices:[| 1; 2; 3 |] with
  | None -> Alcotest.fail "extension must exist"
  | Some sigma ->
      checkb "keeps pin" true (sigma.(0) = 1);
      checkb "locally feasible" true
        (Ls_gibbs.Spec.locally_feasible inst.Instance.spec sigma);
      checkb "extends all" true
        (List.for_all (fun v -> sigma.(v) <> Config.unassigned) [ 1; 2; 3 ])

let test_extension_needs_backtracking () =
  (* 2-coloring of a path with both endpoints pinned compatibly: the
     oblivious pass may pick a dead end; backtracking must recover. *)
  let g = Generators.path 4 in
  let spec = Models.coloring g ~q:2 in
  let inst = Instance.of_pins spec [ (0, 0); (3, 1) ] in
  match Inference.locally_feasible_extension inst ~vertices:[| 2; 1 |] with
  | None -> Alcotest.fail "a proper 2-coloring exists"
  | Some sigma ->
      checkb "proper" true (Ls_gibbs.Spec.weight spec sigma > 0.)

(* --- SSM inference (Theorem 5.1 algorithm) --- *)

let test_ssm_inference_error_decreases () =
  (* On a hardcore cycle below uniqueness, error must shrink with t. *)
  let inst = hardcore_cycle 12 0.8 in
  let exact = Option.get (Exact.marginal inst 0) in
  let err t = Dist.tv (Inference.ssm_infer ~t inst 0) exact in
  let e1 = err 1 and e3 = err 3 and e5 = err 5 in
  checkb "t=1 imperfect but sane" true (e1 < 0.5);
  checkb "decreasing" true (e3 <= e1 +. 1e-12 && e5 <= e3 +. 1e-12);
  checkb "t=5 accurate" true (e5 < 0.01)

let test_ssm_inference_pinned_vertex () =
  let inst = Instance.of_pins (hardcore_spec 8 1.) [ (2, 1) ] in
  let d = Inference.ssm_infer ~t:2 inst 2 in
  checkf "point mass at pin" 1. (Dist.prob d 1)

let test_ssm_inference_respects_pins () =
  (* Pinning a neighbor occupied forces the vertex out, at any radius. *)
  let inst = Instance.of_pins (hardcore_spec 8 1.) [ (1, 1) ] in
  let d = Inference.ssm_infer ~t:2 inst 0 in
  checkf "forced out" 1. (Dist.prob d 0)

let test_ssm_inference_radius_property () =
  (* Oracle answers must be identical on two instances agreeing within the
     oracle radius — the locality contract the reductions rely on. *)
  let n = 14 in
  let g = Generators.cycle n in
  let spec = Models.hardcore g ~lambda:1. in
  let t = 2 in
  let oracle = Inference.ssm_oracle ~t (Instance.unpinned spec) in
  let r = oracle.Inference.radius in
  checkb "radius covers t + 2l" true (r = t + 2);
  (* Pin a vertex beyond the radius from v=0 in two different ways. *)
  let far = r + 1 in
  let a = Instance.of_pins spec [ (far, 0) ] in
  let b = Instance.of_pins spec [ (far, 1) ] in
  let da = oracle.Inference.infer a 0 and db = oracle.Inference.infer b 0 in
  checkb "identical beyond radius" true (Dist.tv da db < 1e-15)

(* The locality contract for [saw_oracle]: its answer at [v] reads
   B_r(v) alone (r = its radius), so adding, changing or removing pins
   outside that ball leaves it bitwise equal.  Every binary model
   [Engine.parse_model] accepts, at depths 1-6, on graphs of up to 64
   vertices, so the outside of the ball is large; half of the root's
   neighbours are pinned, so many roots are forced.  The same property
   does not hold for [ssm_oracle] yet: its feasibility check scans the
   whole spec. *)
let qcheck_saw_oracle_locality =
  let graph rng n =
    match Rng.int rng 5 with
    | 0 -> Generators.cycle (3 + Rng.int rng (n - 2))
    | 1 -> Generators.path (1 + Rng.int rng n)
    | 2 -> Generators.random_tree rng (1 + Rng.int rng n)
    | 3 ->
        let r = 1 + Rng.int rng 8 in
        Generators.grid r (1 + Rng.int rng (n / r))
    | _ -> Generators.random_regular rng ~n:(2 * (2 + Rng.int rng ((n / 2) - 1))) ~d:3
  in
  let model rng kind =
    let x lo hi = lo +. ((hi -. lo) *. Rng.float rng) in
    match kind with
    | 0 -> Printf.sprintf "hardcore:%.3f" (x 0.1 3.)
    | 1 -> Printf.sprintf "ising:%.3f:%.3f" (x 0. 2.) (x 0.1 2.)
    | 2 -> Printf.sprintf "potts:2:%.3f" (x 0. 2.)
    | 3 -> "coloring:2"
    | _ -> Printf.sprintf "matching:%.3f" (x 0.1 3.)
  in
  let bits d = Array.init (Dist.size d) (fun c -> Int64.bits_of_float (Dist.prob d c)) in
  QCheck.Test.make ~name:"saw_oracle reads B_radius(v) alone (pins outside change nothing)"
    ~count:200
    QCheck.(triple small_int (int_range 0 4) (int_range 1 6))
    (fun (seed, kind, depth) ->
      let rng = Rng.of_int seed in
      (* A matching lives on the line graph: keep that within 64 too. *)
      let g = graph rng (if kind = 4 then 32 else 64) in
      let spec = (Result.get_ok (Ls_serve.Engine.parse_model g (model rng kind))).spec in
      let h = Ls_gibbs.Spec.graph spec in
      let n = Graph.n h in
      let tau =
        Array.init n (fun _ ->
            if Rng.bernoulli rng 0.3 then Rng.int rng 2 else Config.unassigned)
      in
      let oracle = Inference.saw_oracle ~depth (Instance.unpinned spec) in
      let answer tau v = bits (oracle.Inference.infer (Instance.create spec ~pinned:tau) v) in
      n = 0
      || List.for_all
           (fun _ ->
             let v = Rng.int rng n in
             (* Pins in v's row make forced roots common. *)
             let tau = Array.copy tau in
             Array.iter
               (fun w -> if Rng.bernoulli rng 0.5 then tau.(w) <- Rng.int rng 2)
               (Graph.neighbors h v);
             let inside = Array.make n false in
             Array.iter (fun u -> inside.(u) <- true) (Graph.ball h v oracle.Inference.radius);
             let tau' =
               Array.mapi
                 (fun u c ->
                   if inside.(u) || Rng.bool rng then c
                   else if c = Config.unassigned then Rng.int rng 2
                   else if Rng.bool rng then 1 - c
                   else Config.unassigned)
                 tau
             in
             answer tau v = answer tau' v)
           [ 1; 2; 3 ])

let test_ssm_inference_on_colorings () =
  let g = Generators.cycle 10 in
  let inst = Instance.unpinned (Models.coloring g ~q:4) in
  let exact = Option.get (Exact.marginal inst 0) in
  let approx = Inference.ssm_infer ~t:4 inst 0 in
  checkb "colorings inference accurate" true (Dist.tv approx exact < 0.01)

let test_ssm_inference_tree () =
  let g = Generators.complete_tree ~branching:2 ~depth:4 in
  let inst = Instance.unpinned (Models.hardcore g ~lambda:0.5) in
  let exact = Option.get (Exact.marginal inst 0) in
  let approx = Inference.ssm_infer ~t:3 inst 0 in
  checkb "tree inference accurate" true (Dist.tv approx exact < 0.02)

(* --- boosting (Lemma 4.1) --- *)

let test_boosting_multiplicative_error () =
  let inst = hardcore_cycle 12 0.8 in
  let aplus = Inference.ssm_oracle ~t:3 inst in
  let boosted = Boosting.boost aplus inst in
  let exact = Option.get (Exact.marginal inst 0) in
  let d = boosted.Inference.infer inst 0 in
  checkb "finite multiplicative error" true (Dist.mult_err d exact < 0.05);
  checkb "radius is 2t + l" true (boosted.Inference.radius = (2 * aplus.Inference.radius) + 1)

let test_boosting_beats_plain_on_mult_error () =
  (* Boosting exists because additive-good inference can still have huge
     multiplicative error near zero-probability values; at equal ball
     budget the boosted answer's mult error must be comparable or better. *)
  let inst = Instance.of_pins (hardcore_spec 12 1.5) [ (1, 1) ] in
  let exact = Option.get (Exact.marginal inst 0) in
  let aplus = Inference.ssm_oracle ~t:2 inst in
  let boosted = Boosting.boost aplus inst in
  let mb = Dist.mult_err (boosted.Inference.infer inst 0) exact in
  checkb "boosted mult err small" true (mb < 0.1);
  (* Zero-probability values must be reproduced exactly (err convention). *)
  checkf "zero stays zero" 0. (Dist.prob (boosted.Inference.infer inst 0) 1)

let test_boosting_with_exact_oracle_is_exact () =
  let inst = hardcore_cycle 8 1. in
  let boosted = Boosting.boost (Inference.exact inst) inst in
  let exact = Option.get (Exact.marginal inst 3) in
  checkb "exact in, exact out" true (Dist.tv (boosted.Inference.infer inst 3) exact < 1e-9)

(* --- counting via self-reduction --- *)

let test_log_partition_exact_oracle () =
  let inst = hardcore_cycle 7 1.3 in
  let oracle = Inference.exact inst in
  let order = Array.init 7 (fun i -> i) in
  let est = Reductions.estimate_log_partition oracle inst ~order in
  let truth = log (Exact.partition inst) in
  checkb "exact oracle gives exact logZ" true (Float.abs (est -. truth) < 1e-9)

let test_log_partition_ssm_oracle () =
  let inst = hardcore_cycle 10 0.8 in
  let oracle = Inference.ssm_oracle ~t:4 inst in
  let order = Array.init 10 (fun i -> i) in
  let est = Reductions.estimate_log_partition oracle inst ~order in
  let truth = log (Exact.partition inst) in
  checkb "approximate logZ close" true (Float.abs (est -. truth) < 0.05)

let test_log_partition_pinned () =
  let inst = Instance.of_pins (hardcore_spec 6 1.) [ (0, 1) ] in
  let oracle = Inference.exact inst in
  let order = Array.init 6 (fun i -> i) in
  let est = Reductions.estimate_log_partition oracle inst ~order in
  let truth = log (Exact.partition inst) in
  checkb "conditional partition" true (Float.abs (est -. truth) < 1e-9)

let qcheck_ssm_oracle_valid_distribution =
  QCheck.Test.make ~name:"SSM oracle always returns a distribution" ~count:40
    QCheck.(triple small_int (int_range 4 10) (int_range 1 3))
    (fun (seed, n, t) ->
      let rng = Rng.of_int seed in
      let g = Generators.random_tree rng n in
      let lambda = 0.3 +. Rng.float rng in
      let inst = Instance.unpinned (Models.hardcore g ~lambda) in
      let d = Inference.ssm_infer ~t inst (Rng.int rng n) in
      Dist.is_normalized d)

let suite =
  [
    Alcotest.test_case "instance basics" `Quick test_instance_basics;
    Alcotest.test_case "exact dispatcher" `Quick test_exact_dispatcher_agrees;
    Alcotest.test_case "exact oracle" `Quick test_exact_oracle;
    Alcotest.test_case "annulus" `Quick test_annulus;
    Alcotest.test_case "annulus excludes pinned" `Quick test_annulus_excludes_pinned;
    Alcotest.test_case "locally feasible extension" `Quick test_locally_feasible_extension;
    Alcotest.test_case "extension backtracking" `Quick test_extension_needs_backtracking;
    Alcotest.test_case "ssm inference error decreases" `Quick
      test_ssm_inference_error_decreases;
    Alcotest.test_case "ssm inference pinned" `Quick test_ssm_inference_pinned_vertex;
    Alcotest.test_case "ssm inference respects pins" `Quick
      test_ssm_inference_respects_pins;
    Alcotest.test_case "oracle radius contract" `Quick test_ssm_inference_radius_property;
    QCheck_alcotest.to_alcotest qcheck_saw_oracle_locality;
    Alcotest.test_case "ssm inference colorings" `Quick test_ssm_inference_on_colorings;
    Alcotest.test_case "ssm inference tree" `Quick test_ssm_inference_tree;
    Alcotest.test_case "boosting mult error" `Quick test_boosting_multiplicative_error;
    Alcotest.test_case "boosting near-zero values" `Quick
      test_boosting_beats_plain_on_mult_error;
    Alcotest.test_case "boosting exact fixpoint" `Quick
      test_boosting_with_exact_oracle_is_exact;
    Alcotest.test_case "logZ exact oracle" `Quick test_log_partition_exact_oracle;
    Alcotest.test_case "logZ ssm oracle" `Quick test_log_partition_ssm_oracle;
    Alcotest.test_case "logZ pinned" `Quick test_log_partition_pinned;
    QCheck_alcotest.to_alcotest qcheck_ssm_oracle_valid_distribution;
  ]
