(* Failure injection, on two axes.

   Oracle axis: feed the reductions a deliberately lying inference oracle
   and check that the guarantees degrade exactly the way the theorems say
   — gradually for the chain-rule sampler (Theorem 3.2's n·delta coupling
   bound), and loudly for JVV (clamps flag the moment the slack stops
   covering the oracle error, instead of silent bias).

   Network axis: inject message drops and crash-stops into the LOCAL
   runtime (Ls_local.Faults) and check the degradation contract — the
   zero-fault plan is bit-identical to the reliable runtime, faults cost
   availability but never correctness (conditional exactness survives),
   and the retry/backoff supervisor (Ls_local.Resilient) recovers what a
   bounded budget can recover while reporting what it cannot. *)

module Generators = Ls_graph.Generators
module Dist = Ls_dist.Dist
module Models = Ls_gibbs.Models
module Graph = Ls_graph.Graph
module Rng = Ls_rng.Rng
module Par = Ls_par.Par
module Empirical = Ls_dist.Empirical
module Network = Ls_local.Network
module Faults = Ls_local.Faults
module Resilient = Ls_local.Resilient

open Ls_core

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let ident_order n = Array.init n (fun i -> i)

(* An oracle with a controlled, deterministic, SUPPORT-PRESERVING lie:
   nonzero probabilities get tilted by (1 ± delta) and renormalized, so the
   per-site TV error is at most delta but the chain rule never steps onto
   an infeasible value.  Radius n keeps its locality contract honest. *)
let lying_oracle ~delta inst0 =
  let exact = Inference.exact inst0 in
  {
    Inference.radius = exact.Inference.radius;
    infer =
      (fun inst v ->
        let d = exact.Inference.infer inst v in
        if Instance.is_pinned inst v then d
        else
          Dist.make (Dist.size d) (fun c ->
              let tilt = if c mod 2 = 0 then 1. +. delta else 1. -. delta in
              Dist.prob d c *. tilt));
  }

let tv_support a b =
  let lookup sigma l = try List.assoc sigma l with Not_found -> 0. in
  0.5
  *. (List.fold_left (fun acc (s, p) -> acc +. Float.abs (p -. lookup s a)) 0. b
     +. List.fold_left
          (fun acc (s, p) -> if List.mem_assoc s b then acc else acc +. p)
          0. a)

let test_sampler_degrades_linearly () =
  let n = 6 in
  let inst = Instance.unpinned (Models.hardcore (Generators.cycle n) ~lambda:1.) in
  let exact = Exact.joint inst in
  let out delta =
    tv_support
      (Sequential_sampler.output_distribution (lying_oracle ~delta inst) inst
         ~order:(ident_order n))
      exact
  in
  let e0 = out 0. and e1 = out 0.02 and e2 = out 0.08 in
  checkb "no lie, no error" true (e0 < 1e-12);
  checkb "monotone in the lie" true (e1 < e2);
  (* The Theorem 3.2 coupling bound: output TV <= n * per-site TV.  The
     per-site TV of the mixture is at most delta. *)
  checkb "within n*delta" true (e1 <= (float_of_int n *. 0.02) +. 1e-9);
  checkb "within n*delta (larger lie)" true (e2 <= (float_of_int n *. 0.08) +. 1e-9)

let test_jvv_clamps_flag_insufficient_slack () =
  let n = 6 in
  let inst = Instance.unpinned (Models.hardcore (Generators.cycle n) ~lambda:1.) in
  let delta = 0.1 in
  let oracle = lying_oracle ~delta inst in
  let order = ident_order n in
  (* Slack far below the lie: clamps must fire, and the certificate of
     exactness (zero clamps) is correctly withheld. *)
  let tight = Jvv.output_distribution oracle ~epsilon:1e-4 inst ~order in
  checkb "clamps detected" true (tight.Jvv.total_clamps > 0);
  (* Slack above the lie: no clamps, and exactness returns despite the
     biased oracle — the whole point of Theorem 4.2. *)
  let generous = Jvv.output_distribution oracle ~epsilon:0.12 inst ~order in
  checkb "no clamps with generous slack" true (generous.Jvv.total_clamps = 0);
  checkb "exact despite the lie" true
    (tv_support generous.Jvv.conditional (Exact.joint inst) < 1e-9)

let test_boosting_survives_small_lies () =
  (* Lemma 4.1 tolerates additive error eps/(5qn): a small lie must still
     produce finite multiplicative error; zero-probability values exactly. *)
  let inst =
    Instance.of_pins (Models.hardcore (Generators.cycle 8) ~lambda:1.) [ (1, 1) ]
  in
  let oracle = lying_oracle ~delta:0.005 inst in
  let exact = Option.get (Exact.marginal inst 0) in
  let boosted = Boosting.boost oracle inst in
  let b = boosted.Inference.infer inst 0 in
  checkb "finite multiplicative error" true (Dist.mult_err b exact < 0.05);
  checkb "hard zero preserved" true (Dist.prob b 1 = 0.)

let test_glauber_vs_biased_sampler () =
  (* Sanity for the baseline comparisons: the (unbiased) Glauber chain beats
     a chain-rule sampler driven by a lying oracle, given enough sweeps. *)
  let n = 5 in
  let inst = Instance.unpinned (Models.hardcore (Generators.path n) ~lambda:1.) in
  let exact = Exact.joint inst in
  let biased =
    tv_support
      (Sequential_sampler.output_distribution (lying_oracle ~delta:0.15 inst) inst
         ~order:(ident_order n))
      exact
  in
  let rng = Ls_rng.Rng.create 3L in
  let emp = Ls_dist.Empirical.create () in
  List.iter (Ls_dist.Empirical.add emp)
    (Glauber.sample_many inst ~sweeps:50 ~thin:5 ~count:20_000 ~rng);
  let glauber_err = Ls_dist.Empirical.tv_against emp exact in
  checkb "biased sampler measurably off" true (biased > 0.05);
  checkb "glauber below the biased sampler" true (glauber_err < biased)

(* --- network-fault axis ------------------------------------------------ *)

let views_equal (a : 'i Network.view) (b : 'i Network.view) =
  a.Network.vertices = b.Network.vertices
  && a.Network.view_inputs = b.Network.view_inputs
  && a.Network.dist_center = b.Network.dist_center

let test_zero_fault_flood_matches_gather () =
  (* Regression for the fault layer's bit-identity contract: under the
     explicit zero-fault plan, flooding still reconstructs exactly the
     views gather grants — the plan's presence must not perturb anything. *)
  let plan = Faults.make ~seed:17L () in
  checkb "all-zero plan is the zero-fault plan" true (Faults.is_none plan);
  List.iter
    (fun g ->
      let n = Graph.n g in
      let inputs = Array.init n (fun v -> v * 3) in
      let net = Network.create ~faults:plan g ~inputs ~seed:18L in
      List.iter
        (fun radius ->
          let flooded = Network.flood_views net ~radius in
          for v = 0 to n - 1 do
            checkb "zero-fault flooded view equals gather" true
              (views_equal flooded.(v) (Network.gather net ~v ~radius));
            checkb "complete" true (Network.view_is_complete net flooded.(v))
          done)
        [ 0; 1; 2; 3 ])
    [ Generators.path 6; Generators.cycle 7; Generators.grid 3 3 ]

let test_drop_faults_detected () =
  (* Heavy message loss must leave some flooded ball incomplete, and
     view_is_complete must say so; gather stays fault-oblivious. *)
  let g = Generators.cycle 8 in
  let faults = Faults.make ~seed:5L ~drop:0.5 () in
  let net = Network.create ~faults g ~inputs:(Array.make 8 ()) ~seed:6L in
  let flooded = Network.flood_views net ~radius:2 in
  let incomplete =
    Array.exists (fun v -> not (Network.view_is_complete net v)) flooded
  in
  checkb "drops stall some ball collection" true incomplete;
  for v = 0 to 7 do
    checkb "gather is fault-oblivious" true
      (Network.view_is_complete net (Network.gather net ~v ~radius:2))
  done

let test_crash_faults_freeze_nodes () =
  (* crash=1 with horizon 1 crashes everyone at round 0: nobody emits, so
     every flooded view degenerates to the bare center. *)
  let g = Generators.cycle 6 in
  let faults = Faults.make ~seed:7L ~crash:1.0 ~crash_horizon:1 () in
  let net = Network.create ~faults g ~inputs:(Array.make 6 ()) ~seed:8L in
  let flooded = Network.flood_views net ~radius:2 in
  for v = 0 to 5 do
    checkb "crashed" true (Network.crashed net v);
    checki "view is the bare center" 1
      (Array.length flooded.(v).Network.vertices);
    checkb "incomplete" false (Network.view_is_complete net flooded.(v))
  done

let test_fault_plan_deterministic () =
  (* Verdicts are pure functions of (seed, coordinates): two plans with the
     same seed agree everywhere, a different seed disagrees somewhere. *)
  let a = Faults.make ~seed:11L ~drop:0.3 () in
  let b = Faults.make ~seed:11L ~drop:0.3 () in
  let c = Faults.make ~seed:12L ~drop:0.3 () in
  let pattern plan =
    List.init 200 (fun i ->
        Faults.dropped plan ~round:(i / 20) ~src:(i mod 20) ~dst:(i mod 7))
  in
  checkb "same seed, same verdicts" true (pattern a = pattern b);
  checkb "different seed, different verdicts" true (pattern a <> pattern c)

(* One named-error test per CLI flag, against the library constructor the
   executables funnel through (same rejection text, library-level). *)
let test_fault_rate_flag_validated () =
  Alcotest.check_raises "drop > 1 rejected"
    (Invalid_argument
       "Faults.make: drop (--fault-rate) must be a probability in [0,1], got 1.5")
    (fun () -> ignore (Faults.make ~drop:1.5 ()))

let test_crash_rate_flag_validated () =
  Alcotest.check_raises "negative crash rejected"
    (Invalid_argument
       "Faults.make: crash (--crash-rate) must be a probability in [0,1], got -0.1")
    (fun () -> ignore (Faults.make ~crash:(-0.1) ()))

let test_retry_budget_flag_validated () =
  Alcotest.check_raises "negative budget rejected"
    (Invalid_argument
       "Resilient.policy: retry_budget (--retry-budget) must be >= 0, got -1")
    (fun () -> ignore (Resilient.policy ~retry_budget:(-1) ()))

let test_retry_backoff_accounting () =
  (* Two failures then success: 3 attempts, backoff 1 + 2 = 3 rounds, all
     charged; a clean report. *)
  let charged = ref 0 in
  let calls = ref 0 in
  let x, report =
    Resilient.run_classified
      (Resilient.policy ~retry_budget:3 ~backoff_base:1 ~backoff_factor:2 ())
      ~charge:(fun r -> charged := !charged + r)
      (fun ~attempt ->
        incr calls;
        if attempt < 2 then Error (Resilient.Transient "transient") else Ok attempt)
  in
  checki "succeeded on third attempt" 2 (Option.get x);
  checki "three calls" 3 !calls;
  checki "attempts reported" 3 report.Resilient.attempts;
  checkb "not degraded" false report.Resilient.degraded;
  checki "backoff 1+2 charged" 3 !charged;
  checki "backoff recorded" 3 report.Resilient.backoff_rounds;
  checki "one reason per failure" 2 (List.length report.Resilient.reasons)

let test_budget_exhaustion_degrades () =
  let x, report =
    Resilient.run_classified
      (Resilient.policy ~retry_budget:2 ())
      (fun ~attempt:_ -> Error (Resilient.Transient "hopeless"))
  in
  checkb "no value" true (x = None);
  checkb "degraded" true report.Resilient.degraded;
  checki "initial try + budget" 3 report.Resilient.attempts;
  checki "every failure explained" 3 (List.length report.Resilient.reasons)

let test_collect_views_recovers () =
  (* Supervised ball collection under moderate loss: retries (fresh clock,
     fresh verdicts) must recover every view no plain flood round got, and
     the zero-fault plan must succeed on the first attempt. *)
  let g = Generators.cycle 8 in
  let policy = Resilient.policy ~retry_budget:8 () in
  let faults = Faults.make ~seed:21L ~drop:0.3 () in
  let net = Network.create ~faults g ~inputs:(Array.make 8 ()) ~seed:22L in
  let views, failed, report = Resilient.collect_views net ~policy ~radius:2 in
  checkb "recovered within budget" false report.Resilient.degraded;
  checkb "no failed nodes" true (Array.for_all not failed);
  Array.iter
    (fun v -> checkb "complete" true (Network.view_is_complete net v))
    views;
  let net0 = Network.create g ~inputs:(Array.make 8 ()) ~seed:23L in
  let _, failed0, report0 = Resilient.collect_views net0 ~policy ~radius:2 in
  checki "fault-free: one attempt" 1 report0.Resilient.attempts;
  checki "fault-free: no backoff" 0 report0.Resilient.backoff_rounds;
  checkb "fault-free: nobody fails" true (Array.for_all not failed0)

let test_resilient_sampler_degrades_gracefully () =
  (* Total message loss: no budget can save this, so the supervisor must
     return a partial result with a degraded report — not raise. *)
  let inst =
    Instance.unpinned (Models.hardcore (Generators.cycle 8) ~lambda:1.)
  in
  let oracle = Inference.ssm_oracle ~t:2 inst in
  let faults = Faults.make ~seed:31L ~drop:1.0 () in
  let policy = Resilient.policy ~retry_budget:2 () in
  let r = Local_sampler.sample_resilient oracle ~policy ~faults inst ~seed:32L in
  let report = Option.get r.Local_sampler.resilience in
  checkb "degraded" true report.Resilient.degraded;
  checkb "not successful" false r.Local_sampler.success;
  checkb "some nodes flagged" true (Array.exists (fun f -> f) r.Local_sampler.failed);
  checki "sigma still total" 8 (Array.length r.Local_sampler.sigma);
  checkb "budget respected" true (report.Resilient.attempts <= 3);
  checkb "rounds include backoff" true
    (r.Local_sampler.rounds > report.Resilient.backoff_rounds)

let test_resilient_sampler_reproducible () =
  let inst =
    Instance.unpinned (Models.hardcore (Generators.cycle 8) ~lambda:1.)
  in
  let oracle = Inference.ssm_oracle ~t:2 inst in
  let faults = Faults.make ~seed:41L ~drop:0.1 ~crash:0.05 () in
  let run () =
    let r = Local_sampler.sample_resilient oracle ~faults inst ~seed:42L in
    (r.Local_sampler.sigma, r.Local_sampler.failed, r.Local_sampler.rounds)
  in
  checkb "same seeds, same execution" true (run () = run ())

(* Zero-fault identity of the supervised JVV sampler: under [Faults.none]
   every flood is complete, so attempt 0 is [run_local] at the first
   payload seed the master stream draws — it succeeds exactly when that
   run does, with the same sample and flags. *)
let test_jvv_zero_fault_identity () =
  let outcomes = Array.make 2 0 in
  for seed = 1 to 60 do
    let inst =
      Instance.unpinned
        (Models.hardcore (Generators.cycle (4 + (seed mod 9))) ~lambda:1.)
    in
    List.iter
      (fun oracle ->
        let seed = Int64.of_int seed and epsilon = 1e-3 in
        let s = Jvv.run_local_resilient oracle ~epsilon ~faults:Faults.none inst ~seed in
        let plain, _ =
          Jvv.run_local oracle ~epsilon inst ~seed:(Rng.bits64 (Rng.create seed))
        in
        let r = s.Jvv.resilience in
        let first = r.Resilient.attempts = 1 && not r.Resilient.degraded in
        checkb "first attempt succeeds iff run_local does" plain.Jvv.success first;
        if first then begin
          checkb "same sample" true (s.Jvv.sresult.Jvv.y = plain.Jvv.y);
          checkb "same flags" true (s.Jvv.sresult.Jvv.failed = plain.Jvv.failed)
        end;
        let i = Bool.to_int first in
        outcomes.(i) <- outcomes.(i) + 1)
      [ Inference.exact inst; Inference.ssm_oracle ~t:3 inst ]
  done;
  checkb "both outcomes occur" true (outcomes.(0) > 0 && outcomes.(1) > 0)

let test_jvv_exact_under_faults () =
  (* The acceptance story of the fault layer: message drops depress the
     JVV success probability, but conditioned on success the output is
     still exactly mu (the fault plan's randomness is independent of the
     payload's, so Lemma 4.8 is untouched).  GOF on the successes at the
     moderate rate; monotone success decay towards the heavy rate. *)
  let n = 6 in
  let inst =
    Instance.unpinned (Models.hardcore (Generators.cycle n) ~lambda:1.)
  in
  let oracle = Inference.ssm_oracle ~t:2 inst in
  let epsilon = Jvv.theory_epsilon inst in
  let policy = Resilient.policy ~retry_budget:3 () in
  let trials = 400 in
  let run_at drop =
    Par.run_trials ~n:trials ~seed:900L (fun rng ->
        let faults = Faults.make ~seed:(Rng.bits64 rng) ~drop () in
        let s =
          Jvv.run_local_resilient oracle ~epsilon ~policy ~faults inst
            ~seed:(Rng.bits64 rng)
        in
        (s.Jvv.sresult.Jvv.success, s.Jvv.sresult.Jvv.y))
  in
  let successes results =
    Array.fold_left (fun a (ok, _) -> if ok then a + 1 else a) 0 results
  in
  let moderate = run_at 0.05 and heavy = run_at 0.2 in
  checkb "drops depress JVV success" true (successes heavy < successes moderate);
  checkb "moderate rate keeps most runs" true
    (successes moderate > trials / 2);
  let emp = Empirical.create () in
  Array.iter (fun (ok, y) -> if ok then Empirical.add emp y) moderate;
  Test_statistics.check_gof "JVV successes under faults vs exact mu"
    ~significance:0.001 emp (Exact.joint inst)

let test_delay_survives_phase_boundary () =
  (* Regression: delay=1, max_delay=1 delays EVERY copy by exactly one
     round, so a radius-1 flood delivers nothing in-phase.  Before the
     carry fix those copies silently became drops at the phase boundary;
     now they are parked and delivered to the next flood, whose views
     become complete purely from last phase's late traffic. *)
  let n = 6 in
  let g = Generators.cycle n in
  let faults = Faults.make ~seed:3L ~delay:1.0 ~max_delay:1 () in
  let net = Network.create ~faults g ~inputs:(Array.init n Fun.id) ~seed:4L in
  let v1 = Network.flood_views net ~radius:1 in
  for v = 0 to n - 1 do
    checki "phase 1: everything arrives late" 1
      (Array.length v1.(v).Network.vertices)
  done;
  checkb "late copies are parked, not lost" true (Network.pending_count net > 0);
  let v2 = Network.flood_views net ~radius:1 in
  for v = 0 to n - 1 do
    checkb "phase 2: carried copies complete the ball" true
      (Network.view_is_complete net v2.(v))
  done

let test_broadcast_carry_conserves_copies () =
  (* Conservation law for a delay-only plan: every transmitted copy is
     either delivered to a merge or still parked — never lost.  (Cycle on
     5 vertices: 10 directed edges per round.) *)
  let n = 5 in
  let g = Generators.cycle n in
  let faults = Faults.make ~seed:9L ~delay:0.7 ~max_delay:3 () in
  let net = Network.create ~faults g ~inputs:(Array.make n ()) ~seed:10L in
  let carrier = Network.carrier () in
  let received = ref 0 in
  let phase rounds =
    ignore
      (Network.run_broadcast net ~rounds ~carry:carrier
         ~init:(fun _ -> ())
         ~emit:(fun _ () -> ())
         ~merge:(fun _ () inbox -> received := !received + List.length inbox)
         ())
  in
  phase 2;
  phase 4;
  let sent = Network.messages net in
  checki "6 rounds x 10 directed edges transmitted" 60 sent;
  checki "every copy delivered or still parked" sent
    (!received + Network.pending_count net)

let test_collect_views_merges_partials () =
  (* Union, not max: knowledge from two flood attempts composes, so the
     merged view contains every vertex either attempt learned. *)
  let n = 10 in
  let g = Generators.cycle n in
  let faults = Faults.make ~seed:51L ~drop:0.45 () in
  let net = Network.create ~faults g ~inputs:(Array.make n ()) ~seed:52L in
  let a = Network.flood_views net ~radius:2 in
  let b = Network.flood_views net ~radius:2 in
  let mem view o = Array.exists (( = ) o) view.Network.vertices in
  let strictly_bigger = ref false in
  Array.iteri
    (fun v bv ->
      let m = Network.merge_views net a.(v) bv in
      Array.iter
        (fun o -> checkb "merged contains attempt 1" true (mem m o))
        a.(v).Network.vertices;
      Array.iter
        (fun o -> checkb "merged contains attempt 2" true (mem m o))
        bv.Network.vertices;
      if
        Array.length m.Network.vertices > Array.length a.(v).Network.vertices
        && Array.length m.Network.vertices > Array.length bv.Network.vertices
      then strictly_bigger := true)
    b;
  (* At drop 0.45 some node's two partial views are incomparable, which is
     exactly the case the old keep-the-larger rule lost knowledge on. *)
  checkb "some merge exceeds both operands" true !strictly_bigger;
  Alcotest.check_raises "mismatched centers rejected"
    (Invalid_argument "Network.merge_views: views differ in center or radius")
    (fun () -> ignore (Network.merge_views net a.(0) a.(1)))

let test_corruption_per_copy () =
  (* Duplicated copies draw independent corruption verdicts (satellite of
     the per-copy coordinate fix): across many (round, edge) coordinates
     the two copies must disagree somewhere. *)
  let plan = Faults.make ~seed:61L ~duplicate:1.0 ~corrupt:0.5 () in
  let differing = ref false in
  for round = 0 to 9 do
    for src = 0 to 9 do
      let dst = (src + 1) mod 10 in
      let c1 = Faults.corrupted plan ~round ~src ~dst ~copy:1 in
      let c2 = Faults.corrupted plan ~round ~src ~dst ~copy:2 in
      if c1 <> c2 then differing := true
    done
  done;
  checkb "copies draw independent verdicts" true !differing;
  (* End-to-end through the executor: with dup=1 and corrupt=0.5 some
     receiver must see one corrupted and one pristine copy of the same
     message — impossible under the old all-or-none verdict. *)
  let n = 8 in
  let g = Generators.cycle n in
  let net =
    Network.create ~faults:plan g ~inputs:(Array.make n ()) ~seed:62L
  in
  let mixed = ref false in
  ignore
    (Network.run_broadcast net ~rounds:3
       ~corrupt:(fun ~round:_ ~src:_ ~dst:_ m -> m + 1000)
       ~init:(fun v -> v)
       ~emit:(fun v _ -> v)
       ~merge:(fun _ s inbox ->
         List.iter
           (fun m ->
             let src = m mod 1000 in
             if List.mem src inbox && List.mem (src + 1000) inbox then
               mixed := true)
           inbox;
         s)
       ());
  checkb "a duplicate pair split verdicts in flight" true !mixed

let test_jvv_exact_under_delays () =
  (* Delay-only companion to test_jvv_exact_under_faults: after the
     boundary fix a delayed record is late, never lost, so availability
     stays high and — as for drops — conditioned on success the output law
     is exactly mu. *)
  let n = 6 in
  let inst =
    Instance.unpinned (Models.hardcore (Generators.cycle n) ~lambda:1.)
  in
  let oracle = Inference.ssm_oracle ~t:2 inst in
  let epsilon = Jvv.theory_epsilon inst in
  let policy = Resilient.policy ~retry_budget:3 () in
  let trials = 400 in
  let results =
    Par.run_trials ~n:trials ~seed:910L (fun rng ->
        let faults =
          Faults.make ~seed:(Rng.bits64 rng) ~delay:0.3 ~max_delay:2 ()
        in
        let s =
          Jvv.run_local_resilient oracle ~epsilon ~policy ~faults inst
            ~seed:(Rng.bits64 rng)
        in
        (s.Jvv.sresult.Jvv.success, s.Jvv.sresult.Jvv.y))
  in
  let successes =
    Array.fold_left (fun a (ok, _) -> if ok then a + 1 else a) 0 results
  in
  checkb "delays cost availability only mildly" true (successes > trials / 2);
  let emp = Empirical.create () in
  Array.iter (fun (ok, y) -> if ok then Empirical.add emp y) results;
  Test_statistics.check_gof "JVV successes under delay-only faults vs exact mu"
    ~significance:0.001 emp (Exact.joint inst)

let suite =
  [
    Alcotest.test_case "sampler degrades linearly" `Quick test_sampler_degrades_linearly;
    Alcotest.test_case "JVV clamps flag bad slack" `Quick
      test_jvv_clamps_flag_insufficient_slack;
    Alcotest.test_case "boosting survives small lies" `Quick
      test_boosting_survives_small_lies;
    Alcotest.test_case "glauber vs biased sampler" `Slow test_glauber_vs_biased_sampler;
    Alcotest.test_case "zero-fault flood = gather" `Quick
      test_zero_fault_flood_matches_gather;
    Alcotest.test_case "drop faults detected" `Quick test_drop_faults_detected;
    Alcotest.test_case "crash faults freeze nodes" `Quick
      test_crash_faults_freeze_nodes;
    Alcotest.test_case "fault plan deterministic" `Quick
      test_fault_plan_deterministic;
    Alcotest.test_case "--fault-rate validated" `Quick
      test_fault_rate_flag_validated;
    Alcotest.test_case "--crash-rate validated" `Quick
      test_crash_rate_flag_validated;
    Alcotest.test_case "--retry-budget validated" `Quick
      test_retry_budget_flag_validated;
    Alcotest.test_case "retry/backoff accounting" `Quick
      test_retry_backoff_accounting;
    Alcotest.test_case "budget exhaustion degrades" `Quick
      test_budget_exhaustion_degrades;
    Alcotest.test_case "supervised ball collection recovers" `Quick
      test_collect_views_recovers;
    Alcotest.test_case "resilient sampler degrades gracefully" `Quick
      test_resilient_sampler_degrades_gracefully;
    Alcotest.test_case "resilient sampler reproducible" `Quick
      test_resilient_sampler_reproducible;
    Alcotest.test_case "JVV zero-fault identity" `Quick test_jvv_zero_fault_identity;
    Alcotest.test_case "JVV exact under faults" `Slow test_jvv_exact_under_faults;
    Alcotest.test_case "delay survives phase boundary" `Quick
      test_delay_survives_phase_boundary;
    Alcotest.test_case "broadcast carry conserves copies" `Quick
      test_broadcast_carry_conserves_copies;
    Alcotest.test_case "collect_views merges partial knowledge" `Quick
      test_collect_views_merges_partials;
    Alcotest.test_case "corruption verdicts are per copy" `Quick
      test_corruption_per_copy;
    Alcotest.test_case "JVV exact under delay-only faults" `Slow
      test_jvv_exact_under_delays;
  ]
