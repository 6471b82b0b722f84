(* Bechamel timing benches for the core primitives, including the
   engine and scheduling ablations called out in DESIGN.md. *)

open Bechamel
module Graph = Ls_graph.Graph
module Generators = Ls_graph.Generators
module Line_graph = Ls_graph.Line_graph
module Rng = Ls_rng.Rng
module Config = Ls_gibbs.Config
module Models = Ls_gibbs.Models
module Enumerate = Ls_gibbs.Enumerate
module Forest_dp = Ls_gibbs.Forest_dp
module Matching_dp = Ls_gibbs.Matching_dp
module Decomposition = Ls_local.Decomposition
module Faults = Ls_local.Faults
module Network = Ls_local.Network
module Par = Ls_par.Par
open Ls_core

(* The core primitives, on shared inputs allocated once. *)
let core_rows () =
  let cycle64 = Generators.cycle 64 in
  let hardcore64 = Models.hardcore cycle64 ~lambda:1. in
  let inst64 = Instance.unpinned hardcore64 in
  let ball9 = Graph.ball cycle64 0 4 in
  let empty64 = Config.empty 64 in
  let tree10 = Generators.complete_tree ~branching:2 ~depth:10 in
  let reg_graph =
    Generators.random_regular (Rng.create 1L) ~n:64 ~d:4
  in
  let glauber_inst = Instance.unpinned (Models.hardcore cycle64 ~lambda:1.) in
  let glauber_state = Glauber.init glauber_inst in
  let glauber_rng = Rng.create 2L in
  let decomposition_rng = Rng.create 3L in
  let oracle = Inference.ssm_oracle ~t:2 inst64 in
  [
    (* Ablation 1: enumeration vs forest DP on the same radius-4 ball. *)
    Test.make ~name:"ball_marginal/enumeration"
      (Staged.stage (fun () ->
           ignore (Enumerate.ball_marginal hardcore64 ~ball:ball9 empty64 0)));
    Test.make ~name:"ball_marginal/forest_dp"
      (Staged.stage (fun () ->
           ignore (Forest_dp.ball_marginal hardcore64 ~ball:ball9 empty64 0)));
    Test.make ~name:"ssm_infer/t=2 (C64 hardcore)"
      (Staged.stage (fun () -> ignore (Inference.ssm_infer ~t:2 inst64 0)));
    Test.make ~name:"chain_dp/exact marginal (C64)"
      (Staged.stage (fun () ->
           ignore (Ls_gibbs.Chain_dp.marginal hardcore64 empty64 0)));
    (* SAW tree on a 4-regular graph: a radius-3 ball there has ~50
       vertices, so the enumeration engine cannot even enter this row. *)
    Test.make ~name:"saw/depth=3 (4-regular n=64 hardcore)"
      (Staged.stage
         (let spec4 = Models.hardcore reg_graph ~lambda:0.5 in
          let tau = Config.empty 64 in
          fun () -> ignore (Ls_gibbs.Saw.marginal ~depth:3 spec4 tau 0)));
    Test.make ~name:"oracle.infer via ssm_oracle"
      (Staged.stage (fun () -> ignore (oracle.Inference.infer inst64 17)));
    Test.make ~name:"glauber/sweep (C64)"
      (Staged.stage (fun () -> Glauber.sweep glauber_state glauber_rng));
    Test.make ~name:"decomposition/linial_saks (C64)"
      (Staged.stage (fun () ->
           ignore (Decomposition.linial_saks cycle64 decomposition_rng)));
    Test.make ~name:"line_graph/make (4-regular n=64)"
      (Staged.stage (fun () -> ignore (Line_graph.make reg_graph)));
    Test.make ~name:"matching_dp/edge_marginal (tree depth 10)"
      (Staged.stage (fun () ->
           ignore (Matching_dp.edge_marginal tree10 ~lambda:1. ~pins:[] (0, 1))));
    Test.make ~name:"sequential_sample (C64, t=2 oracle)"
      (Staged.stage (fun () ->
           ignore
             (Sequential_sampler.sample oracle inst64
                ~order:(Array.init 64 (fun i -> i))
                ~rng:glauber_rng)));
    (* Parallel-engine ablation: the same 32-trial Glauber workload run
       through the engine at 1 domain vs the configured domain count.
       The gap is the engine's speedup (or, on one core, its overhead). *)
    Test.make ~name:"par/32 glauber sweeps, domains=1"
      (Staged.stage (fun () ->
           ignore
             (Par.run_trials ~domains:1 ~n:32 ~seed:11L (fun rng ->
                  let st = Glauber.init glauber_inst in
                  for _ = 1 to 4 do
                    Glauber.sweep st rng
                  done))));
    Test.make ~name:(Printf.sprintf "par/32 glauber sweeps, domains=%d" (Par.domains ()))
      (Staged.stage (fun () ->
           ignore
             (Par.run_trials ~n:32 ~seed:11L (fun rng ->
                  let st = Glauber.init glauber_inst in
                  for _ = 1 to 4 do
                    Glauber.sweep st rng
                  done))));
  ]

(* The Linial–Saks plan of Local_sampler.sample alone, at growing n:
   every BFS on its path is cut at a ball radius, so at fixed t the
   cost should grow about linearly in n. *)
let plan_rows () =
  List.map
    (fun n ->
      let inst =
        Instance.unpinned (Models.hardcore (Generators.cycle n) ~lambda:1.)
      in
      let oracle = Inference.ssm_oracle ~t:2 inst in
      Test.make
        ~name:(Printf.sprintf "local_sampler/plan (hardcore cycle:%d, t=2)" n)
        (Staged.stage (fun () -> ignore (Local_sampler.plan oracle inst ~seed:1L))))
    [ 256; 1024; 4096 ]
  (* The scheduler alone, where G^{locality+1} is dense: on grid:8x8 at
     locality 10 (sample-saw's plan) it is nearly complete. *)
  @ List.map
      (fun (name, g, locality) ->
        Test.make
          ~name:(Printf.sprintf "scheduler/compile_plan (%s, locality %d)" name locality)
          (Staged.stage (fun () ->
               ignore
                 (Ls_local.Scheduler.compile_plan ~graph:g ~locality
                    ~rng:(Rng.create 1L) ()))))
      [ ("grid:8x8", Generators.grid 8 8, 10); ("cycle:256", Generators.cycle 256, 4) ]

(* One whole chain-rule sample (plan plus payload) at growing n; each
   step pins in place, so what remains superlinear is the per-step
   inference. *)
let sample_rows () =
  List.map
    (fun n ->
      let inst =
        Instance.unpinned (Models.hardcore (Generators.cycle n) ~lambda:1.)
      in
      let oracle = Inference.ssm_oracle ~t:2 inst in
      Test.make
        ~name:(Printf.sprintf "local_sampler/sample (hardcore cycle:%d, t=2)" n)
        (Staged.stage (fun () -> ignore (Local_sampler.sample oracle inst ~seed:1L))))
    [ 256; 1024 ]

(* Ball geometry at growing n: one radius-bounded search, so a ball
   and one ssm_infer should cost about the same at every n.  The
   ssm_infer rows pin half the cycle (every vertex 0 or 1 mod 4, to 1
   and 0), as a chain-rule sample has half-way through; what still
   grows with n there is locally_feasible_extension's whole-spec
   feasibility scans.  The SAW kernel on the largest of those
   instances should cost its walks alone, as it does on grid:8x8. *)
let ball_rows () =
  let half_pinned n =
    let spec = Models.hardcore (Generators.cycle n) ~lambda:1. in
    let pinned =
      Array.init n (fun u -> match u mod 4 with 0 -> 1 | 1 -> 0 | _ -> Config.unassigned)
    in
    Instance.create spec ~pinned
  in
  List.map
    (fun n ->
      let g = Generators.cycle n in
      Test.make
        ~name:(Printf.sprintf "graph/ball r=3 (cycle:%d)" n)
        (Staged.stage (fun () -> ignore (Graph.ball g (n / 2) 3))))
    [ 256; 16384 ]
  @ List.map
      (fun n ->
        let inst = half_pinned n in
        Test.make
          ~name:(Printf.sprintf "ssm_infer/t=2 (hardcore cycle:%d, half pinned)" n)
          (Staged.stage (fun () -> ignore (Inference.ssm_infer ~t:2 inst ((n / 2) + 2)))))
      [ 256; 1024; 4096; 16384 ]
  @ [
      (let n = 16384 in
       let inst = half_pinned n in
       Test.make ~name:"saw/depth=10 (hardcore cycle:16384, half pinned)"
         (Staged.stage (fun () ->
              ignore
                (Ls_gibbs.Saw.marginal ~depth:10 inst.Instance.spec inst.Instance.pinned
                   ((n / 2) + 2)))));
    ]

(* The exact kernel alone on the radius-2 balls that ssm_infer t=1
   gathers on two serve-hot instances, with the annulus pinned the way
   ssm_infer pins it: a forest ball (forest DP) and a non-forest one
   (enumeration).  Next to each, the whole ssm_infer call. *)
let kernel_rows () =
  List.concat_map
    (fun (label, g, spec, v) ->
      let inst = Instance.unpinned spec in
      let ball = Graph.ball g v 2 in
      let pinned =
        match
          Inference.locally_feasible_extension inst
            ~vertices:(Inference.annulus inst ~v ~t:1)
        with
        | Some sigma -> sigma
        | None -> inst.Instance.pinned
      in
      let inst' = Instance.create spec ~pinned in
      [
        Test.make
          ~name:(Printf.sprintf "exact/ball_marginal (%s, radius 2)" label)
          (Staged.stage (fun () -> ignore (Exact.ball_marginal inst' ~ball v)));
        Test.make
          ~name:(Printf.sprintf "ssm_infer/t=1 (%s)" label)
          (Staged.stage (fun () -> ignore (Inference.ssm_infer ~t:1 inst v)));
      ])
    (let cycle24 = Generators.cycle 24 and grid34 = Generators.grid 3 4 in
     [
       ("hardcore cycle:24", cycle24, Models.hardcore cycle24 ~lambda:0.8, 0);
       ("coloring:5 grid:3x4", grid34, Models.coloring grid34 ~q:5, 5);
     ])

(* Spec construction: the scope-diameter pass must stay linear in m. *)
let spec_rows () =
  List.map
    (fun n ->
      let g = Generators.cycle n in
      Test.make
        ~name:(Printf.sprintf "models/hardcore cycle:%d" n)
        (Staged.stage (fun () -> ignore (Models.hardcore g ~lambda:1.))))
    [ 1024; 4096 ]

(* Ball collection by real message passing, fault-free and lossy: one
   synchronous executor plus the per-node view build. *)
let flood_rows () =
  List.map
    (fun (label, g, faults, radius) ->
      let net =
        Network.create ~faults g ~inputs:(Array.make (Graph.n g) ()) ~seed:1L
      in
      Test.make
        ~name:(Printf.sprintf "network/flood_views (%s, radius %d)" label radius)
        (Staged.stage (fun () -> ignore (Network.flood_views net ~radius))))
    [
      ("cycle:256", Generators.cycle 256, Faults.none, 2);
      ("grid:16x16", Generators.grid 16 16, Faults.none, 3);
      ( "cycle:256 drop=0.1",
        Generators.cycle 256,
        Faults.make ~seed:1L ~drop:0.1 (),
        2 );
    ]

(* The sample-saw kernel per call: one saw_oracle answer on grid:8x8
   hardcore 0.5 at depth 10, unpinned and with half the other vertices
   pinned to an independent-set pattern, as they are mid-trial; and the
   same call at a root that an occupied neighbour forces, which reads
   the root's row and runs no walk. *)
let saw_rows () =
  let g = Generators.grid 8 8 in
  let spec = Models.hardcore g ~lambda:0.5 in
  let v = 27 in
  let half = Config.empty 64 in
  let others = Array.of_list (List.filter (( <> ) v) (List.init 64 Fun.id)) in
  let rng = Rng.create 5L in
  Rng.shuffle rng others;
  Array.iteri
    (fun i u ->
      if i < 32 then
        let free_nbrs = Array.for_all (fun w -> half.(w) <> 1) (Graph.neighbors g u) in
        half.(u) <- (if Rng.bernoulli rng 0.3 && free_nbrs then 1 else 0))
    others;
  let row name pinned =
    let inst = Instance.create spec ~pinned in
    let oracle = Inference.saw_oracle ~depth:10 inst in
    Test.make ~name (Staged.stage (fun () -> ignore (oracle.Inference.infer inst v)))
  in
  let forced = Array.copy half in
  forced.((Graph.neighbors g v).(0)) <- 1;
  [
    row "saw/depth=10 (grid:8x8 hardcore 0.5)" (Config.empty 64);
    row "saw/depth=10 (grid:8x8 hardcore 0.5, half pinned)" half;
    row "saw/forced root (hardcore grid:8x8)" forced;
  ]

(* The row groups, in run order.  Each builds its inputs when it runs. *)
let groups =
  [
    ("core", core_rows);
    ("saw", saw_rows);
    ("ball", ball_rows);
    ("kernel", kernel_rows);
    ("spec", spec_rows);
    ("plan", plan_rows);
    ("sample", sample_rows);
    ("flood", flood_rows);
  ]

(* Time one group's rows: (name, ns per run, r²) each.  The heap is
   compacted first, so a row does not inherit the garbage of the groups
   that ran before it. *)
let time_group rows =
  Gc.compact ();
  let grouped = Test.make_grouped ~name:"locsample" (rows ()) in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let clock = Toolkit.Instance.monotonic_clock in
  let raw = Benchmark.all cfg [ clock ] grouped in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols clock raw in
  Hashtbl.fold
    (fun name ols_result acc ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (x :: _) -> x
        | _ -> nan
      in
      let r2 =
        match Analyze.OLS.r_square ols_result with Some r -> r | None -> nan
      in
      (name, ns, r2) :: acc)
    results []

(* [run ()] times every group; [run ~only:g ()] times group [g] alone,
   which is how a group gets a process of its own. *)
let run ?only () =
  let chosen =
    match only with
    | None -> groups
    | Some g -> List.filter (fun (name, _) -> name = g) groups
  in
  let rows =
    List.concat_map (fun (_, rows) -> time_group rows) chosen
    |> List.sort compare
    |> List.map (fun (name, ns, r2) ->
           [
             name;
             Printf.sprintf "%12.1f" ns;
             Printf.sprintf "%8.2f" (ns /. 1e6);
             Printf.sprintf "%.4f" r2;
           ])
  in
  Table.print ~title:"Micro-benchmarks (Bechamel, monotonic clock)"
    ~note:"One row per primitive; time per call estimated by OLS on run count."
    ~header:[ "benchmark"; "ns/run"; "ms/run"; "r^2" ]
    rows
