module Rng = Ls_rng.Rng
module Dist = Ls_dist.Dist
module Scheduler = Ls_local.Scheduler
module Resilient = Ls_local.Resilient

type result = {
  sigma : int array;
  failed : bool array;
  success : bool;
  rounds : int;
  stats : Scheduler.stats;
  resilience : Resilient.report option;
}

(* Randomness discipline shared by [plan] / [sample_planned] / [sample]:
   [Rng.streams seed (n+1)] is pure per (seed, index), stream 0 drives the
   decomposition and streams 1..n drive the nodes — so failures are
   independent of the payload output, as Lemma 3.1 requires, and a plan
   compiled once for [seed] composes with the node streams re-derived from
   the same [seed] to reproduce [sample] bit for bit. *)

let plan (oracle : Inference.oracle) inst ~seed =
  (* Stream 0 alone: [streams] splits its children off one master in
     index order, so the first split of a fresh master is stream 0. *)
  Scheduler.compile_plan ~graph:(Instance.graph inst)
    ~locality:oracle.Inference.radius ~rng:(Rng.split (Rng.create seed)) ()

let sample_planned (oracle : Inference.oracle) ~plan ?trace inst ~seed =
  let n = Instance.n inst in
  let streams = Rng.streams seed (n + 1) in
  let node_rng v = streams.(v + 1) in
  let sigma = ref [||] in
  let run ~order =
    sigma :=
      Chain.run inst ~order ~choose:(fun live v ->
          Dist.sample (node_rng v) (oracle.Inference.infer live v))
  in
  let stats = Scheduler.run_plan plan ?trace ~run () in
  {
    sigma = !sigma;
    failed = stats.Scheduler.failed;
    success = stats.Scheduler.failures = 0;
    rounds = stats.Scheduler.rounds;
    stats;
    resilience = None;
  }

let sample (oracle : Inference.oracle) ?trace inst ~seed =
  let plan = plan oracle inst ~seed in
  sample_planned oracle ~plan ?trace inst ~seed

let sample_resilient (oracle : Inference.oracle) ?policy ?faults ?trace ?async
    inst ~seed =
  let s =
    Resilient.supervise ?policy ?faults ?trace ?async ~label:"sample_resilient"
      ~blame:"cluster" ~radii:[ oracle.Inference.radius ] (Instance.graph inst)
      ~seed (fun ~seed ->
        let r = sample oracle ?trace inst ~seed in
        (r, r.failed, r.rounds))
  in
  let failed = s.Resilient.failed in
  {
    s.Resilient.value with
    failed;
    success = Array.for_all not failed;
    rounds = s.Resilient.rounds;
    resilience = Some s.Resilient.report;
  }
