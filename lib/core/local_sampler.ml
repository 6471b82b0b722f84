module Rng = Ls_rng.Rng
module Dist = Ls_dist.Dist
module Scheduler = Ls_local.Scheduler
module Network = Ls_local.Network
module Faults = Ls_local.Faults
module Resilient = Ls_local.Resilient
module Async = Ls_local.Async

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

let count_failed failed =
  Array.fold_left (fun a f -> if f then a + 1 else a) 0 failed

let sample_resilient (oracle : Inference.oracle)
    ?(policy = Resilient.default) ?(faults = Faults.none) ?trace ?async inst
    ~seed =
  let g = Instance.graph inst in
  let n = Instance.n inst in
  (* The physical network carrying the fault plan.  Each attempt first runs
     genuine ball collection over it at the oracle radius: drops, delays and
     crashes hit the sampler through the same message-passing layer the
     flood-vs-gather tests validate, and a node whose flooded view misses
     part of its true ball cannot evaluate its marginal — it is a
     communication failure, OR-ed into the Las Vegas failure flags. *)
  let net = Network.create ~faults ?trace g ~inputs:(Array.make n ()) ~seed in
  let radius = oracle.Inference.radius in
  let master = Rng.create seed in
  let best = ref None in
  let sampler_rounds = ref 0 in
  let keep r =
    match !best with
    | Some b when count_failed b.failed <= count_failed r.failed -> ()
    | _ -> best := Some r
  in
  let run_attempt ~attempt:_ =
    (* Fresh payload randomness per attempt, deterministically derived:
       attempts are sequential, so the draw order is reproducible. *)
    let payload_seed = Rng.bits64 master in
    let views =
      match async with
      | None -> Network.flood_views net ~radius
      | Some cfg -> Async.flood_views cfg net ~radius
    in
    let comm_failed =
      Array.init n (fun v ->
          Network.crashed net v
          || not (Network.view_is_complete net views.(v)))
    in
    let r = sample oracle ?trace inst ~seed:payload_seed in
    sampler_rounds := !sampler_rounds + r.rounds;
    let failed = Array.mapi (fun v f -> f || comm_failed.(v)) r.failed in
    let n_failed = count_failed failed in
    let r = { r with failed; success = n_failed = 0 } in
    keep r;
    if n_failed = 0 then Ok r
    else begin
      (* Classification: when every failed node has crash-stopped for
         good, no retry can ever succeed — stop spending budget.  Any
         salvageable failure (stalled view, oversized cluster, a node
         inside its recovery interval) is worth retrying. *)
      let all_permanent = ref true in
      Array.iteri
        (fun v f ->
          if f && not (Network.permanently_crashed net v) then
            all_permanent := false)
        failed;
      let all_permanent = !all_permanent in
      let why =
        Printf.sprintf "%d node(s) failed (crash, stalled view, or cluster)"
          n_failed
      in
      Error
        (if all_permanent then Resilient.Permanent why
         else Resilient.Transient why)
    end
  in
  let ok, report =
    Resilient.run_classified ?trace ~label:"sample_resilient" policy
      ~charge:(Network.charge net) run_attempt
  in
  let r = match ok with Some r -> r | None -> Option.get !best in
  (* Teardown: the network runs no further phases, so copies still parked
     across a phase boundary settle as dead letters — conservation holds
     with pending = 0 when the supervisor hands the result back. *)
  Network.finish net;
  (* Honest meter: every attempt's scheduler rounds, every flood, every
     backoff round — nothing is charged to a discarded attempt for free. *)
  {
    r with
    rounds = !sampler_rounds + Network.rounds net;
    resilience = Some report;
  }
