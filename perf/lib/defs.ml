(* The benchmark's fixed definitions: workloads, metrics and run settings.
   BENCHMARK.json at the repository root must list the same workloads and
   metrics (the perf test suite checks that it does). *)

let version = "2"

(* --- run settings: constants, never flags ---------------------------- *)

let run_seconds = 35  (* the default --seconds, as in BENCHMARK.json *)

(* Every timed operation runs on one domain, in the sampler's worker and
   in the daemon, so that with the load generator at most two threads run
   on a two-core machine.  Only the traced run's Par pass uses more. *)
let domains = 1
let par_domains = 2
let setup_reps = 9  (* set-ups per run, spread over it; setup_s is their median *)
let fan_out = 8  (* trials per Par.run_trials call on sample-* *)
let connections = 2  (* open loop, and the traced run's closed loop *)
let pipeline_depth = 8  (* outstanding requests per connection, traced run *)
let open_loop_share = 0.3  (* of --seconds on serve-*; the rest is serial *)
let verified_responses = 512
let digest_outputs = 16
let drain_timeout = 30.

(* Pooled hard-core occupancy on cycle:256 against the exact marginal at
   vertex 0.  The t=2 sampler sits ~0.006 above the exact 0.2764 (its
   oracle error); the pooled standard error at 500 trials is ~0.001. *)
let occupancy_tolerance = 0.015

(* Trace-mode shares of --seconds. *)
let trace_daemon_share = 0.3
let trace_par_share = 0.2
let trace_replay_share = 0.5

(* --- workloads ---------------------------------------------------------- *)

type sample = {
  graph : string;
  model : string;
  engine : string;
  t : int;
  exact_check : bool;  (* pooled occupancy vs Chain_dp (cycles only) *)
}

type serve = {
  graphs : string array;
  rate : float;  (* open-loop Poisson arrivals, requests/s *)
}

type kind = Sample of sample | Serve of serve

type workload = {
  name : string;
  why : string;
  kind : kind;
  replay_unit : int;  (* requests per traced replay unit *)
}

let workloads =
  [
    {
      name = "sample-cycle";
      why =
        "hardcore on cycle:256 with the ball engine at t=2: the plan and \
         one ball-engine inference per vertex dominate, so ball and plan \
         changes show here";
      kind =
        Sample
          {
            graph = "cycle:256";
            model = "hardcore:1";
            engine = "ball";
            t = 2;
            exact_check = true;
          };
      replay_unit = 1;
    };
    {
      name = "sample-saw";
      why =
        "hardcore 0.5 on grid:8x8 with the SAW engine at depth 10: the \
         inference kernel dominates and no graph ball is ever taken";
      kind =
        Sample
          {
            graph = "grid:8x8";
            model = "hardcore:0.5";
            engine = "saw";
            t = 10;
            exact_check = false;
          };
      replay_unit = 8;
    };
    {
      name = "serve-hot";
      why =
        "live daemon, mixed ops on 12 small instances and 4 seeds: every \
         lookup hits, so the select loop, codec and dispatch dominate";
      kind =
        Serve
          {
            graphs = [| "cycle:24"; "path:16"; "grid:3x4"; "tree:2x3" |];
            rate = 800.;
          };
      replay_unit = 250;
    };
  ]

let find_workload name =
  List.find_opt (fun (w : workload) -> w.name = name) workloads

(* --- metrics ------------------------------------------------------------ *)

type metric = {
  name : string;
  unit : string;
  better : Verdict.better;
  bound : float option;  (* end-to-end only *)
}

let e2e name unit better bound = { name; unit; better; bound = Some bound }
let layer name unit better = { name; unit; better; bound = None }

let end_to_end =
  Verdict.
    [
      e2e "op_cpu_ms_p90" "ms" Lower 0.25;
      e2e "setup_s" "s" Lower 0.25;
      e2e "peak_rss_mb" "MB" Lower 0.10;
    ]

let per_layer =
  Verdict.
    [
      layer "graph.ball_us" "us" Lower;
      layer "inference.infer_us_p50" "us" Lower;
      layer "inference.infer_us_p90" "us" Lower;
      layer "inference.infer_calls_per_trial" "count" Lower;
      layer "inference.infer_minor_words" "words" Lower;
      layer "scheduler.plan_ms" "ms" Lower;
      layer "scheduler.plan_minor_words" "words" Lower;
      layer "sampler.trial_ms" "ms" Lower;
      layer "sampler.self_ms" "ms" Lower;
      layer "par.efficiency" "ratio" Higher;
      layer "engine.batch_ms_p50" "ms" Lower;
      layer "engine.batch_ms_p99" "ms" Lower;
      layer "engine.batch_size" "count" Higher;
      layer "engine.coalesced_frac" "ratio" Higher;
      layer "engine.evictions" "count" Lower;
      layer "engine.cache_hit_ratio" "ratio" Higher;
      layer "engine.cache_lookups" "count" Lower;
      layer "engine.op_ms_sample" "ms" Lower;
      layer "engine.op_ms_infer" "ms" Lower;
      layer "engine.op_ms_count" "ms" Lower;
      layer "codec.request_encode_us" "us" Lower;
      layer "codec.request_decode_us" "us" Lower;
      layer "codec.response_encode_us" "us" Lower;
      layer "codec.response_decode_us" "us" Lower;
      layer "server.outside_engine_ms_p50" "ms" Lower;
      layer "server.max_queue" "count" Lower;
      layer "trace.overhead_frac" "ratio" Lower;
    ]

let find_metric name =
  List.find_opt (fun m -> m.name = name) (end_to_end @ per_layer)
