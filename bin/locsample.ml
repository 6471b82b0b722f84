(* Command-line interface to the locsample library.

   Subcommands:
     sample  — draw a configuration in the LOCAL model (chain-rule or JVV)
     infer   — approximate marginal inference at a vertex
     ssm     — measure the strong-spatial-mixing decay curve
     phase   — hardcore phase-transition scan on complete trees
     count   — estimate ln Z via local inference and self-reduction

   Graphs are described as "cycle:24", "path:16", "grid:4x6", "tree:2x5"
   (branching x depth), "regular:16x3" (n x degree, random),
   "tree-rand:20" (uniform random tree).  Models as "hardcore:LAMBDA",
   "ising:BETA[:FIELD]", "potts:Q:BETA", "coloring:Q", "matching:LAMBDA"
   (hardcore on the line graph).  Inference runs either the Theorem 5.1
   ball algorithm (--engine ball) or Weitz's SAW tree (--engine saw);
   --verbosity debug traces the decomposition and the scheduler. *)

module Graph = Ls_graph.Graph
module Generators = Ls_graph.Generators
module Dist = Ls_dist.Dist
module Empirical = Ls_dist.Empirical
module Rng = Ls_rng.Rng
module Par = Ls_par.Par
module Models = Ls_gibbs.Models
module Matching = Ls_gibbs.Matching
module Faults = Ls_local.Faults
module Resilient = Ls_local.Resilient
module Shard = Ls_shard.Exec
module Sweep = Ls_shard.Sweep
module Engine = Ls_serve.Engine
module Server = Ls_serve.Server
module Client = Ls_serve.Client
module Protocol = Ls_serve.Protocol
open Ls_core

(* Spec parsing lives in the serving engine (Ls_serve.Engine) so the
   daemon and the CLI reject exactly the same values with the same words;
   here an [Error] becomes the CLI's named-error exit-2 contract. *)

let die ?(code = 2) msg : 'a =
  Printf.eprintf "locsample: %s\n" msg;
  exit code

let or_die = function Ok v -> v | Error msg -> die msg

(* Library constructors reject bad values with [Invalid_argument]. *)
let or_invalid f = try f () with Invalid_argument msg -> die msg

(* A worker supervisor that gave up (restart budget spent, fleet-wide
   death) is a runtime failure, not a usage error: exit 1. *)
let or_failed cmd f =
  try f () with Ls_shard.Supervisor.Failed (_, msg) -> die ~code:1 (cmd ^ ": " ^ msg)

let make_instance ~graph ~model ~seed =
  let rng = Rng.create (Int64.of_int seed) in
  let g = or_die (Engine.parse_graph rng graph) in
  let m = or_die (Engine.parse_model g model) in
  (g, m, Instance.unpinned m.Engine.spec)

let make_oracle ~engine ~t inst = or_die (Engine.make_oracle ~engine ~t inst)

(* Flag validation funnels through the library constructors so the CLI and
   the API reject exactly the same values; the rejection path mirrors
   --domains: named message on stderr, exit 2.

   --fault-profile names the base plan and each explicit fault flag
   overrides its field, even at the flag's default value: the merge rule
   is Faults.make's [?base], which also rejects invalid values by name. *)
let faults_of_flags ~seed ~fault_rate ~crash_rate ~max_delay ~corrupt_rate
    ~skew ~delay_law ~profile =
  or_invalid (fun () ->
      let base = Option.map Faults.preset profile in
      Faults.make ?base ~seed ?drop:fault_rate ?max_delay ?crash:crash_rate
        ?corrupt:corrupt_rate ~law:(Faults.law_of_string delay_law) ~skew ())

let policy_of_flags ~retry_budget =
  or_invalid (fun () -> Resilient.policy ~retry_budget ())

(* The event-driven executor, when --async asks for it; flag validation
   funnels through Async.make/mode_of_string like everything else. *)
let async_of_flags ~async_mode ~timeout_base =
  match async_mode with
  | None -> None
  | Some name ->
      or_invalid (fun () ->
          Some
            (Ls_local.Async.make
               ~mode:(Ls_local.Async.mode_of_string name)
               ~timeout_base ()))

(* --- commands ------------------------------------------------------- *)

let sample_many ~m ~inst ~oracle ~exact_jvv ~epsilon ~seed ~faulty ~faults
    ~policy ~async ~sketch ~sketch_k ~shard_cfg trials =
  let order = Array.init (Instance.n inst) (fun i -> i) in
  if faulty then
    Printf.printf "fault plan per trial: %s, retry budget %d%s\n"
      (Faults.describe faults) policy.Resilient.retry_budget
      (match async with
      | None -> ""
      | Some cfg ->
          Printf.sprintf ", %s executor"
            (Ls_local.Async.mode_name (Ls_local.Async.mode cfg)));
  let run_one =
    if faulty then begin
      (* Per-trial fault plan: the same schedule shape reseeded from the
         trial's own stream, so the sweep stays bit-identical across
         domain counts. *)
      fun rng ->
        let fseed = Rng.bits64 rng in
        let sseed = Rng.bits64 rng in
        let faults = Faults.reseed faults ~seed:fseed in
        if exact_jvv then
          let s =
            Jvv.run_local_resilient oracle ~epsilon ~policy ~faults ?async inst
              ~seed:sseed
          in
          (s.Jvv.sresult.Jvv.success, s.Jvv.sresult.Jvv.y)
        else
          let r =
            Local_sampler.sample_resilient oracle ~policy ~faults ?async inst
              ~seed:sseed
          in
          (r.Local_sampler.success, r.Local_sampler.sigma)
    end
    else if exact_jvv then
      fun rng ->
        let r = Jvv.run oracle ~epsilon inst ~order ~rng in
        (r.Jvv.success, r.Jvv.y)
    else
      fun rng ->
        let r = Local_sampler.sample oracle inst ~seed:(Rng.bits64 rng) in
        (r.Local_sampler.success, r.Local_sampler.sigma)
  in
  let results, timing =
    match shard_cfg with
    | Some cfg ->
        (* Sharded sweep: the same trial partition semantics, across
           worker OS processes with kill -9 recovery. *)
        Sweep.run_trials_timed cfg ~n:trials ~seed:(Int64.of_int seed) run_one
    | None -> Par.run_trials_timed ~n:trials ~seed:(Int64.of_int seed) run_one
  in
  let emp = Empirical.create () in
  Array.iter (fun (ok, y) -> if ok then Empirical.add emp y) results;
  let successes = Empirical.total emp in
  Printf.printf "%d/%d trials succeeded; %d distinct configurations\n"
    successes trials (Empirical.distinct emp);
  (match sketch with
  | None -> ()
  | Some (width, depth) ->
      (* Sketch hash seed derived from the sampling seed through the
         mixer, so the sketch family is pinned by --seed alone. *)
      let hseed = Ls_rng.Splitmix.mix64 (Int64.of_int (seed + 2)) in
      let sk =
        Empirical.Sketched.create ~width ~depth ~k:sketch_k ~seed:hseed ()
      in
      Array.iter
        (fun (ok, y) -> if ok then Empirical.Sketched.add sk y)
        results;
      Printf.printf
        "sketch(w=%d,d=%d,k=%d): ~%.1f distinct (exact %d), eps=%.2e \
         delta=%.2e, %d bytes, digest %s\n"
        width depth sketch_k
        (Empirical.Sketched.distinct_estimate sk)
        (Empirical.distinct emp)
        (Empirical.Sketched.epsilon sk)
        (Empirical.Sketched.delta sk)
        (String.length (Empirical.Sketched.serialize sk))
        (Empirical.Sketched.digest sk));
  (* Timing is a measurement, not an output: stderr, so stdout diffs clean
     across domain counts. *)
  Printf.eprintf "[%.3fs wall on %d %s, %.0f trials/s]\n" timing.Par.wall
    timing.Par.domains
    (if Option.is_some shard_cfg then "shard(s)" else "domain(s)")
    (float_of_int trials /. Float.max timing.Par.wall 1e-9);
  (if successes > 0 then
     let states =
       float_of_int (Instance.q inst) ** float_of_int (Instance.n inst)
     in
     if states <= 4096. then
       Printf.printf "empirical TV vs exact joint (successes only): %.4f\n"
         (Empirical.tv_against emp (Exact.joint inst)));
  (if successes > 0 then
     let sigma = snd (Option.get (Array.find_opt fst results)) in
     Printf.printf "first successful sample: %s\n" (m.Engine.render sigma));
  0

let sample graph model t seed engine exact_jvv epsilon trials fault_rate
    crash_rate max_delay corrupt_rate skew delay_law async_mode timeout_base
    profile retry_budget sketch sketch_k shards shard_kill =
  if trials < 1 then die "--trials expects an integer >= 1";
  let policy = policy_of_flags ~retry_budget in
  (* Sharded multi-process execution: validate up front, mirroring
     --domains.  Fork-based workers require no sibling domains, so
     --shards pins the domain pool to 1; the event-driven executor is
     in-process by construction, so --shards + --async is rejected. *)
  let shard_cfg =
    match shards with
    | None ->
        if shard_kill <> "" then die "--shard-kill requires --shards";
        None
    | Some k ->
        if k < 1 then
          die (Printf.sprintf "--shards expects an integer >= 1, got %d" k);
        if async_mode <> None then
          die "--shards is synchronous-only (drop --async)";
        let kills = or_die (Shard.parse_kill_specs shard_kill) in
        Par.set_domains 1;
        Some (Shard.config ~shards:k ~kills ())
  in
  (* Validate the sketch dimensions up front, even when --trials is 1 and
     the sketch would never be built. *)
  (match sketch with
  | None -> ()
  | Some (width, depth) ->
      or_invalid (fun () ->
          ignore
            (Empirical.Sketched.create ~width ~depth ~k:sketch_k ~seed:0L ())));
  (* Validate the flags up front even when they are all zero. *)
  let faults =
    faults_of_flags ~seed:(Int64.of_int (seed + 1)) ~fault_rate ~crash_rate
      ~max_delay ~corrupt_rate ~skew ~delay_law ~profile
  in
  let async = async_of_flags ~async_mode ~timeout_base in
  (* --async alone (timing-only plan) still runs the supervised network
     path: the executor needs a network to flood over. *)
  let faulty = not (Faults.is_none faults) || async <> None in
  let g, m, inst = make_instance ~graph ~model ~seed in
  let oracle = make_oracle ~engine ~t inst in
  let epsilon =
    match epsilon with Some e -> e | None -> Jvv.theory_epsilon inst
  in
  Printf.printf "graph: %d vertices, %d edges; model: %s\n" (Graph.n g) (Graph.m g)
    m.Engine.describe;
  (* Single runs shard the broadcast phases themselves (the transport
     hook); sweeps shard the trial range instead, so the transport stays
     uninstalled there (workers run the in-process executor). *)
  (match shard_cfg with
  | Some cfg when trials <= 1 ->
      Shard.install cfg;
      at_exit Shard.uninstall
  | _ -> ());
  if trials > 1 then
    sample_many ~m ~inst ~oracle ~exact_jvv ~epsilon ~seed ~faulty ~faults
      ~policy ~async ~sketch ~sketch_k ~shard_cfg trials
  else if faulty then begin
    if exact_jvv then begin
      let s =
        Jvv.run_local_resilient oracle ~epsilon ~policy ~faults ?async inst
          ~seed:(Int64.of_int seed)
      in
      Printf.printf "JVV exact sampler under %s\n" (Faults.describe faults);
      Printf.printf "  %s; %s; %d total rounds\n"
        (if s.Jvv.sresult.Jvv.success then "success"
         else "DEGRADED (partial sample)")
        (Resilient.describe s.Jvv.resilience)
        s.Jvv.total_rounds;
      Printf.printf "sample: %s\n" (m.Engine.render s.Jvv.sresult.Jvv.y)
    end
    else begin
      let r =
        Local_sampler.sample_resilient oracle ~policy ~faults ?async inst
          ~seed:(Int64.of_int seed)
      in
      Printf.printf "chain-rule sampler under %s\n" (Faults.describe faults);
      Printf.printf "  %s; %s; %d total rounds\n"
        (if r.Local_sampler.success then "success"
         else "degraded (partial sample)")
        (Resilient.describe (Option.get r.Local_sampler.resilience))
        r.Local_sampler.rounds;
      Printf.printf "sample: %s\n" (m.Engine.render r.Local_sampler.sigma)
    end;
    0
  end
  else begin
  if exact_jvv then begin
    let result, stats =
      Jvv.run_local oracle ~epsilon inst ~seed:(Int64.of_int seed)
    in
    Printf.printf "JVV exact sampler: %s (%d clamps), %d LOCAL rounds\n"
      (if result.Jvv.success then "success" else "LOCAL FAILURE (retry with another seed)")
      result.Jvv.clamped stats.Ls_local.Scheduler.rounds;
    Printf.printf "sample: %s\n" (m.Engine.render result.Jvv.y)
  end
  else begin
    let result = Local_sampler.sample oracle inst ~seed:(Int64.of_int seed) in
    Printf.printf "chain-rule sampler: %s, %d LOCAL rounds (%d colors)\n"
      (if result.Local_sampler.success then "success" else "partial failure")
      result.Local_sampler.rounds
      result.Local_sampler.stats.Ls_local.Scheduler.colors;
    Printf.printf "sample: %s\n" (m.Engine.render result.Local_sampler.sigma)
  end;
  0
  end

let infer graph model t seed engine vertex boosted =
  let g, m, inst = make_instance ~graph ~model ~seed in
  if vertex < 0 || vertex >= Graph.n g then die "vertex out of range";
  let oracle = make_oracle ~engine ~t inst in
  Printf.printf "graph: %d vertices; model: %s\n" (Graph.n g) m.Engine.describe;
  let oracle = if boosted then Boosting.boost oracle inst else oracle in
  let d = oracle.Inference.infer inst vertex in
  Printf.printf "marginal at %d (radius %d%s): %s\n" vertex oracle.Inference.radius
    (if boosted then ", boosted" else "")
    (Format.asprintf "%a" Dist.pp d);
  0

let ssm graph model seed max_d =
  let g, m, inst = make_instance ~graph ~model ~seed in
  Printf.printf "graph: %d vertices; model: %s\n" (Graph.n g) m.Engine.describe;
  let rng = Rng.create (Int64.of_int (seed + 1)) in
  let curve = Ssm.decay_curve ~rng inst ~v:0 ~max_d in
  Printf.printf "%-4s %-12s %-12s %s\n" "d" "tv" "mult_err" "boundaries";
  List.iter
    (fun p ->
      Printf.printf "%-4d %-12.6f %-12.6f %d%s\n" p.Ssm.distance p.Ssm.tv
        (if p.Ssm.mult = infinity then nan else p.Ssm.mult)
        p.Ssm.boundary_configs
        (if p.Ssm.exhaustive then "" else " (sampled)"))
    curve;
  (match Ssm.fit_exponential_rate curve with
  | Some alpha -> Printf.printf "fitted decay rate alpha = %.4f\n" alpha
  | None -> print_endline "no fit (influence vanished)");
  0

let phase branching depth lambdas =
  (* The whole scan runs before the first line prints, so a value the
     library rejects is a clean exit 2, not a half-printed table. *)
  let lambda_c, scan =
    or_invalid (fun () ->
        ( Phase_transition.critical_lambda ~branching,
          Phase_transition.lambda_sweep ~branching ~depth ~lambdas ))
  in
  Printf.printf "lambda_c(Delta=%d) = %.4f\n" (branching + 1) lambda_c;
  List.iter
    (fun (lambda, i) ->
      Printf.printf "lambda=%-8.3f influence@%d = %.6f  [%s]\n" lambda depth i
        (if lambda < lambda_c then "uniqueness" else "non-uniqueness"))
    scan;
  0

let count graph model t seed =
  let g, m, inst = make_instance ~graph ~model ~seed in
  let oracle = make_oracle ~engine:"ball" ~t inst in
  Printf.printf "graph: %d vertices; model: %s\n" (Graph.n g) m.Engine.describe;
  let order = Array.init (Instance.n inst) (fun i -> i) in
  let log_z = Reductions.estimate_log_partition oracle inst ~order in
  Printf.printf "ln Z ~ %.6f   (Z ~ %.6e)\n" log_z (exp log_z);
  0

(* Both chaos harnesses: exit 0 on a clean run; otherwise print the
   report, write it to the reproducer file and exit 1. *)
let chaos_outcome summary reproducer path ~held =
  if Ls_chaos.Harness.ok summary then begin
    Printf.printf "%s — all invariants held\n" held;
    0
  end
  else begin
    let text = reproducer summary in
    print_string text;
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    Printf.printf "reproducer written to %s\n" path;
    1
  end

let chaos seed schedules trials async_mode max_delay corrupt_rate profile
    partitions shards reproducer_path =
  let overrides =
    {
      Ls_chaos.Chaos.o_async = async_mode;
      o_max_delay = max_delay;
      o_corrupt = corrupt_rate;
      o_profile = profile;
      o_partitions = partitions;
      o_shards = shards;
    }
  in
  let summary =
    or_invalid (fun () ->
        Ls_chaos.Chaos.run ~overrides ~schedules ~trials
          ~seed:(Int64.of_int seed) ())
  in
  chaos_outcome summary Ls_chaos.Chaos.reproducer reproducer_path
    ~held:
      (Printf.sprintf "chaos: %d schedule(s) x %d trial(s) from seed %d"
         schedules trials seed)

(* --- serve / query ---------------------------------------------------- *)

let parse_listen = function
  | None -> Server.default_address ()
  | Some s -> or_die (Server.parse_address s)

let render_stats (st : Protocol.stats) =
  Printf.sprintf
    "requests=%d batches=%d coalesced=%d hits=%d misses=%d evictions=%d \
     rejected=%d expired=%d snapshot_hits=%d restarts=%d max_queue=%d \
     domains=%d"
    st.Protocol.st_requests st.Protocol.st_batches st.Protocol.st_coalesced
    st.Protocol.st_cache_hits st.Protocol.st_cache_misses
    st.Protocol.st_evictions st.Protocol.st_rejected st.Protocol.st_expired
    st.Protocol.st_snapshot_hits st.Protocol.st_restarts
    st.Protocol.st_max_queue st.Protocol.st_domains

let serve listen queue_bound batch_max cache plan_cache max_vertices
    max_requests send_timeout state_dir snapshot_every supervised
    worker_pid_file sysfault =
  (* --sysfault overrides LOCSAMPLE_SYSFAULT (already installed by
     setup_log when set): same parser, same words on rejection. *)
  (match sysfault with
  | None -> ()
  | Some s -> (
      match Ls_chaos.Sysfault.of_string s with
      | Ok spec ->
          if Ls_chaos.Sysfault.is_quiet spec then Ls_chaos.Sysfault.uninstall ()
          else Ls_chaos.Sysfault.install spec
      | Error msg -> die msg));
  let cfg =
    or_invalid (fun () ->
        Server.config ~address:(parse_listen listen) ?queue_bound ?batch_max
          ?instance_cache:cache ?plan_cache ?max_vertices ?max_requests
          ?send_timeout ?state_dir ?snapshot_every ())
  in
  let on_ready () =
    Printf.printf "serving on %s (queue %d, batch %d, cache %d/%d)%s\n%!"
      (Server.address_to_string cfg.Server.address)
      cfg.Server.queue_bound cfg.Server.batch_max cfg.Server.instance_cache
      cfg.Server.plan_cache
      (if supervised then ", supervised" else "")
  in
  let st =
    if supervised then
      or_failed "serve" (fun () ->
          Server.run_supervised ~cfg ~on_ready ?worker_pid_file ())
    else Server.run ~cfg ~on_ready ()
  in
  Printf.printf "served %d request(s) in %d batch(es): %s\n"
    st.Protocol.st_requests st.Protocol.st_batches (render_stats st);
  0

(* Deterministic transcript rendering: every float at full precision, so
   the file byte-diffs clean across --domains counts (the CI smoke job
   relies on this). *)
let render_body (b : Protocol.body) =
  match b with
  | Protocol.Sample_r { trials; successes; distinct; first } ->
      Printf.sprintf "sample trials=%d successes=%d distinct=%d first=[%s]"
        trials successes distinct
        (String.concat "," (List.map string_of_int (Array.to_list first)))
  | Protocol.Infer_r { probs } ->
      Printf.sprintf "infer probs=[%s]"
        (String.concat ","
           (List.map (Printf.sprintf "%.17g") (Array.to_list probs)))
  | Protocol.Count_r { log_z } -> Printf.sprintf "count log_z=%.17g" log_z
  | Protocol.Stats_r st -> "stats " ^ render_stats st
  | Protocol.Health_r { reasons } -> (
      match reasons with
      | [] -> "health ok"
      | l ->
          Printf.sprintf "health degraded(%s)"
            (String.concat ";" (List.map (fun (s, r) -> s ^ "=" ^ r) l)))
  | Protocol.Error_r { code; message } ->
      Printf.sprintf "error %s: %s" (Protocol.err_name code) message

let query connect requests pipeline seed transcript stats_flag deadline_ms
    kill_after worker_pid_file =
  if requests < 1 then die "--requests expects an integer >= 1";
  if pipeline < 1 then die "--pipeline expects an integer >= 1";
  if deadline_ms < 0 then die "--deadline-ms expects an integer >= 0";
  if kill_after < 0 then die "--kill-after expects an integer >= 0";
  if kill_after > 0 && worker_pid_file = None then
    die "--kill-after needs --worker-pid-file to aim at";
  let address = parse_listen connect in
  (* Open the transcript before any request goes out: a bad path is a
     usage error, not a lost burst. *)
  let transcript =
    Option.map
      (fun path ->
        try open_out path with Sys_error msg -> die ("--transcript: " ^ msg))
      transcript
  in
  (* The query stream is a pure function of (--seed, --requests). *)
  let reqs =
    Array.map
      (fun r -> { r with Protocol.deadline_ms })
      (Client.stream ~seed:(Int64.of_int seed) requests)
  in
  (* --kill-after: after harvesting that many responses, kill -9 the
     supervised worker named by its pid file — the deterministic
     mid-burst crash the CI restart smoke drives.  The burst survives
     the kill by reconnecting and resending. *)
  let on_answer answered =
    if answered = kill_after then
      Option.iter
        (fun path ->
          match
            let ic = open_in path in
            let pid = int_of_string (String.trim (input_line ic)) in
            close_in ic;
            pid
          with
          | pid -> (
              try Unix.kill pid Sys.sigkill
              with Unix.Unix_error _ ->
                die (Printf.sprintf "--kill-after: cannot kill pid %d" pid))
          | exception _ ->
              die (Printf.sprintf "--kill-after: cannot read a pid from %s" path))
        worker_pid_file
  in
  let { Client.responses; conn = c; latency } =
    or_die
      (Client.burst ~on_answer
         ~connect:(fun () -> Client.connect_retry address)
         ~pipeline reqs)
  in
  Option.iter
    (fun oc ->
      Array.iteri
        (fun idx resp ->
          Printf.fprintf oc "%d %s\n" idx (render_body resp.Protocol.body))
        responses;
      close_out oc)
    transcript;
  let n = Array.length responses in
  let count p = Array.fold_left (fun acc r -> if p r then acc + 1 else acc) 0 responses in
  let overloaded =
    count (function
      | { Protocol.body = Protocol.Error_r { code = Protocol.Overloaded; _ }; _ } ->
          true
      | _ -> false)
  in
  let errors =
    count (function
      | { Protocol.body = Protocol.Error_r _; _ } -> true
      | _ -> false)
  in
  (* Latency is a measurement, not an output: stderr, like the sweep
     timing line, so stdout and the transcript stay deterministic. *)
  let sorted = Array.copy latency in
  Array.sort compare sorted;
  let pct p = sorted.(min (n - 1) (int_of_float (p *. float_of_int n))) in
  Printf.eprintf
    "[%d request(s): %d ok, %d overloaded, %d other error; p50 %.1f ms, p99 \
     %.1f ms]\n"
    n (n - errors) overloaded (errors - overloaded)
    (1000. *. pct 0.5) (1000. *. pct 0.99);
  (* Health rides along with --stats: operators watching counters want
     to know about degraded modes in the same glance. *)
  if stats_flag then
    List.iteri
      (fun i op ->
        match Client.call c (Client.control ~id:(n + i) op) with
        | Error msg ->
            Client.close c;
            die msg
        | Ok resp -> print_endline (render_body resp.Protocol.body))
      [ Protocol.Stats; Protocol.Health ];
  Client.close c;
  0

(* `locsample health`: one Health request, one line, and an exit code CI
   can branch on — 0 healthy, 1 degraded (usage/connection errors keep
   the CLI's exit-2 contract). *)
let health connect =
  let c = or_die (Client.connect_retry (parse_listen connect)) in
  let resp = Client.call c (Client.control ~id:0 Protocol.Health) in
  Client.close c;
  let resp = or_die resp in
  print_endline (render_body resp.Protocol.body);
  match resp.Protocol.body with
  | Protocol.Health_r { reasons = [] } -> 0
  | Protocol.Health_r _ -> 1
  | _ -> die "unexpected response to a health request"

(* The serve chaos harness: like `locsample chaos`, exit 1 + reproducer
   file on any violation; a baseline that cannot run at all is exit 1
   with a named error (broken environment, nothing to shrink). *)
let serve_chaos seed schedules requests reproducer_path no_sysfault =
  let summary =
    try
      Ls_chaos.Serve_chaos.run ~schedules ~requests
        ~sysfault:(not no_sysfault) ~seed:(Int64.of_int seed) ()
    with
    | Invalid_argument msg -> die msg
    | Failure msg -> die ~code:1 msg
  in
  chaos_outcome summary Ls_chaos.Serve_chaos.reproducer reproducer_path
    ~held:
      (Printf.sprintf "serve-chaos: %d schedule(s) x %d request(s) from seed %d"
         schedules requests seed)

(* --- cmdliner wiring -------------------------------------------------- *)

open Cmdliner

let setup_log style_renderer level domains trace metrics =
  (* Validate every LOCSAMPLE_* environment variable up front, before any
     subcommand runs.  Without this, a malformed LOCSAMPLE_DOMAINS only
     surfaces at the first parallel call deep inside a subcommand — as an
     Invalid_argument backtrace instead of the CLI's named-error exit-2
     contract. *)
  or_die (Ls_obs.Env.check_all ());
  (* Validated above, so this cannot raise; quiet or unset is a no-op. *)
  Ls_chaos.Sysfault.install_from_env ();
  Fmt_tty.setup_std_outputs ?style_renderer ();
  Logs.set_level level;
  Logs.set_reporter (Logs_fmt.reporter ());
  Option.iter
    (fun k ->
      if k < 1 then
        die (Printf.sprintf "--domains expects an integer >= 1, got %d" k);
      Par.set_domains k)
    domains;
  Option.iter
    (fun path ->
      let t = Ls_obs.Trace.make ~path () in
      Ls_obs.Trace.install t;
      at_exit (fun () -> Ls_obs.Trace.close t))
    trace;
  if metrics then begin
    Ls_obs.Metrics.set_enabled true;
    at_exit (fun () ->
        Ls_obs.Metrics.print stdout (Ls_obs.Metrics.snapshot ()))
  end

let domains_arg =
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"K"
       ~doc:"Domain count for the parallel trial engine (default: the \
             LOCSAMPLE_DOMAINS environment variable, else the core count). \
             Results are identical for every value; only speed changes.")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
       ~doc:"Record the runtime's structured event stream (broadcast \
             phases, applied fault verdicts, crashes, retry supervision, \
             decompositions, parallel batches) to $(docv) as JSON lines. \
             Deterministic modulo the leading \"ts\" field: strip it and \
             the file is byte-identical across --domains counts.")

let metrics_arg =
  Arg.(value & flag & info [ "metrics" ]
       ~doc:"Print an aggregate counter summary (phases, rounds, bits, \
             messages, fault verdicts, supervision, pool utilization) on \
             exit.")

let setup_log_term =
  Term.(const setup_log $ Fmt_cli.style_renderer () $ Logs_cli.level ()
        $ domains_arg $ trace_arg $ metrics_arg)

let graph_arg =
  Arg.(value & opt string "cycle:16" & info [ "g"; "graph" ] ~docv:"GRAPH"
       ~doc:"Graph: cycle:N, path:N, grid:RxC, tree:BxD, regular:NxD, tree-rand:N.")

let model_arg =
  Arg.(value & opt string "hardcore:1.0" & info [ "m"; "model" ] ~docv:"MODEL"
       ~doc:"Model: hardcore:L, ising:B[:F], coloring:Q, matching:L.")

let t_arg =
  Arg.(value & opt int 2 & info [ "t"; "radius" ] ~docv:"T"
       ~doc:"Ball radius of the inference oracle (Theorem 5.1 algorithm).")

let seed_arg =
  Arg.(value & opt int 42 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let engine_arg =
  Arg.(value & opt string "ball" & info [ "engine" ] ~docv:"ENGINE"
       ~doc:"Inference engine: 'ball' (Theorem 5.1 annulus algorithm) or \
             'saw' (Weitz's self-avoiding-walk tree; binary models only).")

(* Flags that sample and chaos share: one term each, so both commands
   parse and document them alike. *)
let async_arg =
  Arg.(value & opt (some string) None & info [ "async" ] ~docv:"MODE"
       ~doc:"Flood over the event-driven executor instead of lockstep \
             rounds: 'synchronizer' (alpha-synchronizer; bit-identical \
             outputs, rounds and traces under any delay law or skew) or \
             'adaptive' (EWMA timeouts + capped retransmissions; a \
             misfired timeout degrades to a retry, never a wrong \
             sample).  chaos runs every trial batch this way and checks \
             its sync-vs-async identity invariant either way.")

let max_delay_arg =
  Arg.(value & opt (some int) None & info [ "max-delay" ] ~docv:"D"
       ~doc:"Upper bound (>= 1) on how many rounds a delayed copy can \
             arrive late.  Only meaningful when the plan has a nonzero \
             delay rate (e.g. via --fault-profile flaky); chaos forces it \
             onto every generated schedule.")

let corrupt_rate_arg =
  Arg.(value & opt (some float) None & info [ "corrupt-rate" ] ~docv:"P"
       ~doc:"Per-(round, edge, copy) payload corruption probability (chaos \
             forces it onto every generated schedule).  Corrupted flood \
             records are detected by an integrity digest and quarantined \
             — billed but never delivered — so corruption costs \
             availability, never correctness.")

let profile_arg =
  Arg.(value & opt (some string) None & info [ "fault-profile" ] ~docv:"NAME"
       ~doc:"Named fault preset: 'lossy' (pure message loss), 'flaky' \
             (loss + duplication + delay + crash-recovery + corruption), \
             or 'partitioned' (a partition interval and a drop burst over \
             light loss).  It is the base plan: each explicit fault flag, \
             even at its default value, overrides the preset field it \
             names, and everything funnels through the same validation \
             (chaos keeps each generated schedule's seed and timing \
             dimensions).")

let connect_arg =
  Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"ADDR"
       ~doc:"Daemon address (same syntax and default as serve --listen).")

let sample_cmd =
  let jvv = Arg.(value & flag & info [ "exact"; "jvv" ] ~doc:"Use the exact JVV sampler.") in
  let eps =
    Arg.(value & opt (some float) None & info [ "epsilon" ] ~docv:"EPS"
         ~doc:"JVV slack parameter (default: 1/n^3).")
  in
  let trials =
    Arg.(value & opt int 1 & info [ "trials" ] ~docv:"N"
         ~doc:"Draw N samples through the parallel trial engine and report \
               aggregate statistics (success rate, distinct configurations, \
               throughput, and — on small state spaces — the empirical TV \
               against the exact joint distribution).")
  in
  let fault_rate =
    Arg.(value & opt (some float) None & info [ "fault-rate" ] ~docv:"P"
         ~doc:"Per-(round, edge) message drop probability of the injected \
               fault plan (with every rate at 0 the plan is the zero-fault \
               plan, bit-identical to the reliable runtime).")
  in
  let crash_rate =
    Arg.(value & opt (some float) None & info [ "crash-rate" ] ~docv:"P"
         ~doc:"Per-node crash probability of the injected fault plan (a \
               crashed node is gone for good unless the plan grants it a \
               recovery — see --fault-profile flaky).")
  in
  let retry_budget =
    Arg.(value & opt int 3 & info [ "retry-budget" ] ~docv:"R"
         ~doc:"Max retries (with exponential backoff, charged to the round \
               meter) before a faulty run degrades to a partial sample.")
  in
  let skew =
    Arg.(value & opt float 0. & info [ "skew" ] ~docv:"S"
         ~doc:"Max extra per-node clock-rate factor (>= 0): a node's local \
               round costs 1 to 1+$(docv) virtual time units on the \
               asynchronous executor.  Timing-only — verdicts, outputs and \
               round charges are unaffected.")
  in
  let delay_law =
    Arg.(value & opt string "uniform" & info [ "delay-law" ] ~docv:"LAW"
         ~doc:"Virtual link-latency law of the asynchronous executor: \
               'uniform', 'exp'/'exponential', or 'heavy'/'pareto' — all \
               mean 1.0, so laws change delay tails, not average load.  \
               Timing-only, like --skew.")
  in
  let timeout_base =
    Arg.(value & opt float 3.0 & info [ "timeout-base" ] ~docv:"T"
         ~doc:"Initial per-neighbor latency estimate of the adaptive \
               executor, in virtual time units (a fault-free link averages \
               1.0).  Lower values misfire more timeouts — costing retries, \
               never correctness.")
  in
  let sketch =
    Arg.(value & opt (some (pair ~sep:',' int int)) None
         & info [ "sketch" ] ~docv:"W,D"
         ~doc:"With --trials, also aggregate the successful samples into a \
               mergeable count-min + bottom-k sketch pair of width $(docv) \
               (eps = e/W, delta = exp(-D)) and print its distinct-count \
               estimate, serialized size and digest.  The sketch hash \
               family is derived from --seed, so the digest is \
               reproducible and --domains invariant.")
  in
  let sketch_k =
    Arg.(value & opt int 256 & info [ "sketch-k" ] ~docv:"K"
         ~doc:"Bottom-k capacity of the --sketch distinct-count estimator \
               (relative std error 1/sqrt(K-2)).")
  in
  let shards =
    Arg.(value & opt (some int) None & info [ "shards" ] ~docv:"K"
         ~doc:"Run across $(docv) worker OS processes with kill -9 fault \
               tolerance: single runs shard the graph's broadcast phases \
               (deterministic inter-shard routing in virtual-time order), \
               --trials sweeps shard the trial range.  Output is \
               bit-identical for every value, including 1 and unsharded; \
               only the failure domain changes.  Synchronous executor \
               only (incompatible with --async); forces --domains 1.")
  in
  let shard_kill =
    Arg.(value & opt string "" & info [ "shard-kill" ] ~docv:"SPEC"
         ~doc:"Comma-separated fault injection for --shards: each spec is \
               SHARD:PHASE:ROUND[:INCARNATION][:hang] and SIGKILLs (or \
               hangs, to exercise liveness probes) that worker incarnation \
               at that coordinate.  The supervisor restarts it from its \
               last checkpoint; the run's output must be unchanged.")
  in
  Cmd.v (Cmd.info "sample" ~doc:"Sample a configuration in the LOCAL model")
    Term.(const (fun () a b c d e f g h i j k l m n o p q r s t u v -> or_failed "sample" (fun () -> sample a b c d e f g h i j k l m n o p q r s t u v)) $ setup_log_term $ graph_arg $ model_arg $ t_arg $ seed_arg $ engine_arg $ jvv $ eps $ trials $ fault_rate $ crash_rate $ max_delay_arg $ corrupt_rate_arg $ skew $ delay_law $ async_arg $ timeout_base $ profile_arg $ retry_budget $ sketch $ sketch_k $ shards $ shard_kill)

let infer_cmd =
  let vertex = Arg.(value & opt int 0 & info [ "vertex" ] ~docv:"V" ~doc:"Vertex.") in
  let boosted = Arg.(value & flag & info [ "boosted" ] ~doc:"Apply the Lemma 4.1 boosting.") in
  Cmd.v (Cmd.info "infer" ~doc:"Approximate marginal inference at a vertex")
    Term.(const (fun () a b c d e f g -> infer a b c d e f g) $ setup_log_term $ graph_arg $ model_arg $ t_arg $ seed_arg $ engine_arg $ vertex $ boosted)

let ssm_cmd =
  let max_d = Arg.(value & opt int 5 & info [ "max-d" ] ~docv:"D" ~doc:"Max distance.") in
  Cmd.v (Cmd.info "ssm" ~doc:"Measure strong spatial mixing")
    Term.(const (fun () a b c d -> ssm a b c d) $ setup_log_term $ graph_arg $ model_arg $ seed_arg $ max_d)

let phase_cmd =
  let branching = Arg.(value & opt int 2 & info [ "b"; "branching" ] ~docv:"B" ~doc:"Tree branching.") in
  let depth = Arg.(value & opt int 8 & info [ "d"; "depth" ] ~docv:"D" ~doc:"Tree depth.") in
  let lambdas =
    Arg.(value & opt (list float) [ 1.; 2.; 4.; 8. ] & info [ "lambdas" ] ~docv:"L,L,..."
         ~doc:"Fugacities to scan.")
  in
  Cmd.v (Cmd.info "phase" ~doc:"Hardcore phase-transition scan on complete trees")
    Term.(const (fun () a b c -> phase a b c) $ setup_log_term $ branching $ depth $ lambdas)

let count_cmd =
  Cmd.v (Cmd.info "count" ~doc:"Estimate ln Z via local inference (self-reduction)")
    Term.(const (fun () a b c d -> count a b c d) $ setup_log_term $ graph_arg $ model_arg $ t_arg $ seed_arg)

let chaos_cmd =
  let schedules =
    Arg.(value & opt int 10 & info [ "schedules" ] ~docv:"N"
         ~doc:"Random fault schedules to generate and check.")
  in
  let trials =
    Arg.(value & opt int 80 & info [ "chaos-trials" ] ~docv:"N"
         ~doc:"Sampling trials per schedule.")
  in
  let reproducer =
    Arg.(value & opt string "chaos-reproducer.txt" & info [ "reproducer" ]
         ~docv:"FILE"
         ~doc:"Where to write the shrunk reproducer on failure.")
  in
  let partition_conv =
    let parse s =
      Result.map_error (fun m -> `Msg m) (Ls_chaos.Chaos.parse_partition s)
    in
    let print ppf (a, u, k) = Format.fprintf ppf "%d:%d:%d" a u k in
    Arg.conv (parse, print)
  in
  let partitions =
    Arg.(value & opt_all partition_conv [] & info [ "partition" ]
         ~docv:"FROM:UNTIL:PARTS"
         ~doc:"Force this partition interval onto every generated schedule \
               (repeatable; replaces the generated intervals).")
  in
  let shards =
    Arg.(value & opt (some int) None & info [ "shards" ] ~docv:"K"
         ~doc:"Additionally check the sharded invariants at $(docv) worker \
               processes per schedule: shard-identity (the multi-process \
               transport reproduces the in-process executor bit-for-bit) \
               and kill-recovery (a worker kill -9ed before its first \
               checkpoint recovers to the same verdicts, twice).  \
               Synchronous-only (incompatible with --async).")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Run the chaos harness: random fault schedules, an invariant \
             suite (zero-fault bit-identity, conservation at teardown, \
             domain-count determinism, sync-vs-async executor identity, \
             Las Vegas exactness), and greedy shrinking of failures to \
             minimal reproducers.  Exits 1 on any violation, after writing \
             the reproducer file — whose replay line carries every flag of \
             this command.")
    Term.(const (fun () a b c d e f g h i j -> chaos a b c d e f g h i j) $ setup_log_term $ seed_arg $ schedules $ trials $ async_arg $ max_delay_arg $ corrupt_rate_arg $ profile_arg $ partitions $ shards $ reproducer)

let serve_cmd =
  let listen =
    Arg.(value & opt (some string) None & info [ "listen" ] ~docv:"ADDR"
         ~doc:"Listen address: unix:PATH, tcp:HOST:PORT, tcp:PORT \
               (localhost), or a bare unix socket path.  Default: \
               LOCSAMPLE_SERVE_SOCKET, else a socket under the system temp \
               dir.")
  in
  let queue_bound =
    Arg.(value & opt (some int) None & info [ "queue-bound" ] ~docv:"N"
         ~doc:"Admission bound: a request arriving while $(docv) requests \
               are queued is answered 'overloaded' immediately (default: \
               LOCSAMPLE_SERVE_QUEUE, else 64).")
  in
  let batch_max =
    Arg.(value & opt (some int) None & info [ "batch-max" ] ~docv:"N"
         ~doc:"Most requests executed per engine batch (default 32). \
               Same-instance requests in a batch coalesce onto one compiled \
               model and one parallel trial fan-out.")
  in
  let cache =
    Arg.(value & opt (some int) None & info [ "cache" ] ~docv:"N"
         ~doc:"LRU capacity for compiled instances (default: \
               LOCSAMPLE_SERVE_CACHE, else 64).")
  in
  let plan_cache =
    Arg.(value & opt (some int) None & info [ "plan-cache" ] ~docv:"N"
         ~doc:"LRU capacity for compiled Linial–Saks schedules (default \
               1024).")
  in
  let max_vertices =
    Arg.(value & opt (some int) None & info [ "max-vertices" ] ~docv:"N"
         ~doc:"Reject request graphs larger than $(docv) vertices (default \
               100000).")
  in
  let max_requests =
    Arg.(value & opt (some int) None & info [ "max-requests" ] ~docv:"N"
         ~doc:"Exit after answering $(docv) requests (deterministic \
               termination for tests and CI; default: serve until \
               SIGTERM/SIGINT).")
  in
  let send_timeout =
    Arg.(value & opt (some float) None & info [ "send-timeout" ] ~docv:"SECS"
         ~doc:"SO_SNDTIMEO on client sockets: a peer that keeps a response \
               write blocked this long is dropped rather than wedging the \
               loop (default: LOCSAMPLE_SERVE_SEND_TIMEOUT, else 10).")
  in
  let state_dir =
    Arg.(value & opt (some string) None & info [ "state-dir" ] ~docv:"DIR"
         ~doc:"Persist the engine caches to $(docv)/serve-cache.snap — a \
               self-validating tmp+rename snapshot written on drain and \
               every --snapshot-every batches, reloaded on boot (torn or \
               corrupt files read as absence).  Default: \
               LOCSAMPLE_SERVE_STATE, else no persistence.")
  in
  let snapshot_every =
    Arg.(value & opt (some int) None & info [ "snapshot-every" ] ~docv:"N"
         ~doc:"Snapshot cadence in executed batches (default 8); only \
               meaningful with --state-dir.")
  in
  let supervised =
    Arg.(value & flag & info [ "supervised" ]
         ~doc:"Fork the select loop as a worker under the shard \
               supervisor's restart-budget/backoff/hang-probe discipline.  \
               The parent holds the listening socket, so a crashed (even \
               kill -9ed) worker restarts without dropping it; with \
               --state-dir each incarnation warm-starts from the latest \
               cache snapshot.  SIGTERM still drains gracefully.")
  in
  let worker_pid_file =
    Arg.(value & opt (some string) None & info [ "worker-pid-file" ]
         ~docv:"FILE"
         ~doc:"With --supervised, publish the current worker's pid to \
               $(docv) (atomic rewrite on every respawn) so tests and CI \
               can aim kill -9 at the worker deterministically.")
  in
  let sysfault =
    Arg.(value & opt (some string) None & info [ "sysfault" ] ~docv:"SPEC"
         ~doc:"Install a deterministic syscall fault schedule before \
               serving: \
               seed=S,write=P,rename=P,open=P,short=P,eintr=P,accept=P,\
               fork=P,budget=N.  Disk faults (ENOSPC on checkpoint and pid \
               files) push the daemon into its degraded modes without ever \
               failing a response; budget=N silences the schedule after N \
               syscall consultations (0 = never).  Overrides \
               LOCSAMPLE_SYSFAULT.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the batched sampling-as-a-service daemon.  Responses are a \
             pure function of the request bytes (admission verdicts and \
             stats aside): a request carries its seed, so the same request \
             stream produces the same response bytes at any --domains \
             count.  Resource exhaustion (ENOSPC, EMFILE, fork EAGAIN) \
             degrades service — skipped snapshots, shed connections — \
             without killing it; `locsample health` reports the current \
             degraded modes.")
    Term.(const (fun () a b c d e f g h i j k l m ->
              serve a b c d e f g h i j k l m)
          $ setup_log_term $ listen $ queue_bound $ batch_max $ cache
          $ plan_cache $ max_vertices $ max_requests $ send_timeout
          $ state_dir $ snapshot_every $ supervised $ worker_pid_file
          $ sysfault)

let query_cmd =
  let requests =
    Arg.(value & opt int 64 & info [ "requests" ] ~docv:"N"
         ~doc:"Requests to send: a deterministic mixed sample/infer/count \
               stream derived from --seed.")
  in
  let pipeline =
    Arg.(value & opt int 8 & info [ "pipeline" ] ~docv:"K"
         ~doc:"Pipeline depth: push $(docv) requests before reading their \
               responses.  Depths beyond the daemon's queue bound provoke \
               'overloaded' verdicts — the admission-control smoke test.")
  in
  let transcript =
    Arg.(value & opt (some string) None & info [ "transcript" ] ~docv:"FILE"
         ~doc:"Write one line per response to $(docv), ordered by request \
               id with full-precision floats — byte-identical across \
               daemon --domains counts when nothing is overloaded.")
  in
  let stats_flag =
    Arg.(value & flag & info [ "stats" ]
         ~doc:"Finish with a stats request and print the daemon's counters \
               (requests, batches, coalesced, cache hits/misses/evictions, \
               rejections, expiries, snapshot hits, restarts, queue \
               high-water, domains).")
  in
  let deadline_ms =
    Arg.(value & opt int 0 & info [ "deadline-ms" ] ~docv:"MS"
         ~doc:"Stamp every generated request with this queue deadline: a \
               request still queued after $(docv) ms is answered 'expired' \
               without executing (0 = no deadline).")
  in
  let kill_after =
    Arg.(value & opt int 0 & info [ "kill-after" ] ~docv:"K"
         ~doc:"After harvesting $(docv) responses, kill -9 the supervised \
               worker named by --worker-pid-file, then finish the burst \
               through the reconnect/resend loop (0 = disabled).  The \
               crash-tolerance smoke: the transcript must stay \
               byte-identical to an unkilled run.")
  in
  let worker_pid_file =
    Arg.(value & opt (some string) None & info [ "worker-pid-file" ]
         ~docv:"FILE"
         ~doc:"Where the daemon's --worker-pid-file publishes the worker \
               pid (required by --kill-after).")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Load-test a running serve daemon with a deterministic request \
             stream; report latency percentiles on stderr.  Survives \
             daemon restarts: a broken connection is reconnected (with \
             backoff) and the window's unanswered requests are resent.")
    Term.(const (fun () a b c d e f g h i -> query a b c d e f g h i)
          $ setup_log_term $ connect_arg $ requests $ pipeline $ seed_arg
          $ transcript $ stats_flag $ deadline_ms $ kill_after
          $ worker_pid_file)

let serve_chaos_cmd =
  let schedules =
    Arg.(value & opt int 5 & info [ "schedules" ] ~docv:"N"
         ~doc:"Random proxy fault schedules to generate and check.")
  in
  let requests =
    Arg.(value & opt int 40 & info [ "requests" ] ~docv:"N"
         ~doc:"Requests per burst (the same deterministic stream as \
               query).")
  in
  let reproducer =
    Arg.(value & opt string "chaos-reproducer-serve.txt"
         & info [ "reproducer" ] ~docv:"FILE"
         ~doc:"Where to write the shrunk reproducer on failure.")
  in
  let no_sysfault =
    Arg.(value & flag & info [ "no-sysfault" ]
         ~doc:"Disable the syscall fault dimension (ENOSPC, EMFILE, EINTR, \
               short writes inside the daemon) and chaos-test through the \
               socket proxy alone.  The socket schedules are identical \
               either way, so a failure that vanishes under this flag is \
               localized to the syscall dimension.")
  in
  Cmd.v
    (Cmd.info "serve-chaos"
       ~doc:"Chaos-test the serving daemon through a deterministic socket \
             fault proxy (delay, truncation, corruption, resets, duplicate \
             frames) plus an in-daemon syscall fault schedule (ENOSPC, \
             EMFILE, EINTR, short writes), and check the serve invariants: \
             the daemon never crashes and drains cleanly on SIGTERM, \
             responses are never matched to the wrong request, every \
             accepted response is byte-identical to a fault-free run, and \
             every degraded-mode entry in the daemon's trace is paired \
             with its exit.  Failing schedules shrink to minimal \
             reproducers; exits 1 on any violation, after writing the \
             reproducer file.")
    Term.(const (fun () a b c d e -> serve_chaos a b c d e)
          $ setup_log_term $ seed_arg $ schedules $ requests $ reproducer
          $ no_sysfault)

let health_cmd =
  Cmd.v
    (Cmd.info "health"
       ~doc:"Ask a running serve daemon for its degraded-mode report.  \
             Prints 'health ok' or 'health degraded(subsystem=reason;...)' \
             — snapshot circuit-breaker open, checkpoint-free operation \
             after ENOSPC, connection shedding under EMFILE.  Exits 0 when \
             healthy, 1 when degraded, 2 on usage or connection errors.")
    Term.(const (fun () a -> health a) $ setup_log_term $ connect_arg)

let main_cmd =
  Cmd.group
    (Cmd.info "locsample" ~version:"1.0.0"
       ~doc:"Local distributed sampling and counting (Feng & Yin, PODC 2018)")
    [ sample_cmd; infer_cmd; ssm_cmd; phase_cmd; count_cmd; chaos_cmd;
      serve_cmd; query_cmd; serve_chaos_cmd; health_cmd ]

let () = exit (Cmd.eval' main_cmd)
