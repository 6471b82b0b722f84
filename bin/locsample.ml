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

let make_instance ~graph ~model ~seed =
  let rng = Rng.create (Int64.of_int seed) in
  let g = or_die (Engine.parse_graph rng graph) in
  let m = or_die (Engine.parse_model g model) in
  (g, m, Instance.unpinned m.Engine.spec)

let make_oracle ~engine ~t inst = or_die (Engine.make_oracle ~engine ~t inst)

(* Flag validation funnels through the library constructors so the CLI and
   the API reject exactly the same values; the rejection path mirrors
   --domains: named message on stderr, exit 2.

   --fault-profile names a preset bundle; explicit flags override the
   preset field they correspond to (a flag left at its default defers to
   the preset, and invalid explicit values still reach Faults.make, which
   rejects them by name). *)
let faults_of_flags ~seed ~fault_rate ~crash_rate ~max_delay ~corrupt_rate
    ~skew ~delay_law ~profile =
  or_invalid (fun () ->
      let p =
        match profile with
        | Some name -> Faults.preset name
        | None -> Faults.zero_preset
      in
      let over flag dflt preset = if flag <> dflt then flag else preset in
      Faults.make ~seed
        ~drop:(over fault_rate 0. p.Faults.pr_drop)
        ~duplicate:p.Faults.pr_duplicate ~delay:p.Faults.pr_delay
        ~max_delay:(over max_delay 1 p.Faults.pr_max_delay)
        ~crash:(over crash_rate 0. p.Faults.pr_crash)
        ~recovery:p.Faults.pr_recovery ~recovery_delay:p.Faults.pr_recovery_delay
        ~corrupt:(over corrupt_rate 0. p.Faults.pr_corrupt)
        ~partitions:p.Faults.pr_partitions ~bursts:p.Faults.pr_bursts
        ~law:(Faults.law_of_string delay_law)
        ~skew ())

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

let sample_many ~m ~inst ~oracle ~exact_jvv ~epsilon ~seed ~faults ~policy
    ~async ~sketch ~sketch_k ~shard_cfg trials =
  let order = Array.init (Instance.n inst) (fun i -> i) in
  let faulty = not (Faults.is_none faults) || async <> None in
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
      let epsilon =
        match epsilon with Some e -> e | None -> Jvv.theory_epsilon inst
      in
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
    else if exact_jvv then begin
      let epsilon =
        match epsilon with Some e -> e | None -> Jvv.theory_epsilon inst
      in
      fun rng ->
        let r = Jvv.run oracle ~epsilon inst ~order ~rng in
        (r.Jvv.success, r.Jvv.y)
    end
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
  Printf.printf "graph: %d vertices, %d edges; model: %s\n" (Graph.n g) (Graph.m g)
    m.Engine.describe;
  let oracle = make_oracle ~engine ~t inst in
  (* Single runs shard the broadcast phases themselves (the transport
     hook); sweeps shard the trial range instead, so the transport stays
     uninstalled there (workers run the in-process executor). *)
  (match shard_cfg with
  | Some cfg when trials <= 1 ->
      Shard.install cfg;
      at_exit Shard.uninstall
  | _ -> ());
  if trials > 1 then
    sample_many ~m ~inst ~oracle ~exact_jvv ~epsilon ~seed ~faults ~policy
      ~async ~sketch ~sketch_k ~shard_cfg trials
  else if faulty then begin
    if exact_jvv then begin
      let epsilon =
        match epsilon with Some e -> e | None -> Jvv.theory_epsilon inst
      in
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
    let epsilon =
      match epsilon with Some e -> e | None -> Jvv.theory_epsilon inst
    in
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
  Printf.printf "graph: %d vertices; model: %s\n" (Graph.n g) m.Engine.describe;
  let oracle = make_oracle ~engine ~t inst in
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
  let lambda_c = Phase_transition.critical_lambda ~branching in
  Printf.printf "lambda_c(Delta=%d) = %.4f\n" (branching + 1) lambda_c;
  List.iter
    (fun lambda ->
      let i = Phase_transition.tree_root_influence ~branching ~depth ~lambda in
      Printf.printf "lambda=%-8.3f influence@%d = %.6f  [%s]\n" lambda depth i
        (if lambda < lambda_c then "uniqueness" else "non-uniqueness"))
    lambdas;
  0

let count graph model t seed =
  let g, m, inst = make_instance ~graph ~model ~seed in
  Printf.printf "graph: %d vertices; model: %s\n" (Graph.n g) m.Engine.describe;
  let oracle = Inference.ssm_oracle ~t inst in
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
    if supervised then (
      try Server.run_supervised ~cfg ~on_ready ?worker_pid_file ()
      with Ls_shard.Supervisor.Failed (_, msg) ->
        (* Restart budget spent: a runtime failure, not a usage error. *)
        die ~code:1 ("serve: " ^ msg))
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

(* The query stream is a pure function of (--seed, --requests): a mixed
   op workload over a handful of small instances, with request seeds
   drawn from a 4-seed pool so repeated (instance, seed) pairs recur and
   exercise the plan cache. *)
let gen_requests ~seed ?(deadline_ms = 0) ~n () =
  let rng = Rng.create (Int64.of_int seed) in
  let graphs = [| "cycle:24"; "path:16"; "grid:3x4"; "tree:2x3" |] in
  let models = [| "hardcore:0.8"; "ising:0.3"; "coloring:5" |] in
  let seed_pool = Array.init 4 (fun _ -> Rng.bits64 rng) in
  let pick arr = arr.(Rng.int rng (Array.length arr)) in
  List.init n (fun i ->
      let op_draw = Rng.int rng 10 in
      let op =
        if op_draw < 6 then Protocol.Sample
        else if op_draw < 8 then Protocol.Infer
        else Protocol.Count
      in
      let trials =
        match op with Protocol.Sample -> 1 + Rng.int rng 4 | _ -> 1
      in
      {
        Protocol.id = i;
        op;
        seed = pick seed_pool;
        graph = pick graphs;
        model = pick models;
        t = 1;
        engine = "ball";
        trials;
        vertex = Rng.int rng 8;
        deadline_ms;
      })

let query connect requests pipeline seed transcript stats_flag deadline_ms
    kill_after worker_pid_file =
  if requests < 1 then die "--requests expects an integer >= 1";
  if pipeline < 1 then die "--pipeline expects an integer >= 1";
  if deadline_ms < 0 then die "--deadline-ms expects an integer >= 0";
  if kill_after < 0 then die "--kill-after expects an integer >= 0";
  if kill_after > 0 && worker_pid_file = None then
    die "--kill-after needs --worker-pid-file to aim at";
  let address = parse_listen connect in
  (* Chaos resets and worker kills make EPIPE on send a normal event. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let fresh_conn () =
    match Client.connect_retry address with Ok c -> c | Error msg -> die msg
  in
  let c = ref (fresh_conn ()) in
  let reqs =
    Array.of_list (gen_requests ~seed ~deadline_ms ~n:requests ())
  in
  let n = Array.length reqs in
  let responses = Array.make n None in
  let lat = Array.make n 0. in
  let answered = ref 0 in
  (* --kill-after: after harvesting that many responses, kill -9 the
     supervised worker named by its pid file — the deterministic
     mid-burst crash the CI restart smoke drives.  The client itself
     survives the kill through the reconnect/resend loop below. *)
  let killed = ref false in
  let maybe_kill () =
    if (not !killed) && kill_after > 0 && !answered >= kill_after then begin
      killed := true;
      match worker_pid_file with
      | None -> ()
      | Some path -> (
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
    end
  in
  let reconnects = ref 0 in
  let reconnect () =
    incr reconnects;
    if !reconnects > 100 then
      die "daemon connection failed after 100 reconnects";
    (try Client.close !c with Unix.Unix_error _ -> ());
    c := fresh_conn ()
  in
  (* Pipelined windows: push K requests, then read K responses.  The
     server answers Overloaded verdicts during its socket drain and
     everything else after the batch runs, so responses can arrive out of
     request order — the correlation id routes each one home.  A broken
     connection (worker killed, daemon restarting) is survived by
     reconnecting and resending the window's unanswered requests:
     response bodies are pure functions of request bytes, so replayed
     answers keep the transcript byte-identical. *)
  let i = ref 0 in
  while !i < n do
    let k = min pipeline (n - !i) in
    let t0 = Unix.gettimeofday () in
    let send_missing () =
      try
        for j = !i to !i + k - 1 do
          if responses.(j) = None then Client.send !c reqs.(j)
        done
      with Unix.Unix_error _ -> ()
      (* a dead connection surfaces as a recv error below *)
    in
    let missing () =
      let m = ref 0 in
      for j = !i to !i + k - 1 do
        if responses.(j) = None then incr m
      done;
      !m
    in
    send_missing ();
    while missing () > 0 do
      match Client.recv !c with
      | Error _ ->
          reconnect ();
          send_missing ()
      | Ok resp ->
          let idx = resp.Protocol.rid in
          if idx < 0 || idx >= n then
            die (Printf.sprintf "response id %d out of range" idx);
          if responses.(idx) = None then begin
            responses.(idx) <- Some resp;
            lat.(idx) <- Unix.gettimeofday () -. t0;
            incr answered;
            maybe_kill ()
          end
    done;
    i := !i + k
  done;
  let c = !c in
  (match transcript with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Array.iteri
        (fun idx -> function
          | Some resp ->
              Printf.fprintf oc "%d %s\n" idx (render_body resp.Protocol.body)
          | None -> Printf.fprintf oc "%d MISSING\n" idx)
        responses;
      close_out oc);
  let count p = Array.fold_left (fun acc r -> if p r then acc + 1 else acc) 0 responses in
  let overloaded =
    count (function
      | Some { Protocol.body = Protocol.Error_r { code = Protocol.Overloaded; _ }; _ } ->
          true
      | _ -> false)
  in
  let errors =
    count (function
      | Some { Protocol.body = Protocol.Error_r _; _ } -> true
      | _ -> false)
  in
  (* Latency is a measurement, not an output: stderr, like the sweep
     timing line, so stdout and the transcript stay deterministic. *)
  let sorted = Array.copy lat in
  Array.sort compare sorted;
  let pct p = sorted.(min (n - 1) (int_of_float (p *. float_of_int n))) in
  Printf.eprintf
    "[%d request(s): %d ok, %d overloaded, %d other error; p50 %.1f ms, p99 \
     %.1f ms]\n"
    n (n - errors) overloaded (errors - overloaded)
    (1000. *. pct 0.5) (1000. *. pct 0.99);
  (if stats_flag then begin
     let sreq =
       {
         Protocol.id = n;
         op = Protocol.Stats;
         seed = 0L;
         graph = "-";
         model = "-";
         t = 0;
         engine = "-";
         trials = 1;
         vertex = 0;
         deadline_ms = 0;
       }
     in
     (match Client.call c sreq with
     | Error msg ->
         Client.close c;
         die msg
     | Ok resp -> print_endline (render_body resp.Protocol.body));
     (* Health rides along with --stats: operators watching counters want
        to know about degraded modes in the same glance. *)
     let hreq = { sreq with Protocol.id = n + 1; op = Protocol.Health } in
     match Client.call c hreq with
     | Error msg ->
         Client.close c;
         die msg
     | Ok resp -> print_endline (render_body resp.Protocol.body)
   end);
  Client.close c;
  0

(* `locsample health`: one Health request, one line, and an exit code CI
   can branch on — 0 healthy, 1 degraded (usage/connection errors keep
   the CLI's exit-2 contract). *)
let health connect =
  let address = parse_listen connect in
  let c =
    match Client.connect_retry address with Ok c -> c | Error msg -> die msg
  in
  let req =
    {
      Protocol.id = 0;
      op = Protocol.Health;
      seed = 0L;
      graph = "-";
      model = "-";
      t = 0;
      engine = "-";
      trials = 1;
      vertex = 0;
      deadline_ms = 0;
    }
  in
  match Client.call c req with
  | Error msg ->
      Client.close c;
      die msg
  | Ok resp -> (
      Client.close c;
      print_endline (render_body resp.Protocol.body);
      match resp.Protocol.body with
      | Protocol.Health_r { reasons = [] } -> 0
      | Protocol.Health_r _ -> 1
      | _ -> die "unexpected response to a health request")

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

(* Validate every LOCSAMPLE_* environment variable up front, before any
   subcommand runs.  Without this, a malformed LOCSAMPLE_DOMAINS only
   surfaces at the first parallel call deep inside a subcommand — as an
   Invalid_argument backtrace instead of the CLI's named-error exit-2
   contract. *)
let env_checks =
  [ Par.env_check; Ls_shard.Ckpt.env_check; Ls_serve.Server.env_check;
    Ls_chaos.Sysfault.env_check ]

let validate_env () =
  List.iter
    (fun check ->
      or_die (check ()))
    env_checks

let setup_log style_renderer level domains trace metrics =
  validate_env ();
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
    Arg.(value & opt float 0. & info [ "fault-rate" ] ~docv:"P"
         ~doc:"Per-(round, edge) message drop probability of the injected \
               fault plan (0 disables fault injection; the zero-fault plan \
               is bit-identical to the reliable runtime).")
  in
  let crash_rate =
    Arg.(value & opt float 0. & info [ "crash-rate" ] ~docv:"P"
         ~doc:"Per-node crash probability of the injected fault plan (a \
               crashed node is gone for good unless the plan grants it a \
               recovery — see --fault-profile flaky).")
  in
  let max_delay =
    Arg.(value & opt int 1 & info [ "max-delay" ] ~docv:"D"
         ~doc:"Upper bound (>= 1) on how many rounds a delayed copy can \
               arrive late.  Only meaningful when the plan has a nonzero \
               delay rate (e.g. via --fault-profile flaky).")
  in
  let corrupt_rate =
    Arg.(value & opt float 0. & info [ "corrupt-rate" ] ~docv:"P"
         ~doc:"Per-(round, edge, copy) payload corruption probability.  \
               Corrupted flood records are detected by an integrity digest \
               and quarantined — billed but never delivered — so corruption \
               costs availability, never correctness.")
  in
  let profile =
    Arg.(value & opt (some string) None & info [ "fault-profile" ] ~docv:"NAME"
         ~doc:"Named fault preset: 'lossy' (pure message loss), 'flaky' \
               (loss + duplication + delay + crash-recovery + corruption), \
               or 'partitioned' (a partition interval and a drop burst over \
               light loss).  Explicit flags override the preset field they \
               correspond to; everything funnels through the same \
               validation.")
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
  let async_mode =
    Arg.(value & opt (some string) None & info [ "async" ] ~docv:"MODE"
         ~doc:"Flood over the event-driven executor instead of lockstep \
               rounds: 'synchronizer' (alpha-synchronizer; bit-identical \
               outputs, rounds and traces under any delay law or skew) or \
               'adaptive' (EWMA timeouts + capped retransmissions; a \
               misfired timeout degrades to a retry, never a wrong \
               sample).")
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
    Term.(const (fun () a b c d e f g h i j k l m n o p q r s t u v -> sample a b c d e f g h i j k l m n o p q r s t u v) $ setup_log_term $ graph_arg $ model_arg $ t_arg $ seed_arg $ engine_arg $ jvv $ eps $ trials $ fault_rate $ crash_rate $ max_delay $ corrupt_rate $ skew $ delay_law $ async_mode $ timeout_base $ profile $ retry_budget $ sketch $ sketch_k $ shards $ shard_kill)

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
  let async_mode =
    Arg.(value & opt (some string) None & info [ "async" ] ~docv:"MODE"
         ~doc:"Run every trial batch over the event-driven executor: \
               'synchronizer' or 'adaptive'.  The sync-vs-async identity \
               invariant is checked either way.")
  in
  let max_delay =
    Arg.(value & opt (some int) None & info [ "max-delay" ] ~docv:"D"
         ~doc:"Force this delay bound onto every generated schedule.")
  in
  let corrupt_rate =
    Arg.(value & opt (some float) None & info [ "corrupt-rate" ] ~docv:"P"
         ~doc:"Force this corruption rate onto every generated schedule.")
  in
  let profile =
    Arg.(value & opt (some string) None & info [ "fault-profile" ] ~docv:"NAME"
         ~doc:"Replace every generated schedule's rates with this preset \
               ('lossy', 'flaky', 'partitioned') before the other override \
               flags apply — the same precedence as the sample command.")
  in
  let partition_conv =
    let parse s =
      match String.split_on_char ':' s with
      | [ a; u; k ] -> (
          try Ok (int_of_string a, int_of_string u, int_of_string k)
          with _ -> Error (`Msg "partition wants FROM:UNTIL:PARTS"))
      | _ -> Error (`Msg "partition wants FROM:UNTIL:PARTS")
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
    Term.(const (fun () a b c d e f g h i j -> chaos a b c d e f g h i j) $ setup_log_term $ seed_arg $ schedules $ trials $ async_mode $ max_delay $ corrupt_rate $ profile $ partitions $ shards $ reproducer)

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
  let connect =
    Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"ADDR"
         ~doc:"Daemon address (same syntax and default as serve --listen).")
  in
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
          $ setup_log_term $ connect $ requests $ pipeline $ seed_arg
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
  let connect =
    Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"ADDR"
         ~doc:"Daemon address (same syntax and default as serve --listen).")
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:"Ask a running serve daemon for its degraded-mode report.  \
             Prints 'health ok' or 'health degraded(subsystem=reason;...)' \
             — snapshot circuit-breaker open, checkpoint-free operation \
             after ENOSPC, connection shedding under EMFILE.  Exits 0 when \
             healthy, 1 when degraded, 2 on usage or connection errors.")
    Term.(const (fun () a -> health a) $ setup_log_term $ connect)

let main_cmd =
  Cmd.group
    (Cmd.info "locsample" ~version:"1.0.0"
       ~doc:"Local distributed sampling and counting (Feng & Yin, PODC 2018)")
    [ sample_cmd; infer_cmd; ssm_cmd; phase_cmd; count_cmd; chaos_cmd;
      serve_cmd; query_cmd; serve_chaos_cmd; health_cmd ]

let () = exit (Cmd.eval' main_cmd)
