(* Chaos harness for the LOCAL runtime: generate random fault schedules
   from a seed, run the resilient sampler under each, check a suite of
   invariants that must hold under EVERY schedule, and shrink failing
   schedules to minimal reproducers.

   Everything here is a pure function of the harness seed: schedule
   generation, trial randomness and fault verdicts all derive from it, so
   a failure printed with its seed replays exactly — on any machine, at
   any domain count. *)

module Rng = Ls_rng.Rng
module Dist = Ls_dist.Dist
module Empirical = Ls_dist.Empirical
module Graph = Ls_graph.Graph
module Generators = Ls_graph.Generators
module Models = Ls_gibbs.Models
module Network = Ls_local.Network
module Faults = Ls_local.Faults
module Resilient = Ls_local.Resilient
module Async = Ls_local.Async
module Par = Ls_par.Par
module Exec = Ls_shard.Exec
open Ls_core

(* --- schedules -------------------------------------------------------- *)

let quiet seed = Faults.make ~seed ~recovery_delay:1 ()

(* Schedule generation: every dimension of the fault space is exercised
   with positive probability, at rates moderate enough that the workload
   keeps succeeding often (the exactness invariant needs successes). *)
let gen rng =
  let seed = Rng.bits64 rng in
  let rate p hi = if Rng.bernoulli rng p then Rng.float rng *. hi else 0. in
  let drop = rate 0.7 0.12 in
  let duplicate = rate 0.4 0.1 in
  let delay = rate 0.5 0.3 in
  let max_delay = 1 + Rng.int rng 3 in
  let crash = rate 0.5 0.1 in
  let recovery = if Rng.bernoulli rng 0.6 then 0.5 +. (Rng.float rng *. 0.5) else 0. in
  let recovery_delay = 1 + Rng.int rng 6 in
  let corrupt = rate 0.4 0.05 in
  (* Timing dimensions: only the asynchronous executor consults them, so
     the sync-vs-async identity invariant gets exercised under every tail
     shape, not just the uniform one. *)
  let law =
    match Rng.int rng 3 with
    | 0 -> Faults.Uniform
    | 1 -> Faults.Exponential
    | _ -> Faults.Heavy
  in
  let skew = rate 0.4 0.5 in
  let reorder = rate 0.4 0.25 in
  let intervals k gen_one =
    List.init (Rng.int rng (k + 1)) (fun _ -> gen_one ())
  in
  let partitions =
    intervals 2 (fun () ->
        let a = Rng.int rng 8 in
        (a, a + 1 + Rng.int rng 5, 2 + Rng.int rng 2))
  in
  let bursts =
    intervals 2 (fun () ->
        let a = Rng.int rng 10 in
        (a, a + 1 + Rng.int rng 3, 0.3 +. (Rng.float rng *. 0.6)))
  in
  Faults.make ~seed ~drop ~duplicate ~delay ~max_delay ~crash ~recovery
    ~recovery_delay ~corrupt ~partitions ~bursts ~law ~skew ~reorder ()

(* --- overrides (the CLI flag surface, as data) ------------------------- *)

(* `locsample chaos` can force chosen dimensions onto every generated
   schedule — the same precedence story as the sample command's flags over
   --fault-profile — and the reproducer line carries them, so a replay is
   one copy-paste regardless of which flags produced the run. *)
type overrides = {
  o_async : string option;  (* executor mode name, None = synchronous *)
  o_max_delay : int option;
  o_corrupt : float option;
  o_profile : string option;
  o_partitions : (int * int * int) list;  (* [] = keep generated ones *)
  o_shards : int option;  (* run sharded invariants at this worker count *)
}

let no_overrides =
  {
    o_async = None;
    o_max_delay = None;
    o_corrupt = None;
    o_profile = None;
    o_partitions = [];
    o_shards = None;
  }

(* The profile, when named, replaces the generated rates and schedules;
   the generated seed and timing dimensions stay, and the explicit
   overrides win over both. *)
let apply_overrides o s =
  let base =
    match o.o_profile with Some name -> Faults.preset name | None -> s
  in
  let partitions = match o.o_partitions with [] -> None | ps -> Some ps in
  Faults.make ~base ~seed:s.Faults.seed ~law:s.law ~skew:s.skew
    ~reorder:s.reorder ?max_delay:o.o_max_delay ?corrupt:o.o_corrupt
    ?partitions ()

(* --- the workload ----------------------------------------------------- *)

(* Small enough for exact enumeration, large enough that partitions and
   crashes bite: the hardcore model on C6, sampled by the chain-rule
   sampler over the supervised message-passing layer. *)
let workload_n = 6

let workload_instance () =
  Instance.unpinned (Models.hardcore (Generators.cycle workload_n) ~lambda:1.)

let exact_joint = lazy (Exact.joint (workload_instance ()))

type violation = Harness.violation = { invariant : string; detail : string }

let violation = Harness.violation

(* Wilson-Hilferty chi-square upper quantile at significance 0.001 (the
   same approximation the test suite's Test_statistics uses). *)
let chi_square_critical ~df =
  let d = float_of_int df in
  let z = 3.0902 in
  if df = 1 then 3.29053 *. 3.29053
  else if df = 2 then -2. *. log 0.001
  else d *. ((1. -. (2. /. (9. *. d)) +. (z *. sqrt (2. /. (9. *. d)))) ** 3.)

(* One supervised sampling trial.  Per-trial fault and payload seeds are
   split off the trial stream, so trials are independent replicas of the
   same schedule SHAPE (rates and intervals) — exactly how E12/E13 sample
   fault space.  [async] is the executor mode; a fresh config per trial
   keeps its mutable stats out of the cross-domain determinism story. *)
let one_trial ?async spec inst oracle policy rng =
  let faults = Faults.reseed spec ~seed:(Rng.bits64 rng) in
  let async = Option.map (fun mode -> Async.make ~mode ()) async in
  let r =
    Local_sampler.sample_resilient oracle ~policy ~faults ?async inst
      ~seed:(Rng.bits64 rng)
  in
  (r.Local_sampler.success, r.Local_sampler.sigma, r.Local_sampler.rounds)

let run_spec ?check ?async ?shards ?(trials = 80) spec =
  let violations = ref [] in
  let push v = violations := v :: !violations in
  (match check with Some f -> Option.iter push (f spec) | None -> ());
  let inst = workload_instance () in
  let oracle = Inference.ssm_oracle ~t:2 inst in
  let policy = Resilient.policy ~retry_budget:3 () in
  (* Invariant: conservation at teardown.  Drive supervised ball collection
     directly on a network we hold, finish it, then account for every
     transmitted copy — pending must be zero once the network is finished
     (parked copies settle as dead letters), not just balanced mid-run. *)
  let g = Generators.cycle workload_n in
  let net =
    Network.create ~faults:spec g
      ~inputs:(Array.make workload_n ())
      ~seed:spec.Faults.seed
  in
  let exec = Option.map (fun mode -> Async.make ~mode ()) async in
  let _views, _failed, _report =
    Resilient.collect_views ?async:exec net ~policy ~radius:2
  in
  Network.finish net;
  if Network.pending_count net <> 0 then
    push
      (violation "conservation"
         "%d copies still pending after Network.finish (teardown must settle \
          every copy)"
         (Network.pending_count net));
  let sent = Network.messages net in
  let accounted =
    Network.delivered_count net + Network.pending_count net
    + Network.quarantined_count net
    + Network.dead_letter_count net
  in
  if sent <> accounted then
    push
      (violation "conservation"
         "sent %d <> delivered %d + pending %d + quarantined %d + dead %d" sent
         (Network.delivered_count net)
         (Network.pending_count net)
         (Network.quarantined_count net)
         (Network.dead_letter_count net));
  (* Trial batch, used by the remaining invariants.  Domain count 1 here;
     the determinism invariant reruns the same batch on 2 domains and
     demands bit-identical results. *)
  let batch_seed = Int64.logxor spec.Faults.seed 0x5DEECE66DL in
  let batch ?async ~domains () =
    Par.run_trials ~domains ~n:trials ~seed:batch_seed
      (one_trial ?async spec inst oracle policy)
  in
  let results = batch ?async ~domains:1 () in
  (* Invariant: domain-count invariance (verdicts, outputs and round
     charges must not depend on scheduling).  Skipped under [shards]:
     the OCaml runtime permanently refuses [Unix.fork] in any process
     that ever created a domain, and the sharded invariants below need
     fork.  Sharding replaces in-process domain parallelism, and
     shard-identity plays the same scheduling-invariance role there. *)
  (if shards = None then
     let results2 = batch ?async ~domains:2 () in
     if results <> results2 then
       push
         (violation "domain-determinism"
            "trial batch differs between --domains 1 and --domains 2"));
  (* Invariant: sync-vs-async identity.  The synchronizer-mode executor
     must reproduce the synchronous runtime bit-for-bit — outputs, success
     verdicts and round charges — under EVERY schedule, whatever delay
     law, skew or reordering the spec carries. *)
  let sync_results =
    match async with None -> results | Some _ -> batch ~domains:1 ()
  in
  let synchro_results = batch ~async:Async.Synchronizer ~domains:1 () in
  if sync_results <> synchro_results then
    push
      (violation "sync-async-identity"
         "synchronizer-mode executor diverged from the synchronous runtime");
  (* Invariant: Las Vegas samplers never lie — every success lies in the
     support of the exact joint distribution. *)
  let exact = Lazy.force exact_joint in
  Array.iteri
    (fun i (ok, sigma, _) ->
      if ok && not (List.mem_assoc sigma exact) then
        push
          (violation "las-vegas" "trial %d: success outside exact support [%s]"
             i
             (String.concat ";" (Array.to_list (Array.map string_of_int sigma)))))
    results;
  (* Invariant: exactness on successes.  Faults may depress availability
     but conditioned on success the output is exactly mu — chi-square GOF
     at significance 0.001, skipped when successes are too few for the
     expected cell counts to be meaningful. *)
  let emp = Empirical.create () in
  Array.iter (fun (ok, sigma, _) -> if ok then Empirical.add emp sigma) results;
  let support = List.length exact in
  if Empirical.total emp >= 5 * support then begin
    let stat = Empirical.chi_square emp exact in
    let critical = chi_square_critical ~df:(support - 1) in
    if not (stat <= critical) then
      push
        (violation "gof"
           "chi-square %.2f > critical %.2f on %d successes (df %d)" stat
           critical (Empirical.total emp) (support - 1))
  end;
  (* Sharded invariants (opt-in via --shards; the sharded transport is
     synchronous-only, so they are skipped under --async).  Runs stay on
     one domain: Exec forks worker processes, and fork is only safe while
     no sibling domains are live. *)
  (match (shards, async) with
  | Some k, None ->
      let sh_trials = min trials 20 in
      let run_sharded ?(kills = []) () =
        Exec.reset_phase_counter ();
        Exec.install (Exec.config ~shards:k ~kills ());
        Fun.protect ~finally:Exec.uninstall (fun () ->
            Par.run_trials ~domains:1 ~n:sh_trials ~seed:batch_seed
              (one_trial spec inst oracle policy))
      in
      (* Invariant: shard-identity.  The sharded transport must reproduce
         the in-process executor bit-for-bit — outputs, verdicts, round
         charges — under every schedule and shard count. *)
      let unsharded =
        Par.run_trials ~domains:1 ~n:sh_trials ~seed:batch_seed
          (one_trial spec inst oracle policy)
      in
      let sharded = run_sharded () in
      if sharded <> unsharded then
        push
          (violation "shard-identity"
             "--shards %d trial batch diverged from the in-process executor"
             k);
      (* Invariant: kill-recovery.  kill -9 a worker mid-phase (round 0 of
         the first faulty phase — before its first checkpoint), twice: the
         supervisor's restart-and-replay must land on the same verdicts as
         the undisturbed sharded run, both times. *)
      let kills =
        [ { Exec.k_shard = 0; k_phase = 0; k_round = 0; k_incarnation = 0;
            k_hang = false } ]
      in
      let killed1 = run_sharded ~kills () in
      let killed2 = run_sharded ~kills () in
      if killed1 <> sharded then
        push
          (violation "kill-recovery"
             "--shards %d batch with a seeded kill -9 diverged from the \
              undisturbed sharded run"
             k);
      if killed2 <> killed1 then
        push
          (violation "kill-recovery"
             "--shards %d two identical seeded kill -9 runs disagreed with \
              each other"
             k)
  | _ -> ());
  List.rev !violations

(* Zero-fault bit-identity: the supervised sampler under [Faults.none]
   must produce exactly the unsupervised sampler's output (every flood
   delivers each neighbor's message once per round, and attempt 0's
   payload seed is the first split of the master stream). *)
let zero_fault_identity ?async ~seed () =
  let inst = workload_instance () in
  let oracle = Inference.ssm_oracle ~t:2 inst in
  let async = Option.map (fun mode -> Async.make ~mode ()) async in
  let resilient =
    Local_sampler.sample_resilient oracle ~faults:Faults.none ?async inst ~seed
  in
  let payload_seed = Rng.bits64 (Rng.create seed) in
  let plain = Local_sampler.sample oracle inst ~seed:payload_seed in
  if resilient.Local_sampler.sigma <> plain.Local_sampler.sigma then
    Some
      (violation "zero-fault"
         "supervised sampler under Faults.none diverged from the plain sampler")
  else None

(* --- shrinking -------------------------------------------------------- *)

let remove_nth i l = List.filteri (fun j _ -> j <> i) l

(* Candidate one-step simplifications, most structural first.  A plan
   holds its intervals as records; [make] takes them back as tuples. *)
let shrink_candidates (s : Faults.t) =
  let make = Faults.make ~base:s in
  let partition p = Faults.(p.p_from, p.p_until, p.p_parts) in
  let burst b = Faults.(b.b_from, b.b_until, b.b_drop) in
  List.concat
    [
      List.mapi
        (fun i _ ->
          make ~partitions:(List.map partition (remove_nth i s.partitions)) ())
        s.partitions;
      List.mapi
        (fun i _ -> make ~bursts:(List.map burst (remove_nth i s.bursts)) ())
        s.bursts;
      (if s.crash > 0. then [ make ~crash:0. ~recovery:0. () ] else []);
      (if s.recovery > 0. then [ make ~recovery:0. () ] else []);
      (if s.corrupt > 0. then [ make ~corrupt:0. () ] else []);
      (if s.delay > 0. then [ make ~delay:0. ~max_delay:1 () ] else []);
      (if s.duplicate > 0. then [ make ~duplicate:0. () ] else []);
      (if s.drop > 0. then [ make ~drop:0. () ] else []);
      (if s.skew > 0. then [ make ~skew:0. () ] else []);
      (if s.reorder > 0. then [ make ~reorder:0. () ] else []);
      (if s.law <> Faults.Uniform then [ make ~law:Faults.Uniform () ] else []);
      (if s.max_delay > 1 then [ make ~max_delay:1 () ] else []);
      (if s.recovery_delay > 1 then [ make ~recovery_delay:1 () ] else []);
    ]

let shrink ?check ?async ?shards ?trials s =
  let run = run_spec ?check ?async ?shards ?trials in
  fst (Harness.shrink ~run ~candidates:shrink_candidates s (run s))

(* --- top level -------------------------------------------------------- *)

type params = { trials : int; overrides : overrides }
type summary = (Faults.t, params) Harness.summary

let run ?check ?(overrides = no_overrides) ?(schedules = 10) ?(trials = 80)
    ~seed () =
  Harness.run ~who:"Chaos.run" ~size:("trials", trials) ~seed ~schedules
    { trials; overrides }
    (fun () ->
      (* Validate every override before any work: the CLI funnels its
         flags through the same constructors as the API. *)
      let async = Option.map Async.mode_of_string overrides.o_async in
      Option.iter (fun m -> ignore (Async.make ~mode:m ())) async;
      (match overrides.o_shards with
      | Some k when k < 1 -> invalid_arg "Chaos.run: --shards must be >= 1"
      | Some _ when async <> None ->
          invalid_arg "Chaos.run: --shards is synchronous-only (drop --async)"
      | _ -> ());
      ignore (apply_overrides overrides (quiet seed));
      let shards = overrides.o_shards in
      {
        Harness.zero = zero_fault_identity ?async ~seed ();
        gen = (fun rng -> apply_overrides overrides (gen rng));
        run_spec = run_spec ?check ?async ?shards ~trials;
        candidates = shrink_candidates;
      })

let ok = Harness.ok

(* The override flags, rendered exactly as `locsample chaos` accepts them —
   the replay line must round-trip through parse_reproducer AND through the
   real CLI. *)
let flags p =
  let b = Buffer.create 64 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let o = p.overrides in
  add " --chaos-trials %d" p.trials;
  Option.iter (add " --async %s") o.o_async;
  Option.iter (add " --max-delay %d") o.o_max_delay;
  Option.iter (add " --corrupt-rate %g") o.o_corrupt;
  Option.iter (add " --fault-profile %s") o.o_profile;
  List.iter (fun (a, u, k) -> add " --partition %d:%d:%d" a u k) o.o_partitions;
  Option.iter (add " --shards %d") o.o_shards;
  Buffer.contents b

let reproducer =
  Harness.report ~command:"chaos" ~describe:Faults.describe
    ~header:(fun p -> Printf.sprintf " trials=%d" p.trials)
    ~flags
    ~zero_fault:(fun v -> "zero-fault identity VIOLATED: " ^ v.detail)

let parse_partition v =
  match List.map int_of_string_opt (String.split_on_char ':' v) with
  | [ Some a; Some u; Some k ] -> Ok (a, u, k)
  | _ -> Error "partition wants FROM:UNTIL:PARTS"

let step p toks =
  let o = p.overrides in
  let over o rest = Some ({ p with overrides = o }, rest) in
  match toks with
  | ("--chaos-trials" | "--trials") :: v :: rest ->
      Some ({ p with trials = int_of_string v }, rest)
  | "--async" :: v :: rest -> over { o with o_async = Some v } rest
  | "--max-delay" :: v :: rest ->
      over { o with o_max_delay = Some (int_of_string v) } rest
  | "--corrupt-rate" :: v :: rest ->
      over { o with o_corrupt = Some (float_of_string v) } rest
  | "--fault-profile" :: v :: rest -> over { o with o_profile = Some v } rest
  | "--partition" :: v :: rest -> (
      match parse_partition v with
      | Ok part -> over { o with o_partitions = o.o_partitions @ [ part ] } rest
      | Error msg -> failwith msg)
  | "--shards" :: v :: rest ->
      over { o with o_shards = Some (int_of_string v) } rest
  | _ -> None

let parse_reproducer text =
  Harness.parse_replay ~command:"chaos" ~schedules:10
    { trials = 80; overrides = no_overrides }
    step text
