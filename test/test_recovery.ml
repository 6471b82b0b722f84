(* The crash-recovery / partition / integrity layer.

   Companion to Test_robustness's network axis: that file covers drops,
   crash-stop, delays and retry accounting; this one covers what the
   recovery extension added — crash intervals with checkpoint/restore,
   partition intervals that cut and heal, integrity quarantine with the
   conservation law, permanent-vs-transient failure classification, the
   merge_views lattice laws, and the describe snapshots the CLI prints. *)

module Generators = Ls_graph.Generators
module Graph = Ls_graph.Graph
module Models = Ls_gibbs.Models
module Rng = Ls_rng.Rng
module Par = Ls_par.Par
module Empirical = Ls_dist.Empirical
module Network = Ls_local.Network
module Faults = Ls_local.Faults
module Resilient = Ls_local.Resilient
module Trace = Ls_obs.Trace

open Ls_core

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* --- crash-recovery intervals ------------------------------------------ *)

let test_crash_interval_semantics () =
  (* Recovery rides on independent salts: granting it must not move the
     crash rounds, only bound the dark interval. *)
  let stop = Faults.make ~seed:71L ~crash:1.0 ~crash_horizon:8 () in
  let recov =
    Faults.make ~seed:71L ~crash:1.0 ~crash_horizon:8 ~recovery:1.0
      ~recovery_delay:3 ()
  in
  for v = 0 to 15 do
    match
      (Faults.crash_interval stop ~node:v, Faults.crash_interval recov ~node:v)
    with
    | Some (c, None), Some (c', Some r) ->
        checki "same crash round with or without recovery" c c';
        checkb "recovery strictly after the crash" true (r > c);
        checkb "recovery within the delay bound" true (r <= c + 3)
    | _ -> Alcotest.fail "expected crash-stop vs crash-recovery intervals"
  done

let test_recovery_restores_liveness () =
  (* Everyone crashes at round 0 and recovers at round 1: the first flood
     sees them restored mid-phase (catch-up charged on top of the phase
     length), and the next flood runs on a fully live network. *)
  let n = 6 in
  let g = Generators.cycle n in
  let faults =
    Faults.make ~seed:73L ~crash:1.0 ~crash_horizon:1 ~recovery:1.0
      ~recovery_delay:1 ()
  in
  let net = Network.create ~faults g ~inputs:(Array.make n ()) ~seed:74L in
  for v = 0 to n - 1 do
    checkb "down at clock 0" true (Network.crashed net v);
    checkb "but not permanently" false (Network.permanently_crashed net v)
  done;
  let r0 = Network.rounds net in
  ignore (Network.flood_views net ~radius:2);
  for v = 0 to n - 1 do
    checkb "back up after the recovery round" false (Network.crashed net v)
  done;
  checki "phase charged its length plus one round of catch-up" 3
    (Network.rounds net - r0);
  let v2 = Network.flood_views net ~radius:2 in
  Array.iter
    (fun v -> checkb "post-recovery flood complete" true
        (Network.view_is_complete net v))
    v2

let test_checkpoint_restore_across_phases () =
  (* Counter states make checkpoint semantics exactly countable: every
     node crashes at round 0 (checkpointing its phase-1 state, 0 merges)
     and recovers at r in [1,8].  Two 4-round phases share the ckpt
     carrier; phase 2's init is a sentinel no genuine restore can
     produce.  A node restored within phase 1 counts 4 - r merges there
     and starts phase 2 from the sentinel like any live node; a node
     still dark at the boundary must restore the PHASE-1 checkpoint in
     phase 2 — its final count is 8 - r, not sentinel + merges. *)
  let n = 8 in
  let g = Generators.cycle n in
  let faults =
    Faults.make ~seed:75L ~crash:1.0 ~crash_horizon:1 ~recovery:1.0
      ~recovery_delay:8 ()
  in
  let net = Network.create ~faults g ~inputs:(Array.make n ()) ~seed:76L in
  let ck = Network.carrier () in
  let phase init =
    Network.run_broadcast net ~rounds:4 ~ckpt:ck ~init
      ~emit:(fun _ s -> s)
      ~merge:(fun _ s _ -> s + 1)
      ()
  in
  let states1 = phase (fun _ -> 0) in
  let states2 = phase (fun _ -> -1000) in
  let late = ref false and early = ref false in
  for v = 0 to n - 1 do
    match Faults.crash_interval faults ~node:v with
    | Some (0, Some r) when r < 4 ->
        early := true;
        checki "restored within phase 1: 4 - r merges" (4 - r) states1.(v);
        checki "then phase 2 runs from its own init" (-1000 + 4) states2.(v)
    | Some (0, Some r) ->
        late := true;
        checki "dark through phase 1: frozen at the checkpoint" 0 states1.(v);
        checki "restore in phase 2 projects the phase-1 checkpoint" (8 - r)
          states2.(v)
    | _ -> Alcotest.fail "plan grants every node a recovery at round 0"
  done;
  (* Both paths must actually occur at this seed. *)
  checkb "some restore landed within phase 1" true !early;
  checkb "some restore crossed the phase boundary" true !late

(* --- integrity: quarantine and conservation ---------------------------- *)

let test_quarantine_and_conservation () =
  let n = 6 in
  let g = Generators.cycle n in
  let faults =
    Faults.make ~seed:81L ~drop:0.1 ~duplicate:0.2 ~corrupt:0.5 ()
  in
  let net = Network.create ~faults g ~inputs:(Array.make n ()) ~seed:82L in
  let received = ref [] in
  ignore
    (Network.run_broadcast net ~rounds:4
       ~corrupt:(fun ~round:_ ~src:_ ~dst:_ m -> m + 1000)
       ~digest:(fun m -> m)
       ~init:(fun v -> v)
       ~emit:(fun v _ -> v)
       ~merge:(fun _ s inbox ->
         received := inbox @ !received;
         s)
       ());
  checkb "some copies quarantined" true (Network.quarantined_count net > 0);
  List.iter
    (fun m -> checkb "no corrupted payload delivered" true (m < 1000))
    !received;
  checki "delivered meter matches merge-visible copies"
    (List.length !received)
    (Network.delivered_count net);
  checki "sent = delivered + pending + quarantined + dead"
    (Network.messages net)
    (Network.delivered_count net + Network.pending_count net
    + Network.quarantined_count net
    + Network.dead_letter_count net)

let test_digest_collision_delivers_silently () =
  (* Integrity is only as strong as the digest: a constant digest cannot
     expose anything, so corrupted copies flow through undetected. *)
  let n = 6 in
  let g = Generators.cycle n in
  let faults = Faults.make ~seed:83L ~corrupt:1.0 () in
  let net = Network.create ~faults g ~inputs:(Array.make n ()) ~seed:84L in
  let corrupted_delivered = ref 0 in
  ignore
    (Network.run_broadcast net ~rounds:2
       ~corrupt:(fun ~round:_ ~src:_ ~dst:_ m -> m + 1000)
       ~digest:(fun _ -> 0)
       ~init:(fun v -> v)
       ~emit:(fun v _ -> v)
       ~merge:(fun _ s inbox ->
         List.iter
           (fun m -> if m >= 1000 then incr corrupted_delivered)
           inbox;
         s)
       ());
  checki "nothing quarantined" 0 (Network.quarantined_count net);
  checkb "collisions deliver the corruption" true (!corrupted_delivered > 0)

let test_flood_views_stay_truthful_under_corruption () =
  (* The flood path carries its own digest, so a corrupted record is
     quarantined — a view can be incomplete but never contains a vertex
     that does not exist. *)
  let n = 8 in
  let g = Generators.cycle n in
  let faults = Faults.make ~seed:87L ~corrupt:0.6 () in
  let net = Network.create ~faults g ~inputs:(Array.make n ()) ~seed:88L in
  let views = Network.flood_views net ~radius:2 in
  checkb "flood corruption caught by the adjacency digest" true
    (Network.quarantined_count net > 0);
  Array.iter
    (fun view ->
      Array.iter
        (fun o -> checkb "every known vertex is real" true (o >= 0 && o < n))
        view.Network.vertices)
    views;
  checkb "quarantine surfaces as loss: some view incomplete" true
    (Array.exists (fun v -> not (Network.view_is_complete net v)) views)

(* --- partitions --------------------------------------------------------- *)

let test_partition_cuts_and_heals () =
  let plan = Faults.make ~seed:95L ~partitions:[ (0, 3, 2) ] () in
  (match Faults.partition_parts plan ~round:1 with
  | Some (index, parts) ->
      checki "two sides" 2 parts;
      let cut_somewhere = ref false in
      for v = 0 to 9 do
        let sv = Faults.partition_side plan ~index ~node:v ~parts in
        checkb "side in range" true (sv >= 0 && sv < parts);
        for w = 0 to 9 do
          if v <> w then begin
            let sw = Faults.partition_side plan ~index ~node:w ~parts in
            let cut = Faults.partitioned plan ~round:1 ~src:v ~dst:w in
            checkb "cut iff cross-side" (sv <> sw) cut;
            if cut then cut_somewhere := true;
            checkb "no cut after the heal" false
              (Faults.partitioned plan ~round:3 ~src:v ~dst:w)
          end
        done
      done;
      checkb "the interval cuts something" true !cut_somewhere
  | None -> Alcotest.fail "interval [0,3) must be in force at round 1");
  checkb "nothing in force after the heal" true
    (Faults.partition_parts plan ~round:3 = None)

let test_recovery_trace_events () =
  (* One flood under the full fault vocabulary: the trace must carry the
     new event kinds with the per-node counts the plan dictates. *)
  let t = Trace.make () in
  let n = 6 in
  let g = Generators.cycle n in
  let faults =
    Faults.make ~seed:85L ~crash:1.0 ~crash_horizon:1 ~recovery:1.0
      ~recovery_delay:2 ~corrupt:0.5
      ~partitions:[ (0, 2, 2) ]
      ()
  in
  let net = Network.create ~faults ~trace:t g ~inputs:(Array.make n ()) ~seed:86L in
  ignore (Network.flood_views net ~radius:3);
  let count p = List.length (List.filter p (Trace.events t)) in
  checki "one checkpoint per node" n
    (count (function Trace.Checkpoint _ -> true | _ -> false));
  checki "one restore per node" n
    (count (function Trace.Restore _ -> true | _ -> false));
  checki "partition came into force once" 1
    (count (function Trace.Partition _ -> true | _ -> false));
  checki "and healed once" 1
    (count (function Trace.Heal _ -> true | _ -> false));
  checkb "quarantines traced" true
    (count (function Trace.Quarantine _ -> true | _ -> false) > 0);
  List.iter
    (function
      | Trace.Restore { missed; _ } ->
          checkb "missed rounds positive and within the delay bound" true
            (missed >= 1 && missed <= 3)
      | _ -> ())
    (Trace.events t)

(* --- permanent vs transient classification ----------------------------- *)

let test_permanent_failure_stops_immediately () =
  let calls = ref 0 and charged = ref 0 in
  let x, report =
    Resilient.run_classified
      (Resilient.policy ~retry_budget:5 ())
      ~charge:(fun r -> charged := !charged + r)
      (fun ~attempt:_ ->
        incr calls;
        Error (Resilient.Permanent "everyone crash-stopped"))
  in
  checkb "no value" true (x = None);
  checki "a permanent failure is not retried" 1 !calls;
  checkb "degraded" true report.Resilient.degraded;
  checki "no backoff burnt waiting for the impossible" 0 !charged;
  checki "reason recorded" 1 (List.length report.Resilient.reasons)

let test_transient_then_permanent () =
  let calls = ref 0 and charged = ref 0 in
  let x, report =
    Resilient.run_classified
      (Resilient.policy ~retry_budget:5 ~backoff_base:1 ~backoff_factor:2 ())
      ~charge:(fun r -> charged := !charged + r)
      (fun ~attempt ->
        incr calls;
        if attempt = 0 then Error (Resilient.Transient "lost messages")
        else Error (Resilient.Permanent "then they crash-stopped"))
  in
  checkb "no value" true (x = None);
  checki "transient retried once, permanent not" 2 !calls;
  checki "only the transient's backoff charged" 1 !charged;
  checkb "degraded" true report.Resilient.degraded

let test_sampler_classifies_crash_stop_vs_recovery () =
  (* End to end: everyone crash-stops => the supervisor gives up after one
     attempt (budget kept unspent); the same crashes with recovery granted
     are waited out within the budget and the sample succeeds. *)
  let inst =
    Instance.unpinned (Models.hardcore (Generators.cycle 8) ~lambda:1.)
  in
  let oracle = Inference.ssm_oracle ~t:2 inst in
  let policy = Resilient.policy ~retry_budget:6 () in
  let stop = Faults.make ~seed:91L ~crash:1.0 ~crash_horizon:1 () in
  let r = Local_sampler.sample_resilient oracle ~policy ~faults:stop inst ~seed:92L in
  let rep = Option.get r.Local_sampler.resilience in
  checkb "crash-stop of everyone degrades" true rep.Resilient.degraded;
  checki "and is recognized as permanent: one attempt" 1 rep.Resilient.attempts;
  let recov =
    Faults.make ~seed:91L ~crash:1.0 ~crash_horizon:1 ~recovery:1.0
      ~recovery_delay:2 ()
  in
  let r2 =
    Local_sampler.sample_resilient oracle ~policy ~faults:recov inst ~seed:92L
  in
  checkb "the same crashes with recovery are waited out" true
    r2.Local_sampler.success

let test_budget_exhaustion_spends_everything () =
  (* Boundary opposite to the permanent case: a failure that stays
     transient until the budget runs out must spend the whole budget —
     every retry taken, every backoff round in the geometric schedule
     charged — before degrading. *)
  let calls = ref 0 and charged = ref 0 in
  let x, report =
    Resilient.run_classified
      (Resilient.policy ~retry_budget:3 ~backoff_base:1 ~backoff_factor:2 ())
      ~charge:(fun r -> charged := !charged + r)
      (fun ~attempt:_ ->
        incr calls;
        Error (Resilient.Transient "still raining"))
  in
  checkb "no value" true (x = None);
  checki "budget + 1 attempts executed" 4 !calls;
  checki "attempts reported" 4 report.Resilient.attempts;
  checki "full geometric backoff charged (1+2+4)" 7 !charged;
  checki "report agrees with the charge hook" 7 report.Resilient.backoff_rounds;
  checkb "degraded" true report.Resilient.degraded;
  checki "every attempt left a reason" 4 (List.length report.Resilient.reasons)

let test_all_crashed_with_recovery_pending_is_transient () =
  (* Every node down at once, but each with a recovery scheduled: that is
     NOT a permanent failure — the supervisor must keep spending budget
     waiting it out, not stop after one attempt the way crash-stop does. *)
  let n = 8 in
  let faults =
    Faults.make ~seed:93L ~crash:1.0 ~crash_horizon:1 ~recovery:1.0
      ~recovery_delay:60 ()
  in
  let net =
    Network.create ~faults (Generators.cycle n) ~inputs:(Array.make n ())
      ~seed:1L
  in
  let all_down = ref true and any_hopeless = ref false in
  for v = 0 to n - 1 do
    if not (Network.crashed net v) then all_down := false;
    if Network.permanently_crashed net v then any_hopeless := true
  done;
  checkb "every node is down at round 0" true !all_down;
  checkb "yet none is hopeless: recovery is pending" true (not !any_hopeless);
  (* End to end: recovery is scheduled but too far out for this budget, so
     the run degrades — after burning the WHOLE budget (transient all the
     way), in contrast to the crash-stop case's single attempt above. *)
  let inst =
    Instance.unpinned (Models.hardcore (Generators.cycle n) ~lambda:1.)
  in
  let oracle = Inference.ssm_oracle ~t:2 inst in
  let policy = Resilient.policy ~retry_budget:2 ~backoff_base:1 () in
  let r = Local_sampler.sample_resilient oracle ~policy ~faults inst ~seed:92L in
  let rep = Option.get r.Local_sampler.resilience in
  checkb "recovery beyond the budget still degrades" true
    rep.Resilient.degraded;
  checki "but classified transient: full budget spent" 3 rep.Resilient.attempts;
  checki "with every backoff round charged (1+2)" 3 rep.Resilient.backoff_rounds

(* --- merge_views lattice laws (property tests) ------------------------- *)

let views_equal (a : 'i Network.view) (b : 'i Network.view) =
  a.Network.vertices = b.Network.vertices
  && a.Network.view_inputs = b.Network.view_inputs
  && a.Network.dist_center = b.Network.dist_center

let qcheck_merge_views_lattice =
  QCheck.Test.make
    ~name:"merge_views is commutative, idempotent, and absorbs subsets"
    ~count:25
    QCheck.(pair small_int (int_range 5 10))
    (fun (seed, n) ->
      let g = Generators.cycle n in
      let faults =
        Faults.make ~seed:(Int64.of_int (1000 + seed)) ~drop:0.4 ()
      in
      let net =
        Network.create ~faults g ~inputs:(Array.init n Fun.id)
          ~seed:(Int64.of_int (seed + 1))
      in
      let a = Network.flood_views net ~radius:2 in
      let b = Network.flood_views net ~radius:2 in
      let ok = ref true in
      for v = 0 to n - 1 do
        let m1 = Network.merge_views net a.(v) b.(v) in
        let m2 = Network.merge_views net b.(v) a.(v) in
        let full = Network.gather net ~v ~radius:2 in
        ok :=
          !ok && views_equal m1 m2
          && views_equal (Network.merge_views net a.(v) a.(v)) a.(v)
          && views_equal (Network.merge_views net m1 a.(v)) m1
          && views_equal (Network.merge_views net full a.(v)) full
      done;
      !ok)

let qcheck_merge_matches_fault_free_flood =
  QCheck.Test.make
    ~name:"merge of fault-free floods agrees with a fresh full flood"
    ~count:25
    QCheck.(pair small_int (int_range 5 10))
    (fun (seed, n) ->
      let g = Generators.cycle n in
      let net =
        Network.create g ~inputs:(Array.init n Fun.id)
          ~seed:(Int64.of_int (2000 + seed))
      in
      let a = Network.flood_views net ~radius:2 in
      let b = Network.flood_views net ~radius:2 in
      let ok = ref true in
      for v = 0 to n - 1 do
        ok :=
          !ok
          && views_equal
               (Network.merge_views net a.(v) b.(v))
               (Network.gather net ~v ~radius:2)
      done;
      !ok)

(* --- describe snapshots ------------------------------------------------- *)

let test_describe_snapshots () =
  let d = Faults.describe in
  checks "zero plan" "no faults" (d Faults.none);
  checks "drop only" "faults(seed=7 drop=0.25)"
    (d (Faults.make ~seed:7L ~drop:0.25 ()));
  checks "delay with its bound" "faults(seed=7 delay=0.3(max 2))"
    (d (Faults.make ~seed:7L ~delay:0.3 ~max_delay:2 ()));
  checks "max_delay shown even without a delay rate"
    "faults(seed=7 drop=0.1 max_delay=3)"
    (d (Faults.make ~seed:7L ~drop:0.1 ~max_delay:3 ()));
  checks "crash-stop" "faults(seed=7 crash=0.5(by round 12))"
    (d (Faults.make ~seed:7L ~crash:0.5 ~crash_horizon:12 ()));
  checks "crash-recovery"
    "faults(seed=7 crash=0.5(by round 12) recovery=1(within 4))"
    (d
       (Faults.make ~seed:7L ~crash:0.5 ~crash_horizon:12 ~recovery:1.0
          ~recovery_delay:4 ()));
  checks "corrupt" "faults(seed=7 corrupt=0.02)"
    (d (Faults.make ~seed:7L ~corrupt:0.02 ()));
  checks "schedules" "faults(seed=7 partition[2,6)x2 burst[8,10)@0.5)"
    (d
       (Faults.make ~seed:7L
          ~partitions:[ (2, 6, 2) ]
          ~bursts:[ (8, 10, 0.5) ]
          ()));
  checks "everything at once"
    "faults(seed=43 drop=0.05 dup=0.05 delay=0.3(max 2) crash=0.05(by round \
     64) recovery=1(within 4) corrupt=0.02 partition[2,6)x2 burst[8,10)@0.5)"
    (d
       (Faults.make ~seed:43L ~drop:0.05 ~duplicate:0.05 ~delay:0.3
          ~max_delay:2 ~crash:0.05 ~recovery:1.0 ~recovery_delay:4
          ~corrupt:0.02
          ~partitions:[ (2, 6, 2) ]
          ~bursts:[ (8, 10, 0.5) ]
          ()))

let test_reseed_keeps_shape () =
  let base =
    Faults.make ~seed:1L ~drop:0.2 ~crash:0.3 ~recovery:0.5
      ~partitions:[ (1, 4, 2) ]
      ()
  in
  let other = Faults.reseed base ~seed:2L in
  checkb "same shape" true
    (Faults.describe other
    = "faults(seed=2 drop=0.2 crash=0.3(by round 64) recovery=0.5(within 4) \
       partition[1,4)x2)");
  (* Fresh verdict stream: the two seeds disagree somewhere. *)
  let pattern plan =
    List.init 100 (fun i ->
        Faults.dropped plan ~round:(i / 10) ~src:(i mod 10) ~dst:((i + 1) mod 10))
  in
  checkb "fresh verdicts" true (pattern base <> pattern other)

(* --- partition-then-heal exactness (satellite S4) ---------------------- *)

let test_jvv_exact_under_partition_heal () =
  (* A partition in force for the first attempts, healed afterwards: the
     supervised JVV sampler must push most trials through on a post-heal
     retry, and conditioned on success the output is still exactly mu. *)
  let n = 6 in
  let inst =
    Instance.unpinned (Models.hardcore (Generators.cycle n) ~lambda:1.)
  in
  let oracle = Inference.ssm_oracle ~t:2 inst in
  let epsilon = Jvv.theory_epsilon inst in
  let policy = Resilient.policy ~retry_budget:4 () in
  let trials = 400 in
  let results =
    Par.run_trials ~n:trials ~seed:920L (fun rng ->
        let faults =
          Faults.make ~seed:(Rng.bits64 rng) ~drop:0.02
            ~partitions:[ (0, 4, 2) ]
            ()
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
  checkb "the heal restores availability" true (successes > trials / 2);
  let emp = Empirical.create () in
  Array.iter (fun (ok, y) -> if ok then Empirical.add emp y) results;
  Test_statistics.check_gof "JVV successes under partition-then-heal vs mu"
    ~significance:0.001 emp (Exact.joint inst)

let suite =
  [
    Alcotest.test_case "crash intervals: stop vs recovery" `Quick
      test_crash_interval_semantics;
    Alcotest.test_case "recovery restores liveness (catch-up charged)" `Quick
      test_recovery_restores_liveness;
    Alcotest.test_case "checkpoint restored across phases" `Quick
      test_checkpoint_restore_across_phases;
    Alcotest.test_case "quarantine + conservation law" `Quick
      test_quarantine_and_conservation;
    Alcotest.test_case "digest collisions deliver silently" `Quick
      test_digest_collision_delivers_silently;
    Alcotest.test_case "flooded views stay truthful under corruption" `Quick
      test_flood_views_stay_truthful_under_corruption;
    Alcotest.test_case "partitions cut cross-side edges then heal" `Quick
      test_partition_cuts_and_heals;
    Alcotest.test_case "recovery trace events" `Quick test_recovery_trace_events;
    Alcotest.test_case "permanent failures stop immediately" `Quick
      test_permanent_failure_stops_immediately;
    Alcotest.test_case "transient then permanent" `Quick
      test_transient_then_permanent;
    Alcotest.test_case "sampler: crash-stop permanent, recovery waited out"
      `Quick test_sampler_classifies_crash_stop_vs_recovery;
    Alcotest.test_case "budget exhaustion spends everything" `Quick
      test_budget_exhaustion_spends_everything;
    Alcotest.test_case "all crashed with recovery pending is transient" `Quick
      test_all_crashed_with_recovery_pending_is_transient;
    QCheck_alcotest.to_alcotest qcheck_merge_views_lattice;
    QCheck_alcotest.to_alcotest qcheck_merge_matches_fault_free_flood;
    Alcotest.test_case "describe snapshots" `Quick test_describe_snapshots;
    Alcotest.test_case "reseed keeps shape, refreshes verdicts" `Quick
      test_reseed_keeps_shape;
    Alcotest.test_case "JVV exact under partition-then-heal" `Slow
      test_jvv_exact_under_partition_heal;
  ]
