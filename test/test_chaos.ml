(* The chaos harness itself.

   The harness is the robustness layer's own test rig, so these tests play
   both sides: on the healthy runtime every generated schedule must pass
   the invariant suite, and when we plant a seeded "failure" through the
   injected-check hook the harness must catch it, shrink it to a minimal
   schedule, and replay the whole run bit-identically from its seed. *)

module Chaos = Ls_chaos.Chaos
module H = Ls_chaos.Harness

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* The planted "bug": it fires whenever a schedule combines a positive
   drop rate with a partition interval. *)
let planted spec = spec.Chaos.drop > 0. && spec.Chaos.partitions <> []

let injected spec =
  if planted spec then
    Some { Chaos.invariant = "injected"; detail = "drop with partition" }
  else None

let test_healthy_runtime_passes () =
  let s = Chaos.run ~schedules:4 ~trials:50 ~seed:2026L () in
  checkb "zero-fault identity holds" true (s.H.zero_fault = None);
  checkb "every schedule passes the invariant suite" true (Chaos.ok s);
  checki "schedules recorded" 4 s.H.schedules;
  checkb "the report says so" true
    (contains (Chaos.reproducer s) "all invariants held")

let test_quiet_spec_passes () =
  checkb "the zero-fault schedule trivially passes" true
    (Chaos.run_spec ~trials:30 (Chaos.quiet 5L) = [])

let test_replay_is_deterministic () =
  let a = Chaos.run ~schedules:3 ~trials:40 ~seed:7L () in
  let b = Chaos.run ~schedules:3 ~trials:40 ~seed:7L () in
  checkb "whole summaries bit-identical" true (a = b)

let test_injected_failure_is_caught_and_shrunk () =
  (* The harness must catch the planted bug, and the shrinker must strip
     every irrelevant dimension while keeping the two that matter. *)
  let check = injected in
  let s = Chaos.run ~check ~schedules:8 ~trials:10 ~seed:2026L () in
  checkb "some schedule trips the planted bug" true (not (Chaos.ok s));
  List.iter
    (fun f ->
      checkb "the original violation is recorded" true
        (f.H.f_violations <> []);
      checkb "the shrunk schedule still fails" true
        (f.H.f_shrunk_violations <> []);
      let m = f.H.f_shrunk in
      checkb "shrunk keeps a positive drop" true (m.Chaos.drop > 0.);
      checki "shrunk keeps exactly one partition" 1
        (List.length m.Chaos.partitions);
      checkb "every irrelevant rate zeroed" true
        (m.Chaos.duplicate = 0. && m.Chaos.delay = 0. && m.Chaos.crash = 0.
        && m.Chaos.recovery = 0. && m.Chaos.corrupt = 0.
        && m.Chaos.bursts = []);
      checkb "timing dimensions stripped too" true
        (m.Chaos.skew = 0. && m.Chaos.reorder = 0.
        && m.Chaos.law = Ls_local.Faults.Uniform);
      checki "delay bound collapsed" 1 m.Chaos.max_delay)
    s.H.failures;
  let r = Chaos.reproducer s in
  checkb "reproducer names the violated invariant" true
    (contains r "injected");
  checkb "reproducer ends in the replay line" true
    (contains r
       "replay: locsample chaos --seed 2026 --schedules 8 --chaos-trials 10");
  (* And the replay line is honest: the same parameters reproduce the same
     failures, indices and shrunk forms included. *)
  let s' = Chaos.run ~check ~schedules:8 ~trials:10 ~seed:2026L () in
  checkb "replaying reproduces the failures exactly" true
    (s.H.failures = s'.H.failures)

let test_one_evaluation_per_schedule () =
  (* The loop hands the violations it has to the shrinker and keeps the
     fixpoint's, so no schedule is run twice: count runs per spec through
     the check hook, which run_spec calls exactly once. *)
  let runs = ref [] in
  let count spec = Option.value ~default:0 (List.assoc_opt spec !runs) in
  let check spec =
    runs := (spec, count spec + 1) :: List.remove_assoc spec !runs;
    injected spec
  in
  let s = Chaos.run ~check ~schedules:8 ~trials:10 ~seed:2026L () in
  checkb "some schedule trips the planted bug" true (s.H.failures <> []);
  List.iter
    (fun f ->
      checki "a failing schedule is run once" 1 (count f.H.f_spec);
      if f.H.f_shrunk <> f.H.f_spec then
        checki "its shrunk form is run once" 1 (count f.H.f_shrunk))
    s.H.failures;
  List.iter
    (fun f ->
      checkb "the shrunk violations are a fresh run's" true
        (f.H.f_shrunk_violations
        = Chaos.run_spec ~check:injected ~trials:10 f.H.f_shrunk))
    s.H.failures

let test_vacuous_runs_rejected () =
  (* A run that would check no invariant is an error, and so is every bad
     override — raised before any work, so the check is never reached. *)
  let o = Chaos.no_overrides in
  List.iter
    (fun (what, schedules, trials, overrides) ->
      let ran = ref false in
      let check _ =
        ran := true;
        None
      in
      (match Chaos.run ~check ~overrides ~schedules ~trials ~seed:1L () with
      | _ -> Alcotest.failf "%s: Chaos.run did not raise" what
      | exception Invalid_argument _ -> ());
      checkb (what ^ ": rejected before any work") false !ran)
    [
      ("--schedules 0", 0, 10, o);
      ("--schedules=-3", -3, 10, o);
      ("--chaos-trials 0", 2, 0, o);
      ("--schedules 0 --fault-profile bogus", 0, 10,
       { o with o_profile = Some "bogus" });
      ("--fault-profile bogus", 2, 10, { o with o_profile = Some "bogus" });
      ("--max-delay 0", 2, 10, { o with o_max_delay = Some 0 });
      ("--async bogus", 2, 10, { o with o_async = Some "bogus" });
      ("--shards 0", 2, 10, { o with o_shards = Some 0 });
    ]

let test_shrink_ignores_decoy () =
  (* A decoy invariant fires on exactly the schedules the planted bug
     spares, so every candidate that drops a guilty dimension trips it.
     The shrinker must keep the planted failure, not trade it for the
     decoy. *)
  let check spec =
    match injected spec with
    | Some v -> Some v
    | None ->
        Some { Chaos.invariant = "decoy"; detail = "a guilty dimension zeroed" }
  in
  let s = Chaos.run ~check:injected ~schedules:8 ~trials:10 ~seed:2026L () in
  match s.H.failures with
  | [] -> Alcotest.fail "some schedule trips the planted bug"
  | f :: _ ->
      let m = Chaos.shrink ~check ~trials:10 f.H.f_spec in
      checkb "shrunk keeps the planted failure" true (planted m);
      checki "shrunk keeps exactly one partition" 1
        (List.length m.Chaos.partitions)

let test_shrink_is_identity_on_passing_specs () =
  let spec = Chaos.quiet 9L in
  checkb "nothing to shrink on a passing schedule" true
    (Chaos.shrink ~trials:20 spec = spec)

let test_async_executors_pass_the_suite () =
  (* The tentpole's two modes, end to end under random schedules: the
     synchronizer must be invisible (identity invariant) and the adaptive
     executor must keep every Las Vegas invariant — misfired timeouts cost
     retries, never exactness. *)
  let sync = Chaos.run ~overrides:{ Chaos.no_overrides with o_async = Some "synchronizer" }
      ~schedules:3 ~trials:40 ~seed:2027L ()
  in
  checkb "synchronizer mode passes every invariant" true (Chaos.ok sync);
  let adaptive =
    Chaos.run ~overrides:{ Chaos.no_overrides with o_async = Some "adaptive" }
      ~schedules:3 ~trials:40 ~seed:2028L ()
  in
  checkb "adaptive mode passes every invariant" true (Chaos.ok adaptive)

let test_reproducer_round_trip () =
  (* Satellite: the replay line carries the whole flag surface, and
     parsing it back then re-running yields the identical violations. *)
  let overrides =
    {
      Chaos.o_async = Some "synchronizer";
      o_max_delay = Some 3;
      o_corrupt = Some 0.02;
      o_profile = Some "lossy";
      o_partitions = [ (1, 4, 2); (6, 8, 3) ];
      o_shards = None;
    }
  in
  let check spec =
    if spec.Chaos.drop > 0. then
      Some { Chaos.invariant = "injected"; detail = "any loss at all" }
    else None
  in
  let s = Chaos.run ~check ~overrides ~schedules:2 ~trials:10 ~seed:77L () in
  checkb "the planted bug fires under the lossy profile" true
    (not (Chaos.ok s));
  let text = Chaos.reproducer s in
  checkb "replay line carries every override flag" true
    (contains text
       "--async synchronizer --max-delay 3 --corrupt-rate 0.02 \
        --fault-profile lossy --partition 1:4:2 --partition 6:8:3");
  (match Chaos.parse_reproducer text with
  | None -> Alcotest.fail "reproducer did not parse"
  | Some (seed, schedules, { Chaos.trials; overrides = o }) ->
      checkb "seed round-trips" true (seed = 77L);
      checki "schedules round-trip" 2 schedules;
      checki "trials round-trip" 10 trials;
      checkb "overrides round-trip" true (o = overrides);
      let s' = Chaos.run ~check ~overrides:o ~schedules ~trials ~seed () in
      checkb "re-running the parsed line reproduces the violations" true
        (s'.H.failures = s.H.failures
        && s'.H.zero_fault = s.H.zero_fault));
  checkb "junk text does not parse" true
    (Chaos.parse_reproducer "no replay line here" = None);
  (* The one FROM:UNTIL:PARTS parser, shared with the CLI's --partition. *)
  checkb "a partition parses" true (Chaos.parse_partition "1:4:2" = Ok (1, 4, 2));
  List.iter
    (fun bad ->
      checkb ("a malformed partition is an error: " ^ bad) true
        (Result.is_error (Chaos.parse_partition bad)))
    [ "1:4"; "1:4:2:0"; "a:4:2"; "" ]

let suite =
  [
    Alcotest.test_case "healthy runtime passes the suite" `Slow
      test_healthy_runtime_passes;
    Alcotest.test_case "quiet spec passes" `Quick test_quiet_spec_passes;
    Alcotest.test_case "replay is deterministic" `Slow
      test_replay_is_deterministic;
    Alcotest.test_case "injected failure caught and shrunk" `Quick
      test_injected_failure_is_caught_and_shrunk;
    Alcotest.test_case "one evaluation per schedule" `Quick
      test_one_evaluation_per_schedule;
    Alcotest.test_case "vacuous runs and bad overrides rejected" `Quick
      test_vacuous_runs_rejected;
    Alcotest.test_case "shrink ignores a decoy invariant" `Quick
      test_shrink_ignores_decoy;
    Alcotest.test_case "shrink is identity on passing specs" `Quick
      test_shrink_is_identity_on_passing_specs;
    Alcotest.test_case "async executors pass the suite" `Slow
      test_async_executors_pass_the_suite;
    Alcotest.test_case "reproducer round-trips through its replay line"
      `Quick test_reproducer_round_trip;
  ]
