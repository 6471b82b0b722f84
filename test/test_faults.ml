(* One fault-plan type.  [Faults.make ?base] is the only place a
   [--fault-profile] preset meets explicit overrides; the CLI's sample
   command, bench E12 and the chaos harness all go through it.  These
   tests diff it against frozen copies of the merges it replaced: the
   preset record with a hand-copied merge per caller, and the chaos
   harness's own shrinkable schedule record. *)

module Faults = Ls_local.Faults
module Chaos = Ls_chaos.Chaos
module Rng = Ls_rng.Rng

let checkb = Alcotest.check Alcotest.bool

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* The code these tests pin, copied before the merge moved into
   [Faults.make].  Do not edit: it is the reference, not the code under
   test. *)
module Reference = struct
  type preset = {
    pr_drop : float;
    pr_duplicate : float;
    pr_delay : float;
    pr_max_delay : int;
    pr_crash : float;
    pr_recovery : float;
    pr_recovery_delay : int;
    pr_corrupt : float;
    pr_partitions : (int * int * int) list;
    pr_bursts : (int * int * float) list;
  }

  let zero_preset =
    {
      pr_drop = 0.;
      pr_duplicate = 0.;
      pr_delay = 0.;
      pr_max_delay = 1;
      pr_crash = 0.;
      pr_recovery = 0.;
      pr_recovery_delay = 4;
      pr_corrupt = 0.;
      pr_partitions = [];
      pr_bursts = [];
    }

  let preset = function
    | "lossy" -> { zero_preset with pr_drop = 0.1 }
    | "flaky" ->
        {
          zero_preset with
          pr_drop = 0.05;
          pr_duplicate = 0.05;
          pr_delay = 0.3;
          pr_max_delay = 2;
          pr_crash = 0.05;
          pr_recovery = 1.;
          pr_recovery_delay = 4;
          pr_corrupt = 0.02;
        }
    | "partitioned" ->
        {
          zero_preset with
          pr_drop = 0.02;
          pr_partitions = [ (2, 6, 2) ];
          pr_bursts = [ (8, 10, 0.5) ];
        }
    | other -> invalid_arg other

  (* bin/locsample's merge: a flag left at its default deferred to the
     preset. *)
  let faults_of_flags ~seed ~fault_rate ~crash_rate ~max_delay ~corrupt_rate
      ~skew ~delay_law ~profile =
    let p =
      match profile with Some name -> preset name | None -> zero_preset
    in
    let over flag dflt preset = if flag <> dflt then flag else preset in
    Faults.make ~seed
      ~drop:(over fault_rate 0. p.pr_drop)
      ~duplicate:p.pr_duplicate ~delay:p.pr_delay
      ~max_delay:(over max_delay 1 p.pr_max_delay)
      ~crash:(over crash_rate 0. p.pr_crash)
      ~recovery:p.pr_recovery ~recovery_delay:p.pr_recovery_delay
      ~corrupt:(over corrupt_rate 0. p.pr_corrupt)
      ~partitions:p.pr_partitions ~bursts:p.pr_bursts
      ~law:(Faults.law_of_string delay_law)
      ~skew ()

  (* Bench E12's merge: the swept drop and the crash rate always won; the
     other two flags deferred to the preset at their defaults. *)
  let e12_faults ~seed ~drop ~crash ~max_delay ~corrupt_rate ~profile =
    let pr =
      match profile with Some name -> preset name | None -> zero_preset
    in
    let over flag dflt preset = if flag <> dflt then flag else preset in
    Faults.make ~seed ~drop ~duplicate:pr.pr_duplicate ~delay:pr.pr_delay
      ~max_delay:(over max_delay 1 pr.pr_max_delay)
      ~crash ~recovery:pr.pr_recovery ~recovery_delay:pr.pr_recovery_delay
      ~corrupt:(over corrupt_rate 0. pr.pr_corrupt)
      ~partitions:pr.pr_partitions ~bursts:pr.pr_bursts ()

  (* The chaos harness's schedule record and the functions over it. *)
  type spec = {
    plan_seed : int64;
    drop : float;
    duplicate : float;
    delay : float;
    max_delay : int;
    crash : float;
    recovery : float;
    recovery_delay : int;
    corrupt : float;
    partitions : (int * int * int) list;
    bursts : (int * int * float) list;
    law : Faults.law;
    skew : float;
    reorder : float;
  }

  let to_faults s =
    Faults.make ~seed:s.plan_seed ~drop:s.drop ~duplicate:s.duplicate
      ~delay:s.delay ~max_delay:s.max_delay ~crash:s.crash
      ~recovery:s.recovery ~recovery_delay:s.recovery_delay ~corrupt:s.corrupt
      ~partitions:s.partitions ~bursts:s.bursts ~law:s.law ~skew:s.skew
      ~reorder:s.reorder ()

  let gen rng =
    let plan_seed = Rng.bits64 rng in
    let rate p hi = if Rng.bernoulli rng p then Rng.float rng *. hi else 0. in
    let drop = rate 0.7 0.12 in
    let duplicate = rate 0.4 0.1 in
    let delay = rate 0.5 0.3 in
    let max_delay = 1 + Rng.int rng 3 in
    let crash = rate 0.5 0.1 in
    let recovery =
      if Rng.bernoulli rng 0.6 then 0.5 +. (Rng.float rng *. 0.5) else 0.
    in
    let recovery_delay = 1 + Rng.int rng 6 in
    let corrupt = rate 0.4 0.05 in
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
    {
      plan_seed;
      drop;
      duplicate;
      delay;
      max_delay;
      crash;
      recovery;
      recovery_delay;
      corrupt;
      partitions;
      bursts;
      law;
      skew;
      reorder;
    }

  let apply_overrides (o : Chaos.overrides) s =
    let s =
      match o.o_profile with
      | None -> s
      | Some name ->
          let p = preset name in
          {
            s with
            drop = p.pr_drop;
            duplicate = p.pr_duplicate;
            delay = p.pr_delay;
            max_delay = p.pr_max_delay;
            crash = p.pr_crash;
            recovery = p.pr_recovery;
            recovery_delay = p.pr_recovery_delay;
            corrupt = p.pr_corrupt;
            partitions = p.pr_partitions;
            bursts = p.pr_bursts;
          }
    in
    let s =
      match o.o_max_delay with None -> s | Some d -> { s with max_delay = d }
    in
    let s =
      match o.o_corrupt with None -> s | Some c -> { s with corrupt = c }
    in
    match o.o_partitions with [] -> s | ps -> { s with partitions = ps }
end

let profiles = [ None; Some "lossy"; Some "flaky"; Some "partitioned" ]

let profile_name = Option.value ~default:"none"

(* Every subset of the four explicit fault flags, each set to a value
   other than its default — the inputs on which the old merge and the
   new one must agree. *)
let override_subsets =
  List.init 16 (fun mask ->
      let pick bit v = if mask land (1 lsl bit) <> 0 then Some v else None in
      (pick 0 0.07, pick 1 0.03, pick 2 3, pick 3 0.01))

let test_cli_merge_matches_reference () =
  List.iter
    (fun profile ->
      List.iter
        (fun (fault_rate, crash_rate, max_delay, corrupt_rate) ->
          List.iter
            (fun (delay_law, skew) ->
              let seed = 43L in
              let expected =
                Reference.faults_of_flags ~seed
                  ~fault_rate:(Option.value ~default:0. fault_rate)
                  ~crash_rate:(Option.value ~default:0. crash_rate)
                  ~max_delay:(Option.value ~default:1 max_delay)
                  ~corrupt_rate:(Option.value ~default:0. corrupt_rate)
                  ~skew ~delay_law ~profile
              in
              let got =
                Faults.make
                  ?base:(Option.map Faults.preset profile)
                  ~seed ?drop:fault_rate ?max_delay ?crash:crash_rate
                  ?corrupt:corrupt_rate
                  ~law:(Faults.law_of_string delay_law)
                  ~skew ()
              in
              checkb
                (Printf.sprintf "profile %s, %s" (profile_name profile)
                   (Faults.describe expected))
                true (got = expected))
            [ ("uniform", 0.); ("heavy", 0.5) ])
        override_subsets)
    profiles

let test_e12_merge_matches_reference () =
  List.iter
    (fun profile ->
      List.iter
        (fun (_, _, max_delay, corrupt) ->
          List.iter
            (fun drop ->
              let seed = 0x5eedL and crash = 0.01 in
              let expected =
                Reference.e12_faults ~seed ~drop ~crash
                  ~max_delay:(Option.value ~default:1 max_delay)
                  ~corrupt_rate:(Option.value ~default:0. corrupt)
                  ~profile
              in
              let got =
                Faults.make
                  ?base:(Option.map Faults.preset profile)
                  ~seed ~drop ~crash ?max_delay ?corrupt ()
              in
              checkb
                (Printf.sprintf "profile %s, drop %g" (profile_name profile)
                   drop)
                true (got = expected))
            [ 0.; 0.05 ])
        override_subsets)
    profiles

let test_explicit_default_overrides_preset () =
  (* The one behaviour change: a flag given at its default value is
     explicit, so it overrides the preset instead of deferring to it. *)
  let flaky = Faults.preset "flaky" in
  let m = Faults.make ~base:flaky ~drop:0. ~max_delay:1 ~corrupt:0. () in
  checkb "drop, max_delay and corrupt take the explicit values" true
    (m.Faults.drop = 0. && m.max_delay = 1 && m.corrupt = 0.);
  checkb "the fields no flag names keep the preset's" true
    (m.duplicate = flaky.duplicate && m.delay = flaky.delay
    && m.crash = flaky.crash && m.recovery = flaky.recovery);
  checkb "lossy with --fault-rate 0 is no faults" true
    (Faults.is_none (Faults.make ~base:(Faults.preset "lossy") ~drop:0. ()));
  List.iter
    (fun name ->
      let p = Faults.preset name in
      checkb (name ^ ": an empty merge is the preset") true
        (Faults.make ~base:p () = p))
    [ "lossy"; "flaky"; "partitioned" ];
  checkb "make without a base keeps seed 1" true ((Faults.make ()).seed = 1L);
  checkb "a base carries its seed" true
    ((Faults.make ~base:(Faults.reseed Faults.none ~seed:9L) ()).seed = 9L);
  (* The merged plan is validated like any other. *)
  match Faults.make ~base:flaky ~max_delay:0 () with
  | _ -> Alcotest.fail "an invalid override was accepted"
  | exception Invalid_argument msg ->
      checkb "the error names the flag" true (contains msg "--max-delay")

exception Generated of Faults.t

(* The schedule the harness generates from [seed], read through the
   public API: the check hook sees it before any work is done. *)
let generated ~overrides seed =
  let check spec = raise (Generated spec) in
  match Chaos.run ~check ~overrides ~schedules:1 ~trials:1 ~seed () with
  | _ -> Alcotest.fail "the check hook never saw a schedule"
  | exception Generated spec -> spec

let test_chaos_schedules_match_reference () =
  let round_trip =
    {
      Chaos.o_async = Some "synchronizer";
      o_max_delay = Some 3;
      o_corrupt = Some 0.02;
      o_profile = Some "lossy";
      o_partitions = [ (1, 4, 2); (6, 8, 3) ];
      o_shards = None;
    }
  in
  let flaky = { Chaos.no_overrides with o_profile = Some "flaky" } in
  List.iter
    (fun (what, overrides) ->
      for i = 0 to 199 do
        let seed = Int64.of_int (1000 + i) in
        let expected =
          Reference.to_faults
            (Reference.apply_overrides overrides
               (Reference.gen (Rng.create seed)))
        in
        checkb
          (Printf.sprintf "%s, seed %Ld" what seed)
          true
          (generated ~overrides seed = expected)
      done)
    [
      ("no overrides", Chaos.no_overrides);
      ("round-trip overrides", round_trip);
      ("flaky profile", flaky);
    ];
  checkb "the quiet schedule" true
    (Chaos.quiet 5L
    = Reference.to_faults
        {
          Reference.plan_seed = 5L;
          drop = 0.;
          duplicate = 0.;
          delay = 0.;
          max_delay = 1;
          crash = 0.;
          recovery = 0.;
          recovery_delay = 1;
          corrupt = 0.;
          partitions = [];
          bursts = [];
          law = Faults.Uniform;
          skew = 0.;
          reorder = 0.;
        })

let suite =
  [
    Alcotest.test_case "CLI preset merge = Reference" `Quick
      test_cli_merge_matches_reference;
    Alcotest.test_case "E12 preset merge = Reference" `Quick
      test_e12_merge_matches_reference;
    Alcotest.test_case "explicit default-valued flags override the preset"
      `Quick test_explicit_default_overrides_preset;
    Alcotest.test_case "chaos schedules = Reference" `Quick
      test_chaos_schedules_match_reference;
  ]
