(* The sharded multi-process execution layer (lib/shard).

   Four axes: the wire/checkpoint codecs (round trips, named errors,
   fuzz over mutated bytes, byte-at-a-time streaming), the shard
   geometry, the supervisor's kill -9 lifecycle (restart before the
   first checkpoint, double kills inside one budget, budget exhaustion,
   fleet-wide death, hang probes), and the bit-identity contract — a
   sharded run, killed or not, must reproduce the in-process executor
   exactly.

   NOTE: these tests fork worker processes, and the OCaml runtime
   permanently refuses [Unix.fork] in a process that ever created a
   domain — so this suite must run before any suite that touches the
   domain pool (it is registered first in test_main, and every parallel
   call here pins [~domains:1], which spawns none). *)

module Rng = Ls_rng.Rng
module Generators = Ls_graph.Generators
module Models = Ls_gibbs.Models
module Faults = Ls_local.Faults
module Resilient = Ls_local.Resilient
module Trace = Ls_obs.Trace
module Metrics = Ls_obs.Metrics
module Par = Ls_par.Par
module Frame = Ls_shard.Frame
module Ckpt = Ls_shard.Ckpt
module Router = Ls_shard.Router
module Supervisor = Ls_shard.Supervisor
module Exec = Ls_shard.Exec
module Sweep = Ls_shard.Sweep
open Ls_core

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let fresh_dir =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "ls-shard-test-%d-%d" (Unix.getpid ()) !ctr)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let rm_rf d =
  if Sys.file_exists d then begin
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    Unix.rmdir d
  end

(* --- frame codec ------------------------------------------------------- *)

let test_frame_roundtrip () =
  let cases =
    [
      { Frame.kind = 0; a = 0; b = 0; c = 0; payload = "" };
      { Frame.kind = 255; a = max_int; b = min_int; c = -1; payload = "x" };
      { Frame.kind = 7; a = 3; b = 1; c = 2; payload = String.make 10_000 '\x00' };
      { Frame.kind = 1; a = 42; b = 9; c = 0; payload = "\xff\x00binary\nstuff" };
    ]
  in
  List.iter
    (fun f ->
      match Frame.decode (Frame.encode f) with
      | Ok f' -> checkb "frame round-trips" true (f = f')
      | Error e -> Alcotest.fail ("round-trip failed: " ^ e))
    cases;
  checkb "digest is a pure function" true
    (Frame.digest64 "abc" = Frame.digest64 "abc"
    && Frame.digest64 "abc" <> Frame.digest64 "abd")

let test_frame_named_errors () =
  let f = { Frame.kind = 3; a = 1; b = 2; c = 3; payload = "payload!" } in
  let enc = Frame.encode f in
  let expect_error what s =
    match Frame.decode s with
    | Ok _ -> Alcotest.fail (what ^ ": expected a decode error")
    | Error e -> checkb (what ^ " has a named reason") true (String.length e > 0)
  in
  expect_error "bad magic" ("XXXX" ^ String.sub enc 4 (String.length enc - 4));
  (* Truncation at every boundary short of a full frame. *)
  for len = 0 to String.length enc - 1 do
    expect_error "truncation" (String.sub enc 0 len)
  done;
  expect_error "trailing bytes" (enc ^ "z");
  (* Corrupt one payload byte: the digest must catch it. *)
  let corrupt = Bytes.of_string enc in
  Bytes.set corrupt (String.length enc - 2)
    (Char.chr (Char.code (Bytes.get corrupt (String.length enc - 2)) lxor 1));
  expect_error "digest mismatch" (Bytes.to_string corrupt);
  (* An absurd length prefix must be rejected before any allocation is
     sized by it: encode a filler frame and splice a huge length in. *)
  checkb "max_payload is finite" true (Frame.max_payload < Sys.max_string_length)

let test_frame_fuzz_mutations () =
  (* Single-byte mutations and truncations of a valid frame must always
     produce Ok or a named Error — never an exception, never an
     allocation driven by an unvalidated length. *)
  let rng = Rng.create 9001L in
  let f =
    { Frame.kind = 2; a = 17; b = 5; c = 1; payload = String.make 200 'q' }
  in
  let enc = Frame.encode f in
  let n = String.length enc in
  for _ = 1 to 2_000 do
    let b = Bytes.of_string enc in
    let pos = Rng.int rng n in
    Bytes.set b pos (Char.chr (Rng.int rng 256));
    (match Frame.decode (Bytes.to_string b) with Ok _ | Error _ -> ());
    let cut = Rng.int rng (n + 1) in
    match Frame.decode (String.sub (Bytes.to_string b) 0 cut) with
    | Ok _ | Error _ -> ()
  done

let test_frame_decode_prefix () =
  let f1 = { Frame.kind = 1; a = 7; b = 0; c = 0; payload = "alpha" } in
  let f2 = { Frame.kind = 2; a = 8; b = 1; c = 2; payload = String.make 90 'w' } in
  let enc1 = Frame.encode f1 and enc2 = Frame.encode f2 in
  (* Every proper prefix asks for more bytes; the full encoding decodes
     with an exact consumed count. *)
  for len = 0 to String.length enc1 - 1 do
    match Frame.decode_prefix (String.sub enc1 0 len) with
    | Ok None -> ()
    | Ok (Some _) -> Alcotest.fail "partial frame must not decode"
    | Error e -> Alcotest.fail ("partial frame must not be malformed: " ^ e)
  done;
  (match Frame.decode_prefix (enc1 ^ enc2) with
  | Ok (Some (f, used)) ->
      checkb "first frame decoded" true (f = f1);
      checki "consumed exactly one frame" (String.length enc1) used;
      let rest = String.sub (enc1 ^ enc2) used (String.length enc2) in
      (match Frame.decode_prefix rest with
      | Ok (Some (f', used')) ->
          checkb "second frame decoded" true (f' = f2);
          checki "second frame consumed" (String.length enc2) used'
      | _ -> Alcotest.fail "second frame must decode from the remainder")
  | _ -> Alcotest.fail "concatenated frames must decode one at a time");
  (* A caller-imposed payload cap rejects the length claim up front,
     before the payload bytes (which may never come) are buffered. *)
  (match Frame.decode_prefix ~max_frame_payload:8 enc2 with
  | Error e -> checkb "capped length claim is named" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "length over the caller's cap must be malformed");
  (* Fuzz, same discipline as decode: mutations and truncations never
     raise. *)
  let rng = Rng.create 4242L in
  let n = String.length enc2 in
  for _ = 1 to 2_000 do
    let b = Bytes.of_string enc2 in
    Bytes.set b (Rng.int rng n) (Char.chr (Rng.int rng 256));
    (match Frame.decode_prefix (Bytes.to_string b) with
    | Ok _ | Error _ -> ());
    match
      Frame.decode_prefix (String.sub (Bytes.to_string b) 0 (Rng.int rng (n + 1)))
    with
    | Ok _ | Error _ -> ()
  done

let test_frame_streaming_byte_at_a_time () =
  (* Regression for the partial-read loops: a peer dribbling one byte at
     a time must still produce whole frames, then a clean EOF. *)
  let r, w = Unix.pipe () in
  let frames =
    [
      { Frame.kind = 1; a = 0; b = 0; c = 0; payload = "first" };
      { Frame.kind = 2; a = 1; b = 2; c = 3; payload = String.make 300 'z' };
    ]
  in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      List.iter
        (fun f ->
          let s = Frame.encode f in
          String.iter
            (fun ch ->
              let b = Bytes.make 1 ch in
              let rec put () =
                match Unix.write w b 0 1 with
                | 1 -> ()
                | _ -> put ()
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> put ()
              in
              put ())
            s)
        frames;
      Unix.close w;
      Unix._exit 0
  | pid ->
      Unix.close w;
      List.iter
        (fun expect ->
          match Frame.read_fd r with
          | Ok f -> checkb "streamed frame intact" true (f = expect)
          | Error _ -> Alcotest.fail "streamed frame failed to decode")
        frames;
      (match Frame.read_fd r with
      | Error Frame.Closed -> ()
      | _ -> Alcotest.fail "expected clean EOF after the last frame");
      Unix.close r;
      ignore (Unix.waitpid [] pid)

(* --- checkpoint files -------------------------------------------------- *)

let test_ckpt_roundtrip () =
  let dir = fresh_dir () in
  let meta = { Ckpt.run_id = 0x1234_5678L; shard = 1; phase = 2; round = 7 } in
  Ckpt.save ~dir meta "state bytes";
  (match Ckpt.load ~dir ~run_id:0x1234_5678L ~shard:1 with
  | Some (m, payload) ->
      checkb "meta round-trips" true (m = meta);
      checks "payload round-trips" "state bytes" payload
  | None -> Alcotest.fail "checkpoint did not load");
  checkb "wrong run id is absence" true
    (Ckpt.load ~dir ~run_id:0xdeadL ~shard:1 = None);
  checkb "wrong shard is absence" true
    (Ckpt.load ~dir ~run_id:0x1234_5678L ~shard:0 = None);
  Ckpt.remove ~dir ~run_id:0x1234_5678L ~shard:1;
  checkb "removed is absence" true
    (Ckpt.load ~dir ~run_id:0x1234_5678L ~shard:1 = None);
  rm_rf dir

let test_ckpt_torn_write_never_observed () =
  (* A writer SIGKILLed mid-write leaves either the old complete file
     (atomic rename) or a torn temp sibling — never a torn checkpoint.
     Simulate every prefix of the encoding landing at the real path: the
     reader must treat each as absence, and a valid older checkpoint
     must keep winning while the tear only exists as a temp file. *)
  let dir = fresh_dir () in
  let meta = { Ckpt.run_id = 99L; shard = 0; phase = 1; round = 4 } in
  let enc = Ckpt.encode meta "the full payload" in
  let path = Ckpt.path ~dir ~run_id:99L ~shard:0 in
  let n = String.length enc in
  let step = max 1 (n / 23) in
  let cut = ref 0 in
  while !cut < n do
    let oc = open_out_bin path in
    output_string oc (String.sub enc 0 !cut);
    close_out oc;
    checkb "torn file reads as absence" true
      (Ckpt.load ~dir ~run_id:99L ~shard:0 = None);
    cut := !cut + step
  done;
  (* Old checkpoint + torn temp sibling: load sees the old one. *)
  Ckpt.save ~dir { meta with round = 3 } "older";
  let oc = open_out_bin (path ^ ".tmp") in
  output_string oc (String.sub enc 0 (n / 2));
  close_out oc;
  (match Ckpt.load ~dir ~run_id:99L ~shard:0 with
  | Some (m, p) ->
      checki "the complete checkpoint wins" 3 m.Ckpt.round;
      checks "its payload is intact" "older" p
  | None -> Alcotest.fail "complete checkpoint hidden by a torn temp");
  Ckpt.remove ~dir ~run_id:99L ~shard:0;
  checkb "remove clears the temp sibling too" true
    (not (Sys.file_exists (path ^ ".tmp")));
  rm_rf dir

let test_ckpt_decode_fuzz () =
  let rng = Rng.create 404L in
  let meta = { Ckpt.run_id = 7L; shard = 2; phase = 0; round = 1 } in
  let enc = Ckpt.encode meta (String.make 100 'p') in
  let n = String.length enc in
  for _ = 1 to 2_000 do
    let b = Bytes.of_string enc in
    Bytes.set b (Rng.int rng n) (Char.chr (Rng.int rng 256));
    (match Ckpt.decode (Bytes.to_string b) with Ok _ | Error _ -> ());
    match Ckpt.decode (String.sub (Bytes.to_string b) 0 (Rng.int rng (n + 1))) with
    | Ok _ | Error _ -> ()
  done

(* --- shard geometry ---------------------------------------------------- *)

let test_router_partition_properties () =
  for n = 1 to 40 do
    for shards = 1 to 8 do
      let sizes = ref [] in
      let covered = ref 0 in
      for s = shards - 1 downto 0 do
        let lo, hi = Router.range ~shards ~n s in
        checkb "range is well-formed" true (0 <= lo && lo <= hi && hi <= n);
        sizes := (hi - lo) :: !sizes;
        covered := !covered + (hi - lo);
        for v = lo to hi - 1 do
          checki "owner inverts range" s (Router.owner ~shards ~n v)
        done
      done;
      checki "ranges cover every vertex" n !covered;
      (* Contiguous ascending blocks, sizes within one of each other,
         larger blocks first. *)
      let mx = List.fold_left max 0 !sizes
      and mn = List.fold_left min max_int !sizes in
      checkb "balanced within one" true (mx - mn <= 1);
      checkb "larger blocks come first" true
        (List.sort (fun a b -> compare b a) !sizes = !sizes)
    done
  done;
  let lo, hi = Router.trial_range ~shards:3 ~trials:10 0 in
  checkb "trial ranges share the geometry" true (lo = 0 && hi = 4)

let test_router_entry_codec () =
  let mk i =
    {
      Router.e_slot = i mod 3;
      e_sent = 10 + i;
      e_src = i;
      e_dst = (i * 7) mod 5;
      e_copy = i mod 2;
      e_bytes = String.make (i mod 50) (Char.chr (65 + (i mod 26)));
    }
  in
  let entries = List.init 40 mk in
  let buf = Buffer.create 64 in
  Router.encode_entries buf entries;
  let s = Buffer.contents buf in
  (match Router.decode_entries s (ref 0) with
  | Ok es -> checkb "entry list round-trips" true (es = entries)
  | Error e -> Alcotest.fail ("entry decode failed: " ^ e));
  (* Truncations and mutations: named errors or a clean decode, never an
     exception or a length-driven over-allocation. *)
  let rng = Rng.create 31337L in
  let n = String.length s in
  for _ = 1 to 1_000 do
    let b = Bytes.of_string s in
    Bytes.set b (Rng.int rng n) (Char.chr (Rng.int rng 256));
    (match Router.decode_entries (Bytes.to_string b) (ref 0) with
    | Ok _ | Error _ -> ());
    match
      Router.decode_entries (String.sub s 0 (Rng.int rng n)) (ref 0)
    with
    | Ok _ | Error _ -> ()
  done

(* --- supervisor lifecycle ---------------------------------------------- *)

(* A tiny protocol for lifecycle tests: each worker sends one done frame
   (kind 9) after optionally killing itself on chosen incarnations. *)
let lifecycle_policy =
  {
    Supervisor.restart_budget = 3;
    backoff_base_ms = 1;
    backoff_factor = 2;
    hang_timeout_ms = 150;
    hang_probes = 2;
    all_dead_grace_ms = 30;
  }

let run_lifecycle ?(policy = lifecycle_policy) ?trace ~shards ~plan () =
  (* [plan ~shard ~incarnation] decides what that incarnation does. *)
  let restarts = ref [] in
  let body ~shard ~incarnation fd =
    (match plan ~shard ~incarnation with
    | `Kill -> Unix.kill (Unix.getpid ()) Sys.sigkill
    | `Exit -> Unix._exit 1
    | `Hang ->
        while true do
          Unix.sleep 3600
        done
    | `Finish -> ());
    Frame.write_fd fd
      { Frame.kind = 9; a = incarnation; b = shard; c = 0; payload = "" }
  in
  let finished = Array.make shards (-1) in
  let on_frame ctx ~shard (f : Frame.t) =
    checki "lifecycle frame kind" 9 f.Frame.kind;
    finished.(shard) <- f.Frame.a;
    ctx.Supervisor.mark_done ~shard
  in
  Supervisor.run ~policy ?trace ~shards ~body ~on_frame
    ~on_restart:(fun ~shard ~incarnation ->
      restarts := (shard, incarnation) :: !restarts)
    ();
  (finished, List.rev !restarts)

let test_supervisor_restart_before_first_checkpoint () =
  (* kill -9 before the worker ever writes anything: the restart path
     must work with no checkpoint and no frames to go on. *)
  let trace = Trace.make () in
  let finished, restarts =
    run_lifecycle ~trace ~shards:2
      ~plan:(fun ~shard ~incarnation ->
        if shard = 0 && incarnation = 0 then `Kill else `Finish)
      ()
  in
  checki "shard 0 finished on incarnation 1" 1 finished.(0);
  checki "shard 1 untouched" 0 finished.(1);
  checkb "one restart, of shard 0" true (restarts = [ (0, 1) ]);
  let evs = Trace.events trace in
  checki "two spawns traced" 2
    (List.length
       (List.filter (function Trace.Shard_spawn _ -> true | _ -> false) evs));
  checkb "the restart is traced with no checkpoint to restore" true
    (List.exists
       (function
         | Trace.Shard_restart { shard = 0; incarnation = 1; restored_round } ->
             restored_round = -1
         | _ -> false)
       evs)

let test_supervisor_double_kill_one_budget () =
  (* Two kill -9s inside one budget of 3: still recovers. *)
  let finished, restarts =
    run_lifecycle ~shards:2
      ~plan:(fun ~shard ~incarnation ->
        if shard = 1 && incarnation < 2 then `Kill else `Finish)
      ()
  in
  checki "shard 1 finished on incarnation 2" 2 finished.(1);
  checkb "two restarts, both of shard 1" true (restarts = [ (1, 1); (1, 2) ])

let test_supervisor_budget_exhausted_transient () =
  (* One shard dying forever while its peer completes: transient (more
     retries might have helped), named by shard. *)
  match
    run_lifecycle ~shards:2
      ~plan:(fun ~shard ~incarnation:_ ->
        if shard = 0 then `Exit else `Finish)
      ()
  with
  | _ -> Alcotest.fail "expected Supervisor.Failed"
  | exception Supervisor.Failed (Supervisor.Transient, msg) ->
      checks "named by shard" "shard 0: restart budget exhausted" msg

let test_supervisor_all_dead_permanent () =
  (* The whole fleet dead inside one grace window: permanent, with every
     restart budget unspent (no restart was attempted). *)
  match
    run_lifecycle ~shards:2 ~plan:(fun ~shard:_ ~incarnation:_ -> `Exit) ()
  with
  | _ -> Alcotest.fail "expected Supervisor.Failed"
  | exception Supervisor.Failed (Supervisor.Permanent, msg) ->
      checks "fleet-wide death is permanent"
        "all 2 shards dead within one grace window" msg

let test_supervisor_hang_probe () =
  (* A worker that hangs without dying: probes fire, SIGKILL follows,
     the replacement completes. *)
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.reset ();
      Metrics.set_enabled was)
    (fun () ->
      let finished, restarts =
        run_lifecycle ~shards:2
          ~plan:(fun ~shard ~incarnation ->
            if shard = 0 && incarnation = 0 then `Hang else `Finish)
          ()
      in
      checki "hung shard finished on incarnation 1" 1 finished.(0);
      checkb "exactly one restart" true (restarts = [ (0, 1) ]);
      let m = Metrics.snapshot () in
      checkb "liveness probes were metered" true
        (Metrics.get m Metrics.shard_probes >= 2);
      checki "restart metered" 1 (Metrics.get m Metrics.shard_restarts))

(* --- kill specs -------------------------------------------------------- *)

let test_parse_kill_specs () =
  (match Exec.parse_kill_specs "0:1:2,3:4:5:6,1:0:0:hang,2:0:0:1:hang" with
  | Ok [ a; b; c; d ] ->
      checkb "three-field spec" true
        (a = { Exec.k_shard = 0; k_phase = 1; k_round = 2; k_incarnation = 0;
               k_hang = false });
      checkb "four-field spec" true
        (b = { Exec.k_shard = 3; k_phase = 4; k_round = 5; k_incarnation = 6;
               k_hang = false });
      checkb "hang suffix on three fields" true
        (c.Exec.k_hang && c.Exec.k_shard = 1);
      checkb "hang suffix on four fields" true
        (d.Exec.k_hang && d.Exec.k_incarnation = 1)
  | Ok _ | Error _ -> Alcotest.fail "expected four parsed kill specs");
  checkb "empty string is no kills" true (Exec.parse_kill_specs "" = Ok []);
  (match Exec.parse_kill_specs "1:2" with
  | Error e -> checkb "short spec named" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "short spec accepted");
  match Exec.parse_kill_specs "a:b:c" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-numeric spec accepted"

(* --- bit-identity of the sharded transport ----------------------------- *)

(* The chaos workload: hardcore on C6 through the supervised sampler,
   under a plan that exercises drops, duplication, delay (cross-phase
   carry), crash-recovery (checkpoint/restore), corruption and a
   partition interval. *)
let workload_instance () =
  Instance.unpinned (Models.hardcore (Generators.cycle 6) ~lambda:1.)

let flaky_faults seed =
  Faults.make ~seed ~drop:0.08 ~duplicate:0.06 ~delay:0.25 ~max_delay:2
    ~crash:0.12 ~recovery:0.8 ~recovery_delay:2 ~corrupt:0.04
    ~partitions:[ (1, 3, 2) ] ()

let run_workload ~seeds () =
  let inst = workload_instance () in
  let oracle = Inference.ssm_oracle ~t:2 inst in
  let policy = Resilient.policy ~retry_budget:3 () in
  List.map
    (fun seed ->
      let faults = flaky_faults (Int64.of_int (1000 + seed)) in
      let r =
        Local_sampler.sample_resilient oracle ~policy ~faults inst
          ~seed:(Int64.of_int seed)
      in
      (r.Local_sampler.success, r.Local_sampler.sigma, r.Local_sampler.rounds))
    seeds

let with_exec_installed cfg f =
  Exec.reset_phase_counter ();
  Exec.install cfg;
  Fun.protect ~finally:Exec.uninstall f

let test_exec_identity () =
  let seeds = [ 1; 2; 3; 4; 5; 6 ] in
  let unsharded = run_workload ~seeds () in
  List.iter
    (fun shards ->
      let dir = fresh_dir () in
      let got =
        with_exec_installed (Exec.config ~shards ~dir ()) (run_workload ~seeds)
      in
      checkb
        (Printf.sprintf "%d-shard run bit-identical to in-process" shards)
        true (got = unsharded);
      rm_rf dir)
    [ 1; 2; 3; 6 ]

let test_exec_kill_recovery_deterministic () =
  (* kill -9 a worker at round 0 of phase 0 — before any checkpoint of
     any phase exists — and again on a later phase: both recoveries must
     land on the undisturbed sharded (= in-process) result, twice.
     Metrics confirm the kill really fired (a restart was metered). *)
  let seeds = [ 1; 2; 3 ] in
  let unsharded = run_workload ~seeds () in
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.reset ();
      Metrics.set_enabled was)
    (fun () ->
      List.iter
        (fun kills ->
          List.iter
            (fun _ ->
              Metrics.reset ();
              let dir = fresh_dir () in
              let got =
                with_exec_installed
                  (Exec.config ~shards:2 ~kills ~dir ())
                  (run_workload ~seeds)
              in
              rm_rf dir;
              checkb "the kill fired (restart metered)" true
                (Metrics.get (Metrics.snapshot ()) Metrics.shard_restarts >= 1);
              checkb "killed run bit-identical to in-process" true
                (got = unsharded))
            [ (); () ])
        [
          [ { Exec.k_shard = 0; k_phase = 0; k_round = 0; k_incarnation = 0;
              k_hang = false } ];
          [ { Exec.k_shard = 1; k_phase = 2; k_round = 1; k_incarnation = 0;
              k_hang = false } ];
        ])

(* --- the sharded sweep ------------------------------------------------- *)

let sweep_trial rng =
  (* A deterministic trial that also emits trace events through the
     supervised network, so the sweep's event shipping is exercised. *)
  let inst = workload_instance () in
  let oracle = Inference.ssm_oracle ~t:2 inst in
  let policy = Resilient.policy ~retry_budget:2 () in
  let faults = flaky_faults (Rng.bits64 rng) in
  let r =
    Local_sampler.sample_resilient oracle ~policy ~faults inst
      ~seed:(Rng.bits64 rng)
  in
  (r.Local_sampler.success, r.Local_sampler.sigma, r.Local_sampler.rounds)

let strip_lifecycle evs =
  List.filter
    (function Trace.Shard_spawn _ | Trace.Shard_restart _ -> false | _ -> true)
    evs

let test_sweep_identity_with_events () =
  let n = 10 and seed = 555L in
  let sink1 = Trace.make () in
  Trace.install sink1;
  let base, bt =
    Fun.protect ~finally:Trace.uninstall (fun () ->
        Par.run_trials_timed ~domains:1 ~n ~seed sweep_trial)
  in
  let dir = fresh_dir () in
  let sink2 = Trace.make () in
  Trace.install sink2;
  let got, gt =
    Fun.protect ~finally:Trace.uninstall (fun () ->
        Sweep.run_trials_timed (Exec.config ~shards:3 ~dir ()) ~n ~seed
          sweep_trial)
  in
  rm_rf dir;
  checkb "sweep results bit-identical to Par" true (got = base);
  checki "timing reports the shard count" 3 gt.Par.domains;
  checkb "per-trial timings cover every trial" true
    (Array.length gt.Par.per_trial = n && Array.length bt.Par.per_trial = n);
  checkb "event stream identical modulo shard lifecycle" true
    (strip_lifecycle (Trace.events sink2) = Trace.events sink1)

let test_sweep_kill_recovery () =
  let n = 12 and seed = 777L in
  let base, _ = Par.run_trials_timed ~domains:1 ~n ~seed sweep_trial in
  (* Kill shard 1 at its third owned trial (global index 6: shard 1 of 3
     owns [4, 8)), then kill the restarted incarnation — which resumed
     after its trial-5 checkpoint — one trial further in. *)
  let kills =
    [
      { Exec.k_shard = 1; k_phase = 0; k_round = 6; k_incarnation = 0;
        k_hang = false };
      { Exec.k_shard = 1; k_phase = 0; k_round = 7; k_incarnation = 1;
        k_hang = false };
    ]
  in
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.reset ();
      Metrics.set_enabled was)
    (fun () ->
      let dir = fresh_dir () in
      let got, _ =
        Sweep.run_trials_timed (Exec.config ~shards:3 ~kills ~dir ()) ~n ~seed
          sweep_trial
      in
      rm_rf dir;
      checkb "doubly-killed sweep bit-identical to Par" true (got = base);
      let m = Metrics.snapshot () in
      checki "three spawns metered" 3 (Metrics.get m Metrics.shard_spawns);
      checki "two restarts metered" 2 (Metrics.get m Metrics.shard_restarts))

let test_supervisor_sleep_signal_storm () =
  (* Regression: sleep_ms was a single Unix.sleepf call, which a signal
     delivered mid-sleep can cut short on platforms whose sleep is not
     auto-resumed — under a SIGCHLD storm a 60 ms backoff returned almost
     immediately, collapsing the supervisor's restart backoff schedule
     into a hot loop.  The fix re-sleeps the remaining wall time until
     the deadline.  Storm: an interval timer fires SIGALRM every 2 ms,
     whose handler re-delivers SIGCHLD (the signal a reaping supervisor
     actually receives). *)
  let old_chld = Sys.signal Sys.sigchld (Sys.Signal_handle (fun _ -> ())) in
  let old_alrm =
    Sys.signal Sys.sigalrm
      (Sys.Signal_handle (fun _ -> Unix.kill (Unix.getpid ()) Sys.sigchld))
  in
  let storm = { Unix.it_interval = 0.002; it_value = 0.002 } in
  let off = { Unix.it_interval = 0.; it_value = 0. } in
  ignore (Unix.setitimer Unix.ITIMER_REAL storm);
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL off);
      ignore (Sys.signal Sys.sigalrm old_alrm);
      ignore (Sys.signal Sys.sigchld old_chld))
    (fun () ->
      let t0 = Unix.gettimeofday () in
      Supervisor.sleep_ms 60;
      let elapsed = Unix.gettimeofday () -. t0 in
      checkb
        (Printf.sprintf
           "storm-interrupted sleep honors its schedule (%.1f ms)"
           (1000. *. elapsed))
        true
        (elapsed >= 0.055))

let test_supervisor_fleet_of_one () =
  (* The one worker of a one-shard fleet killed: an ordinary death, not
     a fleet-wide one — it restarts and finishes. *)
  let finished, restarts =
    run_lifecycle ~shards:1
      ~plan:(fun ~shard:_ ~incarnation ->
        if incarnation = 0 then `Kill else `Finish)
      ()
  in
  checki "the worker finished on incarnation 1" 1 finished.(0);
  checkb "one restart" true (restarts = [ (0, 1) ]);
  (* Dying on every incarnation spends the budget: transient, like any
     other shard. *)
  match
    run_lifecycle ~shards:1 ~plan:(fun ~shard:_ ~incarnation:_ -> `Exit) ()
  with
  | _ -> Alcotest.fail "expected Supervisor.Failed"
  | exception Supervisor.Failed (Supervisor.Transient, msg) ->
      checks "named by shard" "shard 0: restart budget exhausted" msg

let suite =
  [
    Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
    Alcotest.test_case "frame named errors" `Quick test_frame_named_errors;
    Alcotest.test_case "frame fuzz (mutated bytes)" `Quick
      test_frame_fuzz_mutations;
    Alcotest.test_case "frame incremental prefix decode" `Quick
      test_frame_decode_prefix;
    Alcotest.test_case "frame byte-at-a-time streaming" `Quick
      test_frame_streaming_byte_at_a_time;
    Alcotest.test_case "checkpoint round-trip" `Quick test_ckpt_roundtrip;
    Alcotest.test_case "checkpoint torn writes never observed" `Quick
      test_ckpt_torn_write_never_observed;
    Alcotest.test_case "checkpoint decode fuzz" `Quick test_ckpt_decode_fuzz;
    Alcotest.test_case "router partition properties" `Quick
      test_router_partition_properties;
    Alcotest.test_case "router entry codec + fuzz" `Quick
      test_router_entry_codec;
    Alcotest.test_case "supervisor: kill -9 before first checkpoint" `Quick
      test_supervisor_restart_before_first_checkpoint;
    Alcotest.test_case "supervisor: double kill -9 in one budget" `Quick
      test_supervisor_double_kill_one_budget;
    Alcotest.test_case "supervisor: budget exhaustion is transient" `Quick
      test_supervisor_budget_exhausted_transient;
    Alcotest.test_case "supervisor: fleet-wide death is permanent" `Quick
      test_supervisor_all_dead_permanent;
    Alcotest.test_case "supervisor: hang probes SIGKILL and restart" `Quick
      test_supervisor_hang_probe;
    Alcotest.test_case "supervisor: sleep_ms survives a signal storm" `Quick
      test_supervisor_sleep_signal_storm;
    Alcotest.test_case "kill spec parsing" `Quick test_parse_kill_specs;
    Alcotest.test_case "sharded phases bit-identical (1/2/3/6 shards)" `Quick
      test_exec_identity;
    Alcotest.test_case "kill -9 recovery deterministic, twice" `Quick
      test_exec_kill_recovery_deterministic;
    Alcotest.test_case "sharded sweep identical incl. trace events" `Quick
      test_sweep_identity_with_events;
    Alcotest.test_case "sharded sweep double kill -9 recovery" `Quick
      test_sweep_kill_recovery;
    Alcotest.test_case "supervisor: a fleet of one restarts after kill -9"
      `Quick test_supervisor_fleet_of_one;
  ]
