(* The serve chaos harness (lib/chaos/proxy + serve_chaos): determinism
   of the per-frame fault draw, transparency of the quiet proxy against
   a live daemon, a small end-to-end chaos run, the planted-failure
   shrink (the harness must localize a failure to its guilty fault
   dimension), and the reproducer round-trip.

   NOTE: the harness forks daemon and proxy processes, so this suite
   shares the shard/serve suites' before-any-domain constraint — it is
   registered right after the serve suite in test_main. *)

module Proxy = Ls_chaos.Proxy
module Serve_chaos = Ls_chaos.Serve_chaos
module H = Ls_chaos.Harness
module Protocol = Ls_serve.Protocol

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_decide_deterministic () =
  (* The fault draw is a pure function of (seed, conn, dir, frame): two
     sweeps agree point by point, and the seed actually matters. *)
  let spec =
    {
      (Proxy.quiet 42L) with
      Proxy.corrupt = 0.2;
      truncate = 0.1;
      reset = 0.1;
      duplicate = 0.2;
      delay = 0.2;
      delay_ms = 3;
    }
  in
  let sweep s =
    List.concat_map
      (fun conn ->
        List.concat_map
          (fun dir ->
            List.map
              (fun frame -> Proxy.decide s ~conn ~dir ~frame ~len:64)
              [ 0; 1; 2; 3; 4; 5; 6; 7 ])
          [ 0; 1 ])
      [ 0; 1; 2; 3 ]
  in
  checkb "the same seed replays the same schedule" true
    (sweep spec = sweep spec);
  let other = sweep { spec with Proxy.seed = 43L } in
  checkb "a different seed draws a different schedule" true
    (other <> sweep spec);
  (* The quiet spec never injects anything. *)
  checkb "the quiet spec always passes" true
    (List.for_all (fun a -> a = Proxy.Pass) (sweep (Proxy.quiet 42L)))

let test_gen_requests_deterministic () =
  let a = Serve_chaos.gen_requests ~seed:9L ~n:16 in
  let b = Serve_chaos.gen_requests ~seed:9L ~n:16 in
  checkb "the workload is a pure function of the seed" true (a = b);
  checki "the burst has the requested size" 16 (Array.length a);
  Array.iteri
    (fun i r ->
      checki "ids are the burst index" i r.Protocol.id;
      checki "no deadlines in the chaos burst" 0 r.Protocol.deadline_ms)
    a

let test_reproducer_roundtrip () =
  let sch =
    {
      (Serve_chaos.quiet_schedule 7L) with
      Serve_chaos.net = { (Proxy.quiet 7L) with Proxy.duplicate = 0.1 };
    }
  in
  let summary =
    {
      H.seed = -13L;
      schedules = 4;
      params = { Serve_chaos.requests = 17; sysfault = false };
      zero_fault = None;
      failures =
        [
          {
            H.index = 2;
            f_spec = sch;
            f_violations =
              [ { Serve_chaos.invariant = "rid-integrity"; detail = "x" } ];
            f_shrunk = sch;
            f_shrunk_violations =
              [ { Serve_chaos.invariant = "rid-integrity"; detail = "x" } ];
          };
        ];
    }
  in
  checkb "a summary with failures is not ok" true
    (not (Serve_chaos.ok summary));
  let report = Serve_chaos.reproducer summary in
  checkb "the report names the invariant" true
    (contains report "rid-integrity");
  (match Serve_chaos.parse_reproducer report with
  | Some (seed, schedules, { Serve_chaos.requests; sysfault }) ->
      checkb "the replay line round-trips the seed" true (seed = -13L);
      checki "the replay line round-trips the schedule count" 4 schedules;
      checki "the replay line round-trips the request count" 17 requests;
      checkb "the replay line round-trips the sysfault flag" true
        (sysfault = false)
  | None -> Alcotest.fail "the reproducer must parse back");
  checkb "junk does not parse" true
    (Serve_chaos.parse_reproducer "no replay line here" = None)

let test_quiet_transparency () =
  (* The all-zero schedule through the proxy must be invisible: same
     bytes as the proxy-free baseline, no violations. *)
  let requests = Serve_chaos.gen_requests ~seed:3L ~n:6 in
  let baseline = Serve_chaos.baseline_run requests in
  checki "one baseline response per request" 6 (Array.length baseline);
  match
    Serve_chaos.run_spec ~requests ~baseline (Serve_chaos.quiet_schedule 3L)
  with
  | [] -> ()
  | v :: _ ->
      Alcotest.fail
        (Printf.sprintf "quiet proxy violated %s: %s"
           v.Serve_chaos.invariant v.Serve_chaos.detail)

(* The planted-failure schedule: the duplicate dimension is guilty, the
   rest innocent. *)
let planted_schedule =
  {
    Serve_chaos.net =
      {
        (Proxy.quiet 11L) with
        Proxy.duplicate = 0.05;
        corrupt = 0.05;
        delay = 0.1;
        delay_ms = 2;
      };
    sys = { (Ls_chaos.Sysfault.quiet 11L) with Ls_chaos.Sysfault.eintr = 0.2 };
  }

let planted sch =
  if sch.Serve_chaos.net.Proxy.duplicate > 0. then
    Some
      { Serve_chaos.invariant = "planted"; detail = "duplicate dimension live" }
  else None

(* Shrink under [check] and insist the duplicate dimension survives; on
   failure, name the violations the shrunk schedule still shows. *)
let shrink_keeps_duplicate ~check ~requests ~baseline =
  let shrunk = Serve_chaos.shrink ~check ~requests ~baseline planted_schedule in
  if not (shrunk.Serve_chaos.net.Proxy.duplicate > 0.) then
    Alcotest.failf
      "shrink keeps the guilty dimension: shrunk to %s, violating [%s]"
      (Serve_chaos.describe_schedule shrunk)
      (String.concat "; "
         (List.map
            (fun v -> v.Serve_chaos.invariant ^ ": " ^ v.Serve_chaos.detail)
            (Serve_chaos.run_spec ~check ~requests ~baseline shrunk)));
  shrunk

let test_planted_failure_shrinks () =
  (* Plant a failure that fires exactly when the duplicate dimension is
     live: the shrinker must zero every innocent dimension and keep the
     guilty one. *)
  let requests = Serve_chaos.gen_requests ~seed:5L ~n:4 in
  let baseline = Serve_chaos.baseline_run requests in
  let check = planted in
  let violations =
    Serve_chaos.run_spec ~check ~requests ~baseline planted_schedule
  in
  checkb "the planted invariant fires" true
    (List.exists (fun v -> v.Serve_chaos.invariant = "planted") violations);
  let shrunk = shrink_keeps_duplicate ~check ~requests ~baseline in
  checkb "shrink zeroes the innocent dimensions" true
    (shrunk.Serve_chaos.net.Proxy.corrupt = 0.
    && shrunk.Serve_chaos.net.Proxy.delay = 0.
    && shrunk.Serve_chaos.net.Proxy.truncate = 0.
    && shrunk.Serve_chaos.net.Proxy.reset = 0.);
  checkb "shrink zeroes the innocent syscall dimension" true
    (Ls_chaos.Sysfault.is_quiet shrunk.Serve_chaos.sys)

let test_shrink_ignores_decoy () =
  (* A decoy invariant that fires exactly on the candidates with the
     duplicate dimension zeroed: a shrinker that accepted any violation
     would trade the planted failure for the decoy and drop the guilty
     dimension. *)
  let requests = Serve_chaos.gen_requests ~seed:5L ~n:4 in
  let baseline = Serve_chaos.baseline_run requests in
  let check sch =
    match planted sch with
    | Some v -> Some v
    | None ->
        Some { Serve_chaos.invariant = "decoy"; detail = "duplicate zeroed" }
  in
  ignore (shrink_keeps_duplicate ~check ~requests ~baseline)

let test_chaos_run_small () =
  (* A short full run: baseline, transparency, two generated schedules —
     every serve invariant must hold on the unmodified daemon. *)
  let summary = Serve_chaos.run ~schedules:2 ~requests:8 ~seed:2026L () in
  if not (Serve_chaos.ok summary) then
    Alcotest.fail (Serve_chaos.reproducer summary)

let suite =
  [
    Alcotest.test_case "proxy fault draw is deterministic" `Quick
      test_decide_deterministic;
    Alcotest.test_case "chaos workload is deterministic" `Quick
      test_gen_requests_deterministic;
    Alcotest.test_case "reproducer round-trips" `Quick
      test_reproducer_roundtrip;
    Alcotest.test_case "quiet proxy is transparent" `Quick
      test_quiet_transparency;
    Alcotest.test_case "planted failure shrinks to its dimension" `Quick
      test_planted_failure_shrinks;
    Alcotest.test_case "shrink ignores a decoy invariant" `Quick
      test_shrink_ignores_decoy;
    Alcotest.test_case "serve invariants hold under chaos" `Quick
      test_chaos_run_small;
  ]
