(* The asynchronous executor's contracts.

   Synchronizer mode: under arbitrary delay laws and clock skew, node
   states, every network meter, and the payload trace stream are
   bit-identical to the synchronous executor — checked across fault
   plans that exercise drops, duplication, delays (with cross-phase
   carry), corruption + quarantine, partitions, and crash-recovery.

   Adaptive mode: never a wrong answer.  Views are subsets of the
   synchronous ones (truthful records only), loss surfaces as
   incompleteness, and the conservation identity
   messages = delivered + pending + quarantined + dead letters
   holds throughout and at teardown (the finish regression). *)

module Trace = Ls_obs.Trace
module Metrics = Ls_obs.Metrics
module Generators = Ls_graph.Generators
module Graph = Ls_graph.Graph
module Network = Ls_local.Network
module Faults = Ls_local.Faults
module Async = Ls_local.Async

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let meters net =
  ( Network.messages net,
    Network.bits net,
    Network.delivered_count net,
    Network.dead_letter_count net,
    Network.quarantined_count net,
    Network.pending_count net,
    Network.rounds net,
    Network.clock net )

let conserved net =
  Network.messages net
  = Network.delivered_count net + Network.pending_count net
    + Network.quarantined_count net + Network.dead_letter_count net

(* Fault plans covering every mechanism, combined with each timing law
   and a spread of skews.  Rates are high on purpose: empty-fate plans
   would make the bit-identity check vacuous. *)
let plans =
  [
    ("lossy-uniform", Faults.make ~seed:101L ~drop:0.25 ~duplicate:0.2 ());
    ( "delay-exp",
      Faults.make ~seed:102L ~delay:0.5 ~max_delay:4 ~law:Faults.Exponential () );
    ( "delay-heavy-skew",
      Faults.make ~seed:103L ~drop:0.1 ~delay:0.4 ~max_delay:3 ~law:Faults.Heavy
        ~skew:0.5 ~reorder:0.2 () );
    ( "corrupt",
      Faults.make ~seed:104L ~corrupt:0.3 ~duplicate:0.15 ~skew:0.25 () );
    ( "crash-recovery",
      Faults.make ~seed:105L ~crash:0.3 ~crash_horizon:5 ~recovery:0.7
        ~recovery_delay:2 ~drop:0.15 ~delay:0.3 ~max_delay:3 () );
    ( "partitioned",
      Faults.make ~seed:106L
        ~partitions:[ (2, 4, 2) ]
        ~drop:0.1 ~law:Faults.Exponential ~skew:1.0 () );
  ]

let graphs = [ ("cycle12", Generators.cycle 12); ("grid4x4", Generators.grid 4 4) ]

(* One flood, then a second one on the same network: the second exercises
   cross-phase carry of delayed copies, the trickiest ordering contract. *)
let run_floods ~async net =
  let t = Trace.make () in
  let views1 =
    match async with
    | None -> Network.flood_views ~trace:t net ~radius:2
    | Some cfg -> Async.flood_views cfg ~trace:t net ~radius:2
  in
  let views2 =
    match async with
    | None -> Network.flood_views ~trace:t net ~radius:3
    | Some cfg -> Async.flood_views cfg ~trace:t net ~radius:3
  in
  (views1, views2, Trace.events t)

let test_synchronizer_bit_identity () =
  List.iter
    (fun (gname, g) ->
      List.iter
        (fun (pname, faults) ->
          let inputs = Array.make (Graph.n g) () in
          let mk () = Network.create ~faults g ~inputs ~seed:9L in
          let net_s = mk () and net_a = mk () in
          let v1s, v2s, ev_s = run_floods ~async:None net_s in
          let cfg = Async.make ~mode:Async.Synchronizer () in
          let v1a, v2a, ev_a = run_floods ~async:(Some cfg) net_a in
          let tag = gname ^ "/" ^ pname in
          checkb (tag ^ ": first-flood views identical") true (v1s = v1a);
          checkb (tag ^ ": second-flood (carry) views identical") true (v2s = v2a);
          checkb (tag ^ ": meters identical") true (meters net_s = meters net_a);
          checkb (tag ^ ": payload traces byte-identical") true (ev_s = ev_a);
          checkb (tag ^ ": conservation (sync)") true (conserved net_s);
          checkb (tag ^ ": conservation (async)") true (conserved net_a))
        plans)
    graphs

let test_synchronizer_zero_faults_matches_sync () =
  (* Timing-only plans (is_none true): every synchronous verdict is one
     undelayed copy; the event engine must reproduce that run exactly. *)
  let g = Generators.cycle 10 in
  let faults = Faults.make ~seed:42L ~law:Faults.Heavy ~skew:2.0 ~reorder:0.3 () in
  checkb "timing-only plan counts as no faults" true (Faults.is_none faults);
  let inputs = Array.make 10 () in
  let net_s = Network.create ~faults g ~inputs ~seed:3L in
  let net_a = Network.create ~faults g ~inputs ~seed:3L in
  let v1s, v2s, ev_s = run_floods ~async:None net_s in
  let cfg = Async.make () in
  let v1a, v2a, ev_a = run_floods ~async:(Some cfg) net_a in
  checkb "views identical" true (v1s = v1a && v2s = v2a);
  checkb "meters identical" true (meters net_s = meters net_a);
  checkb "traces identical" true (ev_s = ev_a)

let test_async_deterministic () =
  (* The simulation is a pure function of the seeds: repeated runs agree
     event for event, in both modes. *)
  List.iter
    (fun mode ->
      let run () =
        let faults =
          Faults.make ~seed:77L ~drop:0.2 ~delay:0.3 ~max_delay:3
            ~law:Faults.Exponential ~skew:0.8 ()
        in
        let net =
          Network.create ~faults (Generators.cycle 10) ~inputs:(Array.make 10 ())
            ~seed:8L
        in
        let ctl = Trace.make () in
        let cfg = Async.make ~mode ~control_trace:ctl () in
        let t = Trace.make () in
        let views = Async.flood_views cfg ~trace:t net ~radius:2 in
        (views, meters net, Trace.events t, Trace.events ctl,
         Async.stats cfg)
      in
      checkb
        (Async.mode_name mode ^ " rerun is event-for-event identical")
        true
        (run () = run ()))
    [ Async.Synchronizer; Async.Adaptive ]

let test_adaptive_soundness () =
  (* Adaptive floods may lose information but never invent it: every
     record a node holds belongs to its true radius-2 ball (it may hold
     MORE than the faulty synchronous run — retransmissions recover
     drops — but never an untruthful record), distance estimates never
     undershoot the truth, and conservation holds throughout. *)
  let g = Generators.grid 4 4 in
  let n = Graph.n g in
  List.iter
    (fun (pname, faults) ->
      let inputs = Array.make n () in
      let net_a = Network.create ~faults g ~inputs ~seed:5L in
      let cfg =
        Async.make ~mode:Async.Adaptive ~timeout_base:0.5 ~max_retransmits:1 ()
      in
      let views_a = Async.flood_views cfg ~trace:(Trace.make ()) net_a ~radius:2 in
      Array.iteri
        (fun v (va : _ Network.view) ->
          let true_ball = Graph.ball g v 2 in
          let true_dist = Graph.bfs_distances g v in
          let in_ball u = Array.exists (fun w -> w = u) true_ball in
          checkb
            (pname ^ ": adaptive view is a subset of the true ball")
            true
            (Array.for_all in_ball va.Network.vertices);
          checkb
            (pname ^ ": flooded distances never undershoot the truth")
            true
            (Array.for_all2
               (fun o d -> d >= true_dist.(o))
               va.Network.vertices va.Network.dist_center))
        views_a;
      checkb (pname ^ ": conservation under adaptive execution") true
        (conserved net_a))
    plans

let test_adaptive_timeouts_fire_and_recover () =
  (* A seriously lossy link forces the timeout/nack/retransmit path; with
     a generous retry cap the flood should still complete most views, and
     the stats must show the machinery actually ran. *)
  let g = Generators.cycle 8 in
  let faults = Faults.make ~seed:31L ~drop:0.3 () in
  let net = Network.create ~faults g ~inputs:(Array.make 8 ()) ~seed:4L in
  let cfg =
    Async.make ~mode:Async.Adaptive ~timeout_base:2.0 ~max_retransmits:8 ()
  in
  let views = Async.flood_views cfg net ~radius:2 in
  let st = Async.stats cfg in
  checkb "timeouts fired" true (st.Async.timeouts > 0);
  checkb "retransmissions hit the wire" true (st.Async.retransmits > 0);
  checkb "conservation holds" true (conserved net);
  (* Retransmissions recover what first transmissions lost: with drop 0.3
     and 4 retries, completing every view is overwhelmingly likely. *)
  let complete =
    Array.for_all (fun v -> Network.view_is_complete net v) views
  in
  checkb "retransmissions recovered all views" true complete

let test_control_plane_separation () =
  (* With a control sink attached, protocol events (acks, barriers) land
     there — and only there: the payload stream must stay byte-identical
     to a run without any control sink. *)
  let run ctl =
    let faults = Faults.make ~seed:61L ~drop:0.2 ~delay:0.3 ~max_delay:2 () in
    let net =
      Network.create ~faults (Generators.cycle 9) ~inputs:(Array.make 9 ())
        ~seed:2L
    in
    let cfg = Async.make ?control_trace:ctl () in
    let t = Trace.make () in
    ignore (Async.flood_views cfg ~trace:t net ~radius:2);
    Trace.events t
  in
  let ctl = Trace.make () in
  let with_ctl = run (Some ctl) and without = run None in
  checkb "payload stream unchanged by the control sink" true (with_ctl = without);
  let count p = List.length (List.filter p (Trace.events ctl)) in
  checkb "acks reached the control sink" true
    (count (function Trace.Ack _ -> true | _ -> false) > 0);
  checkb "barriers reached the control sink" true
    (count (function Trace.Barrier _ -> true | _ -> false) > 0);
  checkb "no payload events leaked into the control sink" true
    (count (function
       | Trace.Ack _ | Trace.Barrier _ | Trace.Timeout _ | Trace.Skew _ -> false
       | _ -> true)
    = 0)

let test_async_metrics_recorded () =
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Metrics.reset ();
      Metrics.set_enabled false)
  @@ fun () ->
  Metrics.reset ();
  let faults = Faults.make ~seed:71L ~drop:0.25 ~law:Faults.Exponential () in
  let net =
    Network.create ~faults (Generators.cycle 8) ~inputs:(Array.make 8 ()) ~seed:1L
  in
  let cfg = Async.make ~mode:Async.Adaptive ~timeout_base:1.0 () in
  ignore (Async.flood_views cfg net ~radius:2);
  let s = Metrics.snapshot () in
  let st = Async.stats cfg in
  checki "timeout metric matches stats" st.Async.timeouts
    (Metrics.get s Metrics.timeouts);
  checki "retransmit metric matches stats" st.Async.retransmits
    (Metrics.get s Metrics.retransmits);
  checki "barrier metric matches stats" st.Async.barriers
    (Metrics.get s Metrics.barriers);
  checki "control metric matches stats" st.Async.control_msgs
    (Metrics.get s Metrics.control_msgs);
  checkb "latency histogram populated" true
    (Array.fold_left ( + ) 0 s.Metrics.latency_hist > 0)

let test_finish_teardown_accounting () =
  (* Satellite regression: a delay-heavy plan strands copies past the last
     phase's end; finish must migrate them to dead letters so conservation
     holds at teardown with pending = 0.  And finish is idempotent. *)
  let faults = Faults.make ~seed:81L ~delay:0.8 ~max_delay:6 () in
  let net =
    Network.create ~faults (Generators.cycle 10) ~inputs:(Array.make 10 ())
      ~seed:7L
  in
  ignore (Network.flood_views net ~radius:2);
  checkb "the plan strands copies past the phase end" true
    (Network.pending_count net > 0);
  checkb "conservation holds before teardown" true (conserved net);
  let stranded = Network.pending_count net in
  let dead0 = Network.dead_letter_count net in
  Network.finish net;
  checki "teardown leaves no pending copies" 0 (Network.pending_count net);
  checki "stranded copies became dead letters" (dead0 + stranded)
    (Network.dead_letter_count net);
  checkb "conservation holds at teardown" true (conserved net);
  Network.finish net;
  checki "finish is idempotent" (dead0 + stranded) (Network.dead_letter_count net)

let suite =
  [
    Alcotest.test_case "synchronizer bit-identity across plans and laws" `Quick
      test_synchronizer_bit_identity;
    Alcotest.test_case "synchronizer matches zero-fault sync run" `Quick
      test_synchronizer_zero_faults_matches_sync;
    Alcotest.test_case "async executor is deterministic" `Quick
      test_async_deterministic;
    Alcotest.test_case "adaptive mode never invents records" `Quick
      test_adaptive_soundness;
    Alcotest.test_case "adaptive timeouts fire and recover" `Quick
      test_adaptive_timeouts_fire_and_recover;
    Alcotest.test_case "control plane never touches the payload trace" `Quick
      test_control_plane_separation;
    Alcotest.test_case "async metrics agree with executor stats" `Quick
      test_async_metrics_recorded;
    Alcotest.test_case "finish migrates stranded copies to dead letters" `Quick
      test_finish_teardown_accounting;
  ]
