(* The observability layer's own contracts: ring-buffer retention, JSONL
   shape, the determinism guarantees (domain-count invariance via
   capture/replay, fault-seed invariance at zero rates), metrics counter
   aggregation, and the message meter of a zero-fault flood. *)

module Trace = Ls_obs.Trace
module Metrics = Ls_obs.Metrics
module Generators = Ls_graph.Generators
module Graph = Ls_graph.Graph
module Network = Ls_local.Network
module Faults = Ls_local.Faults
module Par = Ls_par.Par
module Rng = Ls_rng.Rng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* Restore the ambient sink and the domain count whatever a test does. *)
let with_ambient trace f =
  Trace.install trace;
  Fun.protect ~finally:Trace.uninstall f

let with_domains k f =
  let saved = Par.domains () in
  Par.set_domains k;
  Fun.protect ~finally:(fun () -> Par.set_domains saved) f

let mark l = Trace.Mark { label = l }

let test_ring_retention () =
  let t = Trace.make ~capacity:4 () in
  for i = 0 to 9 do
    Trace.emit t (mark (string_of_int i))
  done;
  checki "total counts evicted events too" 10 (Trace.total t);
  checkb "ring keeps the last capacity events, oldest first" true
    (Trace.events t = List.map (fun i -> mark (string_of_int i)) [ 6; 7; 8; 9 ])

let test_jsonl_shape () =
  let path = Filename.temp_file "trace" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let t = Trace.make ~path () in
  Trace.emit t (Trace.Phase_start { label = {|flood "q\w|}; clock = 3 });
  Trace.emit t (Trace.Fault_delay { round = 1; src = 2; dst = 3; copy = 1; delay = 2 });
  Trace.close t;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let strip line =
    (* "ts" is always the first field, so dropping up to the first comma
       is the documented sed recipe. *)
    checkb "line opens with the ts field" true
      (String.length line > 6 && String.sub line 0 6 = {|{"ts":|});
    match String.index_opt line ',' with
    | Some i -> "{" ^ String.sub line (i + 1) (String.length line - i - 1)
    | None -> line
  in
  match List.rev_map strip !lines with
  | [ l1; l2 ] ->
      Alcotest.(check string)
        "escaped phase_start line"
        {|{"ev":"phase_start","label":"flood \"q\\w","clock":3}|} l1;
      Alcotest.(check string)
        "delay line"
        {|{"ev":"delay","round":1,"src":2,"dst":3,"copy":1,"delay":2}|} l2
  | ls -> Alcotest.failf "expected 2 JSONL lines, got %d" (List.length ls)

(* A seeded workload with real parallel structure: each trial floods a
   faulty network (drops + delays fire trace events from inside the
   runtime) and stamps a trial-local mark. *)
let traced_workload () =
  ignore
    (Par.run_trials ~n:8 ~seed:77L (fun rng ->
         let tag = Int64.to_string (Rng.bits64 rng) in
         Trace.to_ambient (mark tag);
         let g = Generators.cycle 8 in
         let faults =
           Faults.make ~seed:(Rng.bits64 rng) ~drop:0.2 ~delay:0.3
             ~max_delay:2 ()
         in
         let net =
           Network.create ~faults g ~inputs:(Array.make 8 ()) ~seed:5L
         in
         ignore (Network.flood_views net ~radius:2)))

let test_trace_domain_invariant () =
  (* The determinism contract's core claim: the event stream is a pure
     function of the seeds, independent of the domain count.  capture +
     index-ordered replay in Ls_par is what makes this hold. *)
  let run k =
    let t = Trace.make () in
    with_ambient t (fun () -> with_domains k traced_workload);
    Trace.events t
  in
  let e1 = run 1 and e4 = run 4 in
  checkb "some events were produced" true (List.length e1 > 8);
  checkb "event streams identical at 1 vs 4 domains" true (e1 = e4)

let test_trace_seed_invariant_without_faults () =
  (* With every fault rate at zero the plan's seed is inert: no fault
     event can fire, so traces at different fault seeds coincide (phase
     events only). *)
  let run fseed =
    let t = Trace.make () in
    let faults = Faults.make ~seed:fseed () in
    let net =
      Network.create ~faults ~trace:t (Generators.cycle 8)
        ~inputs:(Array.make 8 ()) ~seed:6L
    in
    ignore (Network.flood_views net ~radius:2);
    Trace.events t
  in
  let a = run 1L and b = run 999L in
  checkb "zero-rate traces are phase bookends only" true
    (List.for_all
       (function Trace.Phase_start _ | Trace.Phase_end _ -> true | _ -> false)
       a);
  checkb "fault seed leaves the zero-rate trace unchanged" true (a = b)

let test_zero_fault_message_meter () =
  (* Fault-free flood: one copy per directed edge per round, so the meter
     reads exactly radius * 2m. *)
  let g = Generators.cycle 9 in
  let net = Network.create g ~inputs:(Array.make 9 ()) ~seed:7L in
  ignore (Network.flood_views net ~radius:3);
  checki "messages = radius * 2m" (3 * 2 * Graph.m g) (Network.messages net)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let print_to_string snap =
  let file = Filename.temp_file "metrics" ".txt" in
  Out_channel.with_open_text file (fun oc -> Metrics.print oc snap);
  let text = In_channel.with_open_text file In_channel.input_all in
  Sys.remove file;
  text

let test_metrics_aggregation () =
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Metrics.reset ();
      Metrics.set_enabled false)
  @@ fun () ->
  (* Generic over the registry, never a hand-picked few counters. *)
  let names = List.map Metrics.name Metrics.counters in
  checki "counter names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  checkb "the registry is in name order" true (names = List.sort compare names);
  (* Snapshot layout is the registry's, whatever the recording order. *)
  let valued = List.mapi (fun i c -> (c, i + 1)) Metrics.counters in
  let record_all order =
    Metrics.reset ();
    List.iter (fun (c, v) -> Metrics.add c v) order;
    Metrics.snapshot ()
  in
  let forward = record_all valued and backward = record_all (List.rev valued) in
  checkb "snapshot order is independent of recording order" true
    (forward = backward
    && Marshal.to_string forward [] = Marshal.to_string backward []);
  (* Sums: k recorded as 1 + (k - 1) reads k; absorbing a snapshot of
     itself doubles every counter. *)
  let k = 7 in
  Metrics.reset ();
  List.iter
    (fun c ->
      Metrics.bump c;
      Metrics.add c (k - 1))
    Metrics.counters;
  let once = Metrics.snapshot () in
  Metrics.absorb once;
  let doubled = Metrics.snapshot () in
  List.iter
    (fun c ->
      checki (Metrics.name c ^ " accumulates") k (Metrics.get once c);
      checki (Metrics.name c ^ " doubles under absorb") (2 * k)
        (Metrics.get doubled c))
    Metrics.counters;
  let back : Metrics.snapshot =
    Marshal.from_string (Marshal.to_string doubled []) 0
  in
  checkb "a snapshot survives a Marshal round-trip" true (back = doubled);
  let text = print_to_string doubled in
  List.iter
    (fun c ->
      checkb (Metrics.name c ^ " is printed") true
        (contains text (Printf.sprintf " %s %d" (Metrics.name c) (2 * k))))
    Metrics.counters;
  (* A group prints iff one of its counters is non-zero — whichever one. *)
  Metrics.reset ();
  Metrics.bump Metrics.shard_probes;
  Metrics.bump Metrics.degraded_exits;
  let text = print_to_string (Metrics.snapshot ()) in
  checkb "a probe-only run prints its shards line" true
    (contains text "shards: shard_spawns 0  shard_restarts 0  shard_probes 1");
  checkb "degraded exits alone print the resource-faults line" true
    (contains text "degraded_exits 1");
  checkb "all-zero groups stay silent" false (contains text "serve:");
  (* The pool group: sums, a max, and an index-wise per-domain split. *)
  Metrics.reset ();
  Metrics.record_batch ~items:6 ~per_worker:[| 2; 4 |];
  Metrics.record_batch ~items:3 ~per_worker:[| 3 |];
  let pool = (Metrics.snapshot ()).Metrics.pool in
  checki "batches" 2 pool.Metrics.batches;
  checki "items" 9 pool.Metrics.items;
  checki "max queue" 6 pool.Metrics.max_queue;
  checkb "per-domain adds index-wise" true
    (pool.Metrics.per_domain = [| 5; 4 |]);
  Metrics.reset ();
  checkb "reset zeroes every counter and the pool" true
    (Metrics.snapshot () = Metrics.empty)

let test_metrics_disabled_is_inert () =
  Metrics.reset ();
  checkb "metrics start disabled in tests" false (Metrics.enabled ());
  List.iter Metrics.bump Metrics.counters;
  Metrics.record_batch ~items:3 ~per_worker:[| 3 |];
  Metrics.record_latency 1.;
  checkb "disabled recorders do not count" true
    (Metrics.snapshot () = Metrics.empty)

let test_metrics_match_trace_counts () =
  (* The two observers agree: aggregate counters equal the event tallies
     of the same run. *)
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Metrics.reset ();
      Metrics.set_enabled false)
  @@ fun () ->
  Metrics.reset ();
  let t = Trace.make () in
  let faults = Faults.make ~seed:21L ~drop:0.2 ~delay:0.3 ~max_delay:2 () in
  let net =
    Network.create ~faults ~trace:t (Generators.cycle 10)
      ~inputs:(Array.make 10 ()) ~seed:22L
  in
  ignore (Network.flood_views net ~radius:2);
  let s = Metrics.snapshot () in
  let count p = List.length (List.filter p (Trace.events t)) in
  checki "drops agree"
    (count (function Trace.Fault_drop _ -> true | _ -> false))
    (Metrics.get s Metrics.drops);
  checki "delays agree"
    (count (function Trace.Fault_delay _ -> true | _ -> false))
    (Metrics.get s Metrics.delays);
  checki "phases agree"
    (count (function Trace.Phase_end _ -> true | _ -> false))
    (Metrics.get s Metrics.phases)

let test_snapshot_batch_race_hammer () =
  (* The pool-utilization group (batches / items / max_queue / per_domain)
     must be updated atomically with respect to snapshot and reset: a
     reader hammering snapshots against a domain recording batches must
     never observe a torn group — the batch count without its per-domain
     split.  Mirrors the PR-3 pool-resize hammer. *)
  Metrics.set_enabled true;
  let stop = Atomic.make false in
  let recorder =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Metrics.record_batch ~items:3 ~per_worker:[| 1; 2 |]
        done)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join recorder;
      Metrics.reset ();
      Metrics.set_enabled false)
    (fun () ->
      let torn = ref 0 in
      for i = 1 to 5000 do
        let s = (Metrics.snapshot ()).Metrics.pool in
        let pd_sum = Array.fold_left ( + ) 0 s.Metrics.per_domain in
        if pd_sum <> s.Metrics.items then incr torn;
        if s.Metrics.items <> 3 * s.Metrics.batches then incr torn;
        if s.Metrics.batches > 0 && s.Metrics.max_queue <> 3 then incr torn;
        (* Reset mid-flight: the group must zero as one unit too. *)
        if i mod 1000 = 0 then Metrics.reset ()
      done;
      checki "no torn pool-utilization snapshots" 0 !torn)

let suite =
  [
    Alcotest.test_case "ring retention + total" `Quick test_ring_retention;
    Alcotest.test_case "JSONL shape and escaping" `Quick test_jsonl_shape;
    Alcotest.test_case "trace invariant across domain counts" `Quick
      test_trace_domain_invariant;
    Alcotest.test_case "zero-rate trace ignores fault seed" `Quick
      test_trace_seed_invariant_without_faults;
    Alcotest.test_case "zero-fault message meter" `Quick
      test_zero_fault_message_meter;
    Alcotest.test_case "metrics aggregate and reset" `Quick
      test_metrics_aggregation;
    Alcotest.test_case "disabled metrics are inert" `Quick
      test_metrics_disabled_is_inert;
    Alcotest.test_case "metrics agree with trace tallies" `Quick
      test_metrics_match_trace_counts;
    Alcotest.test_case "snapshot vs record_batch hammer" `Quick
      test_snapshot_batch_race_hammer;
  ]
