(* Observability demo: watching the LOCAL runtime work.

   A Trace.t records every broadcast phase, every fault verdict actually
   applied, every supervision attempt and every decomposition as typed
   events; Metrics keeps the aggregate counters — one registry of named
   counters, printed at the end as one line per group with a non-zero
   counter.  Three scenes:

     1. a traced faulty flood — what the event stream looks like, and
        the delayed-copy carry-over across a phase boundary;
     2. supervised ball collection, watched through trace + metrics;
     3. a traced chain-rule sampler run (decomposition stats events).

   Run with:  dune exec examples/observability_demo.exe *)

module Generators = Ls_graph.Generators
module Rng = Ls_rng.Rng
module Network = Ls_local.Network
module Faults = Ls_local.Faults
module Resilient = Ls_local.Resilient
module Trace = Ls_obs.Trace
module Metrics = Ls_obs.Metrics
module Models = Ls_gibbs.Models
open Ls_core

let count_events pred trace =
  List.length (List.filter pred (Trace.events trace))

let () =
  Metrics.set_enabled true;

  (* --- Scene 1: a traced faulty flood -------------------------------- *)
  let n = 12 in
  let g = Generators.cycle n in
  let faults = Faults.make ~seed:5L ~drop:0.15 ~delay:0.4 ~max_delay:3 () in
  Printf.printf "scene 1: flooding C%d under %s\n" n (Faults.describe faults);
  let trace = Trace.make () in
  let net = Network.create ~faults ~trace g ~inputs:(Array.init n Fun.id) ~seed:1L in
  let _ = Network.flood_views net ~radius:2 in
  Printf.printf
    "  flood #1: %d events (%d drops, %d delays), %d copies parked past the \
     phase end\n"
    (Trace.total trace)
    (count_events (function Trace.Fault_drop _ -> true | _ -> false) trace)
    (count_events (function Trace.Fault_delay _ -> true | _ -> false) trace)
    (Network.pending_count net);
  (* The parked copies are not lost: the next flood on this network
     delivers them at their absolute due round. *)
  let _ = Network.flood_views net ~radius:2 in
  Printf.printf "  flood #2 ran; %d copies still in flight\n"
    (Network.pending_count net);
  List.iter
    (function
      | Trace.Phase_end { label; clock; rounds; bits; messages } ->
          Printf.printf
            "  phase %-16s clock=%d rounds=%d bits=%d messages=%d\n" label
            clock rounds bits messages
      | _ -> ())
    (Trace.events trace);

  (* --- Scene 2: supervised collection, watched ------------------------ *)
  Printf.printf "\nscene 2: supervised ball collection\n";
  let policy = Resilient.policy ~retry_budget:6 () in
  let _, _, report = Resilient.collect_views ~trace net ~policy ~radius:2 in
  Printf.printf "  %s\n" (Resilient.describe report);
  Printf.printf "  attempts traced: %d, backoffs traced: %d\n"
    (count_events (function Trace.Attempt _ -> true | _ -> false) trace)
    (count_events (function Trace.Backoff _ -> true | _ -> false) trace);

  (* --- Scene 3: a traced sampler run ---------------------------------- *)
  Printf.printf "\nscene 3: chain-rule sampler, decomposition traced\n";
  let inst = Instance.unpinned (Models.hardcore g ~lambda:1.0) in
  let oracle = Inference.ssm_oracle ~t:2 inst in
  let r = Local_sampler.sample oracle ~trace inst ~seed:3L in
  List.iter
    (function
      | Trace.Decomposition { colors; clusters; failures; rounds; _ } ->
          Printf.printf
            "  decomposition: %d colors, %d clusters, %d failures, %d rounds\n"
            colors clusters failures rounds
      | _ -> ())
    (Trace.events trace);
  Printf.printf "  sample ok=%b over %d rounds\n" r.Local_sampler.success
    r.Local_sampler.rounds;

  (* Any counter reads back from a snapshot through its registry handle;
     the table is a loop over the same registry. *)
  let s = Metrics.snapshot () in
  Printf.printf "\nretries per supervised attempt: %d/%d\n"
    (Metrics.get s Metrics.retries)
    (Metrics.get s Metrics.attempts);
  Metrics.print stdout s
