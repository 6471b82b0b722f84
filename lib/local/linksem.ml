(* Shared link-layer semantics: the per-copy fate of one directed
   (round, edge) message under a fault plan, factored out of the
   synchronous executor so the asynchronous one consumes the exact same
   core.  Safe to share because every verdict is a pure function of
   (seed, coordinates): computing a fate in a different execution order
   cannot change it. *)

module Trace = Ls_obs.Trace
module Metrics = Ls_obs.Metrics

type 'm copy = {
  c_index : int;  (* 1-based copy index within the transmission *)
  c_delay : int;  (* verdict delay in logical rounds *)
  c_msg : 'm;  (* payload, possibly corrupted *)
  c_corrupted : bool;
  c_quarantined : bool;  (* corrupted and caught by the digest *)
}

type 'm fate = {
  f_raw : int;  (* raw verdict copy count: 0 dropped, 2 duplicated *)
  f_copies : 'm copy list;  (* ascending copy index *)
}

let fate fp ~round ~src ~dst ?corrupt ?digest msg =
  let raw = Faults.copies fp ~round ~src ~dst in
  let copies =
    List.init raw (fun i ->
        let copy = i + 1 in
        let d = Faults.delay_of fp ~round ~src ~dst ~copy in
        let corrupted_now =
          match corrupt with
          | Some _ -> Faults.corrupted fp ~round ~src ~dst ~copy
          | None -> false
        in
        let m =
          match corrupt with
          | Some f when corrupted_now -> f ~round ~src ~dst msg
          | _ -> msg
        in
        (* Integrity check at the receiver: a digest that no longer matches
           the original's exposes the corruption; equal digests (a genuine
           collision, or no digest at all) let the copy through silently. *)
        let quarantined_now =
          corrupted_now
          && match digest with Some dg -> dg m <> dg msg | None -> false
        in
        {
          c_index = copy;
          c_delay = d;
          c_msg = m;
          c_corrupted = corrupted_now;
          c_quarantined = quarantined_now;
        })
  in
  { f_raw = raw; f_copies = copies }

(* The fate's fault events in the synchronous executor's historical
   order: the drop/duplicate event first, then per copy its delay,
   corrupt and quarantine events.  Pure construction, shared by
   in-process reporting ({!record}) and by {!Ls_shard} workers, who ship
   the list across a process boundary for the parent to replay — one
   source of truth keeps the trace streams byte-identical. *)
let events_of_fate ~round ~src ~dst f =
  let head =
    if f.f_raw = 0 then [ Trace.Fault_drop { round; src; dst } ]
    else if f.f_raw > 1 then
      [ Trace.Fault_duplicate { round; src; dst; copies = f.f_raw } ]
    else []
  in
  let per_copy c =
    (if c.c_delay > 0 then
       [ Trace.Fault_delay { round; src; dst; copy = c.c_index; delay = c.c_delay } ]
     else [])
    @ (if c.c_corrupted then
         [ Trace.Fault_corrupt { round; src; dst; copy = c.c_index } ]
       else [])
    @
    if c.c_quarantined then
      [ Trace.Quarantine { round; src; dst; copy = c.c_index } ]
    else []
  in
  head @ List.concat_map per_copy f.f_copies

(* The metric bump matching each fault event — the mapping {!record} uses,
   exposed so a parent process replaying shipped events bumps exactly the
   counters the in-process path would have. *)
let record_event_metrics = function
  | Trace.Fault_drop _ -> Metrics.bump Metrics.drops
  | Trace.Fault_duplicate _ -> Metrics.bump Metrics.duplicates
  | Trace.Fault_delay _ -> Metrics.bump Metrics.delays
  | Trace.Fault_corrupt _ -> Metrics.bump Metrics.corruptions
  | Trace.Quarantine _ -> Metrics.bump Metrics.quarantines
  | _ -> ()

let record ?trace ~metrics ~round ~src ~dst f =
  match (trace, metrics) with
  | None, false -> ()
  | _ ->
      List.iter
        (fun ev ->
          (match trace with Some s -> Trace.emit s ev | None -> ());
          if metrics then record_event_metrics ev)
        (events_of_fate ~round ~src ~dst f)

(* A node is down for the half-open interval [crash_at, recover_at). *)
let alive ~crash_at ~recover_at ~abs v =
  abs < crash_at.(v) || abs >= recover_at.(v)

(* Inbox slot ordering, shared by both executors.  Fresh copies of a slot
   are merged in ascending (send round, sender id, copy index); copies
   carried in from an earlier phase are merged BEFORE the fresh ones, in
   descending key order (the fold-then-reverse of the original delivery
   loop — a historical accident, but one the bit-identity contract now
   pins down). *)
let compare_fresh (s1, v1, c1) (s2, v2, c2) = compare (s1, v1, c1) (s2, v2, c2)
let compare_parked a b = compare_fresh b a
