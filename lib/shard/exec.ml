(* Sharded execution of faulty broadcast phases across worker OS
   processes — the transport {!Ls_local.Network.set_transport} runs.

   {b Architecture.}  The phase forks one worker per shard {e inside}
   the transport call, so the phase's [init]/[emit]/[merge] closures,
   the fault plan and the carried-in state are all in scope in every
   child via fork — nothing is configured over the wire.  Each worker
   owns a contiguous vertex block ({!Router.range}) and simulates only
   its own vertices; cross-shard copies travel through the parent in a
   per-round batch/deliver barrier, which preserves synchronous
   semantics exactly (a copy with delay 0 still arrives in its send
   round).

   {b Why this is bit-identical to the in-process executor.}  Every
   fault verdict is a pure function of (seed, round, src, dst, copy), so
   workers recompute fates independently and agree with what the
   single-process run would have computed.  Delivery order inside an
   inbox slot is fixed by the {!Ls_local.Linksem} comparators — parked
   carry-ins descending, fresh copies ascending (send, src, copy) — so
   it does not depend on message arrival interleaving.  Fault events are
   shipped back keyed by (round, src, neighbor index) and replayed by
   the parent in exactly the in-process emission order, interleaved with
   the partition/crash/checkpoint/restore bookkeeping events the parent
   reconstructs locally (it owns the crash tables).  Meters are summed
   counter deltas.  The one intentional difference: shard lifecycle
   events (spawn/restart) appear in the trace, which single-process runs
   never emit — CI strips them alongside timestamps when diffing.

   {b Kill -9 recovery.}  After every completed round a worker writes an
   atomic checkpoint ({!Ckpt}).  When a worker dies, the supervisor
   re-forks it; the new incarnation restores the checkpoint and replays
   from the next round, re-sending batches the parent may already have.
   The parent keeps all received batches, so a duplicate is checked
   against the original (same verdict coordinates — the determinism
   check) and answered with the same stored deliveries; healthy shards,
   blocked at the barrier, never observe the crash.  Kill specs let the
   CLI and chaos harness inject real [kill -9] (or a hang) at an exact
   (shard, phase, round, incarnation) coordinate. *)

module Network = Ls_local.Network
module Linksem = Ls_local.Linksem
module Faults = Ls_local.Faults
module Graph = Ls_graph.Graph
module Trace = Ls_obs.Trace
module Metrics = Ls_obs.Metrics
module Splitmix = Ls_rng.Splitmix

(* {1 Kill specs} *)

type kill_spec = {
  k_shard : int;
  k_phase : int;
  k_round : int;
  k_incarnation : int;
  k_hang : bool;
}

let parse_kill_specs s =
  let parse_one part =
    let fields = String.split_on_char ':' (String.trim part) in
    let fields, hang =
      match List.rev fields with
      | "hang" :: rest -> (List.rev rest, true)
      | _ -> (fields, false)
    in
    match List.map int_of_string_opt fields with
    | [ Some sh; Some ph; Some r ] ->
        Ok { k_shard = sh; k_phase = ph; k_round = r; k_incarnation = 0; k_hang = hang }
    | [ Some sh; Some ph; Some r; Some inc ] ->
        Ok { k_shard = sh; k_phase = ph; k_round = r; k_incarnation = inc; k_hang = hang }
    | _ ->
        Error
          (Printf.sprintf
             "bad kill spec %S (expected SHARD:PHASE:ROUND[:INCARNATION][:hang])"
             part)
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: ps -> ( match parse_one p with Ok k -> go (k :: acc) ps | Error _ as e -> e)
  in
  go []
    (List.filter
       (fun p -> String.trim p <> "")
       (String.split_on_char ',' s))

let kill_matches kills ~shard ~phase ~round ~incarnation =
  List.find_opt
    (fun k ->
      k.k_shard = shard && k.k_phase = phase && k.k_round = round
      && k.k_incarnation = incarnation)
    kills

(* A matched kill really is SIGKILL to self — the recovery story is
   exercised against the genuine article, not a simulated exit. *)
let fire_kill k =
  if k.k_hang then
    while true do
      Unix.sleep 3600
    done;
  Unix.kill (Unix.getpid ()) Sys.sigkill;
  (* Unreachable; SIGKILL cannot be handled. *)
  Unix._exit 127

(* {1 Configuration} *)

type config = {
  shards : int;
  kills : kill_spec list;
  dir : string;
  policy : Supervisor.policy;
  ckpt_every : int;
}

let config ?(kills = []) ?dir ?(policy = Supervisor.default_policy)
    ?(ckpt_every = 1) ~shards () =
  if shards < 1 then invalid_arg "Exec.config: shards must be >= 1";
  if ckpt_every < 1 then invalid_arg "Exec.config: ckpt_every must be >= 1";
  {
    shards;
    kills;
    dir = (match dir with Some d -> d | None -> Ckpt.default_dir ());
    policy;
    ckpt_every;
  }

(* Phases are numbered process-globally, in execution order: the
   coordinate kill specs and checkpoints are keyed by. *)
let phase_counter = Atomic.make 0
let reset_phase_counter () = Atomic.set phase_counter 0

(* {1 Wire protocol} *)

let k_batch = 1 (* worker -> parent: a = round, payload = cross entries *)
let k_deliver = 2 (* parent -> worker: a = round, payload = entries for it *)
let k_done = 3 (* worker -> parent: payload = marshaled summary *)

type 's ckpt_change = Unchanged | Cleared | Set of 's

(* End-of-phase result for one shard.  States and parked payloads are
   raw ['m]/['s] values: both ends are forked copies of one binary, so
   [Marshal] round-trips them (with [Closures] — phase states are
   caller-typed and may capture functions). *)
type ('m, 's) summary = {
  sm_states : 's array;  (* owned block, index v - lo *)
  sm_bits : int;
  sm_msgs : int;
  sm_quar : int;
  sm_dead : int;
  sm_delivered : int;
  sm_parked : (int * int * int * int * int * 'm) list;
      (* sent, arrive, src, dst, copy, payload *)
  sm_ckpt : 's ckpt_change array;  (* per owned vertex *)
  sm_events : ((int * int * int) * Trace.event list) list;
      (* (abs round, src, neighbor index) -> that fate's events,
         chronological *)
}

(* Worker recovery state, the checkpoint payload: everything a fresh
   incarnation needs to resume after round [ws_round]. *)
type ('m, 's) wstate = {
  ws_round : int;  (* last fully completed round *)
  ws_states : 's array;
  ws_inbox : (int * int * int * 'm) list array array;
      (* [slot].(v - lo) -> fresh copies (sent, src, copy, payload) *)
  ws_store : 's option array;  (* local checkpoint store, per owned *)
  ws_bits : int;
  ws_msgs : int;
  ws_quar : int;
  ws_dead : int;
  ws_delivered : int;
  ws_parked : (int * int * int * int * int * 'm) list;
  ws_events : ((int * int * int) * Trace.event list) list;  (* reversed *)
}

let marshal v = Marshal.to_string v [ Marshal.Closures ]
let unmarshal s : 'a = Marshal.from_string s 0

let read_frame fd =
  match Frame.read_fd fd with
  | Ok f -> f
  | Error Frame.Closed -> failwith "shard worker: parent channel closed"
  | Error Frame.Truncated -> failwith "shard worker: parent channel truncated"
  | Error (Frame.Malformed m) -> failwith ("shard worker: " ^ m)

(* {1 The transport} *)

let run_phase cfg (t : 'i Network.t) ~rounds ~(size : ('m -> int) option)
    ~(corrupt : (round:int -> src:int -> dst:int -> 'm -> 'm) option)
    ~(digest : ('m -> int) option) ~(ckpt : 's Network.carrier option)
    ~(carry : 'm Network.carrier option) ~(trace : Trace.t option) ~init
    ~emit ~merge : 's array * int =
  let g = Network.graph t in
  let n = Graph.n g in
  let fp = Network.faults t in
  let base = Network.clock t in
  let shards = max 1 (min cfg.shards (max 1 n)) in
  let phase = Atomic.fetch_and_add phase_counter 1 in
  let run_id =
    Splitmix.mix64
      (Int64.logxor
         (Int64.of_int ((phase * 1_000_003) + base))
         (Int64.of_int (Unix.getpid ())))
  in
  let crash_at = Network.Internal.crash_at t in
  let recover_at = Network.Internal.recover_at t in
  let alive abs v = Linksem.alive ~crash_at ~recover_at ~abs v in
  let ship_events = trace <> None || Metrics.enabled () in
  (* Carried-in copies of this phase's message type, projected before the
     fork so workers see plain ['m] values; copies still due past this
     phase stay parked on the network. *)
  let carried, rest_pending =
    match carry with
    | None -> ([], Network.Internal.pending t)
    | Some c ->
        let mine, rest =
          List.partition
            (fun (p : Network.Internal.packet) ->
              Option.is_some (Network.Internal.project c p.payload))
            (Network.Internal.pending t)
        in
        let now, later =
          List.partition (fun (p : Network.Internal.packet) ->
              max 0 (p.arrive - base) < rounds)
            mine
        in
        ( List.map
            (fun (p : Network.Internal.packet) ->
              match Network.Internal.project c p.payload with
              | Some m ->
                  (max 0 (p.arrive - base), p.sent, p.p_src, p.p_dst, p.p_copy, m)
              | None -> assert false)
            now,
          rest @ later )
  in
  (* Checkpoints carried in from earlier phases, projected pre-fork. *)
  let store0 =
    Array.init n (fun v ->
        match ckpt with
        | None -> None
        | Some c -> Option.bind (Network.Internal.ckpt t v) (Network.Internal.project c))
  in
  (* {2 Worker body} *)
  let body ~shard ~incarnation fd =
    (* Workers meter by hand and ship deltas; their (forked, private)
       atomic counters must stay silent. *)
    Metrics.set_enabled false;
    let lo, hi = Router.range ~shards ~n shard in
    let nv = hi - lo in
    let owned v = v >= lo && v < hi in
    (* Parked carry-ins for owned vertices, grouped by slot, sorted in
       the descending delivery order (recomputed identically by every
       incarnation — static data, never checkpointed). *)
    let parked_in = Array.make_matrix rounds (max nv 1) [] in
    List.iter
      (fun (slot, sent, src, dst, copy, m) ->
        if owned dst then
          parked_in.(slot).(dst - lo) <-
            (sent, src, copy, m) :: parked_in.(slot).(dst - lo))
      carried;
    Array.iter
      (fun row ->
        Array.iteri
          (fun i l ->
            row.(i) <-
              List.sort
                (fun (s1, v1, c1, _) (s2, v2, c2, _) ->
                  Linksem.compare_parked (s1, v1, c1) (s2, v2, c2))
                l)
          row)
      parked_in;
    let fresh_state () =
      {
        ws_round = -1;
        ws_states = Array.init nv (fun i -> init (lo + i));
        ws_inbox = Array.make_matrix rounds (max nv 1) [];
        ws_store = Array.init nv (fun i -> store0.(lo + i));
        ws_bits = 0;
        ws_msgs = 0;
        ws_quar = 0;
        ws_dead = 0;
        ws_delivered = 0;
        ws_parked = [];
        ws_events = [];
      }
    in
    let ws =
      if incarnation = 0 then fresh_state ()
      else
        match Ckpt.load ~dir:cfg.dir ~run_id ~shard with
        | Some (meta, payload) when meta.Ckpt.phase = phase ->
            (unmarshal payload : ('m, 's) wstate)
        | _ -> fresh_state ()
    in
    let states = ws.ws_states in
    let inbox = ws.ws_inbox in
    let store = ws.ws_store in
    let bits = ref ws.ws_bits
    and msgs = ref ws.ws_msgs
    and quar = ref ws.ws_quar
    and dead = ref ws.ws_dead
    and delivered = ref ws.ws_delivered in
    let parked = ref ws.ws_parked in
    let events = ref ws.ws_events in
    for round = ws.ws_round + 1 to rounds - 1 do
      (match kill_matches cfg.kills ~shard ~phase ~round ~incarnation with
      | Some k -> fire_kill k
      | None -> ());
      let abs = base + round in
      (* Bookkeeping for owned vertices: snapshot at the crash round,
         restore at the recovery round.  Events are the parent's job —
         it owns the crash tables and replays them in global order. *)
      for i = 0 to nv - 1 do
        let v = lo + i in
        if crash_at.(v) = abs && ckpt <> None then store.(i) <- Some states.(i);
        if recover_at.(v) = abs && ckpt <> None then
          match store.(i) with
          | Some st ->
              states.(i) <- st;
              store.(i) <- None
          | None -> ()
      done;
      (* Emission: fates for every directed edge out of an owned, alive
         vertex.  Same-shard copies go straight to the local inbox;
         cross-shard copies are marshaled into the round's batch. *)
      let cross = ref [] in
      for i = 0 to nv - 1 do
        let v = lo + i in
        if alive abs v then begin
          let msg = emit v states.(i) in
          Array.iteri
            (fun nbr_idx u ->
              let f =
                Linksem.fate fp ~round:abs ~src:v ~dst:u ?corrupt ?digest msg
              in
              if ship_events then begin
                match Linksem.events_of_fate ~round:abs ~src:v ~dst:u f with
                | [] -> ()
                | evs -> events := ((abs, v, nbr_idx), evs) :: !events
              end;
              List.iter
                (fun (c : _ Linksem.copy) ->
                  (match size with
                  | Some sz -> bits := !bits + sz c.Linksem.c_msg
                  | None -> ());
                  incr msgs;
                  if c.Linksem.c_quarantined then incr quar
                  else begin
                    let slot = round + c.Linksem.c_delay in
                    if slot < rounds then begin
                      if owned u then
                        inbox.(slot).(u - lo) <-
                          (abs, v, c.Linksem.c_index, c.Linksem.c_msg)
                          :: inbox.(slot).(u - lo)
                      else
                        cross :=
                          {
                            Router.e_slot = slot;
                            e_sent = abs;
                            e_src = v;
                            e_dst = u;
                            e_copy = c.Linksem.c_index;
                            e_bytes = marshal c.Linksem.c_msg;
                          }
                          :: !cross
                    end
                    else
                      match carry with
                      | Some _ ->
                          parked :=
                            (abs, base + slot, v, u, c.Linksem.c_index,
                             c.Linksem.c_msg)
                            :: !parked
                      | None -> incr dead
                  end)
                f.Linksem.f_copies)
            (Graph.neighbors g v)
        end
      done;
      (* Barrier: batch out, deliveries in.  The parent echoes entries
         from every other shard sent this round (any future slot). *)
      let buf = Buffer.create 256 in
      Router.encode_entries buf (List.rev !cross);
      Frame.write_fd fd
        { Frame.kind = k_batch; a = round; b = shard; c = 0;
          payload = Buffer.contents buf };
      let dfr = read_frame fd in
      if dfr.Frame.kind <> k_deliver || dfr.Frame.a <> round then
        failwith "shard worker: protocol desync";
      (match Router.decode_entries dfr.Frame.payload (ref 0) with
      | Error e -> failwith ("shard worker: " ^ e)
      | Ok entries ->
          List.iter
            (fun (e : Router.entry) ->
              inbox.(e.Router.e_slot).(e.Router.e_dst - lo) <-
                (e.Router.e_sent, e.Router.e_src, e.Router.e_copy,
                 (unmarshal e.Router.e_bytes : 'm))
                :: inbox.(e.Router.e_slot).(e.Router.e_dst - lo))
            entries);
      (* Delivery: parked carry-ins first (descending), then fresh copies
         ascending (send, src, copy) — the Linksem slot order. *)
      for i = 0 to nv - 1 do
        let v = lo + i in
        let fresh =
          List.sort
            (fun (s1, v1, c1, _) (s2, v2, c2, _) ->
              Linksem.compare_fresh (s1, v1, c1) (s2, v2, c2))
            inbox.(round).(i)
        in
        let full =
          List.map (fun (_, _, _, m) -> m) parked_in.(round).(i)
          @ List.map (fun (_, _, _, m) -> m) fresh
        in
        inbox.(round).(i) <- [];
        let k = List.length full in
        if alive abs v then begin
          delivered := !delivered + k;
          states.(i) <- merge v states.(i) full
        end
        else dead := !dead + k
      done;
      if (round + 1) mod cfg.ckpt_every = 0 then
        Ckpt.save_best_effort ~dir:cfg.dir
          { Ckpt.run_id; shard; phase; round }
          (marshal
             {
               ws_round = round;
               ws_states = states;
               ws_inbox = inbox;
               ws_store = store;
               ws_bits = !bits;
               ws_msgs = !msgs;
               ws_quar = !quar;
               ws_dead = !dead;
               ws_delivered = !delivered;
               ws_parked = !parked;
               ws_events = !events;
             })
    done;
    let summary =
      {
        sm_states = states;
        sm_bits = !bits;
        sm_msgs = !msgs;
        sm_quar = !quar;
        sm_dead = !dead;
        sm_delivered = !delivered;
        sm_parked = List.rev !parked;
        sm_ckpt =
          Array.init nv (fun i ->
              match (store0.(lo + i), store.(i)) with
              | None, None -> Unchanged
              | Some a, Some b when a == b -> Unchanged
              | _, None -> Cleared
              | _, Some s -> Set s);
        sm_events = List.rev !events;
      }
    in
    Frame.write_fd fd
      { Frame.kind = k_done; a = rounds; b = shard; c = 0;
        payload = marshal summary }
  in
  (* {2 Parent protocol} *)
  let batches = Array.make_matrix rounds shards None in
  let deliveries = Array.make rounds None in
  let delivered_to = Array.make_matrix rounds shards false in
  let summaries : ('m, 's) summary option array = Array.make shards None in
  let entry_keys payload =
    match Router.decode_entries payload (ref 0) with
    | Error e -> Error e
    | Ok es ->
        Ok
          (List.map
             (fun (e : Router.entry) ->
               (e.Router.e_slot, e.Router.e_sent, e.Router.e_src,
                e.Router.e_dst, e.Router.e_copy))
             es)
  in
  let compile_deliveries round =
    match deliveries.(round) with
    | Some d -> d
    | None ->
        let per_shard = Array.make shards [] in
        for s = 0 to shards - 1 do
          match batches.(round).(s) with
          | None -> assert false
          | Some payload -> (
              match Router.decode_entries payload (ref 0) with
              | Error e ->
                  raise
                    (Supervisor.Failed
                       (Supervisor.Permanent, "shard batch malformed: " ^ e))
              | Ok es ->
                  List.iter
                    (fun (e : Router.entry) ->
                      let owner = Router.owner ~shards ~n e.Router.e_dst in
                      per_shard.(owner) <- e :: per_shard.(owner))
                    es)
        done;
        let d =
          Array.map (fun l -> List.sort Router.compare_entry l) per_shard
        in
        deliveries.(round) <- Some d;
        d
  in
  let try_deliver ctx round =
    if Array.for_all Option.is_some batches.(round) then begin
      let d = compile_deliveries round in
      for s = 0 to shards - 1 do
        if not delivered_to.(round).(s) then begin
          delivered_to.(round).(s) <- true;
          let buf = Buffer.create 256 in
          Router.encode_entries buf d.(s);
          ctx.Supervisor.send ~shard:s
            { Frame.kind = k_deliver; a = round; b = 0; c = 0;
              payload = Buffer.contents buf }
        end
      done
    end
  in
  let on_frame ctx ~shard (f : Frame.t) =
    if f.Frame.kind = k_batch then begin
      let round = f.Frame.a in
      if round < 0 || round >= rounds then
        raise
          (Supervisor.Failed (Supervisor.Permanent, "shard batch round out of range"));
      (match batches.(round).(shard) with
      | None -> batches.(round).(shard) <- Some f.Frame.payload
      | Some prev ->
          (* A restarted incarnation replaying history: its recomputed
             batch must carry the same verdict coordinates — determinism
             check.  (Payload bytes may differ in Marshal sharing, so the
             comparison is on keys.) *)
          if entry_keys prev <> entry_keys f.Frame.payload then
            raise
              (Supervisor.Failed
                 ( Supervisor.Permanent,
                   Printf.sprintf
                     "shard %d round %d: replayed batch diverged from the \
                      original (nondeterministic worker)"
                     shard round ));
          (* Answer the replay from the stored history. *)
          delivered_to.(round).(shard) <- false);
      try_deliver ctx round
    end
    else if f.Frame.kind = k_done then begin
      summaries.(shard) <- Some (unmarshal f.Frame.payload : ('m, 's) summary);
      ctx.Supervisor.mark_done ~shard
    end
    else
      raise
        (Supervisor.Failed (Supervisor.Permanent, "unexpected frame kind from worker"))
  in
  let restored_round ~shard =
    match Ckpt.load ~dir:cfg.dir ~run_id ~shard with
    | Some (meta, _) when meta.Ckpt.phase = phase -> meta.Ckpt.round
    | _ -> -1
  in
  Supervisor.run ~policy:cfg.policy ?trace ~restored_round ~shards ~body
    ~on_frame ();
  (* Success: the checkpoints have served their purpose.  On failure they
     are deliberately left behind — they are the post-mortem (and the CI
     artifact) for the run that died. *)
  for s = 0 to shards - 1 do
    Ckpt.remove ~dir:cfg.dir ~run_id ~shard:s
  done;
  (* {2 Integration} *)
  let metrics = Metrics.enabled () in
  let summaries =
    Array.map (function Some s -> s | None -> assert false) summaries
  in
  (* Fault events by phase-relative round, merged across shards in the
     in-process emission order: (src, neighbor index), stable within. *)
  let evs_by_round = Array.make rounds [] in
  Array.iter
    (fun sm ->
      List.iter
        (fun (((abs, _, _) as key), evs) ->
          let r = abs - base in
          evs_by_round.(r) <- (key, evs) :: evs_by_round.(r))
        sm.sm_events)
    summaries;
  let emit_ev ev =
    (match trace with Some s -> Trace.emit s ev | None -> ());
    if metrics then Linksem.record_event_metrics ev
  in
  (* Replay the per-round global event order, updating the same network
     bookkeeping the in-process executor would have: partition boundary
     first, then crash/checkpoint/restore per vertex ascending, then the
     workers' fault events.  Catch-up is recomputed here — it is a pure
     function of the crash tables. *)
  let catchup = ref 0 in
  for round = 0 to rounds - 1 do
    let abs = base + round in
    if fp.Faults.partitions <> [] then begin
      match (Faults.partition_parts fp ~round:abs, Network.Internal.partition_active t) with
      | Some (idx, parts), active when active <> Some idx ->
          if active <> None then begin
            (match trace with
            | Some s -> Trace.emit s (Trace.Heal { round = abs })
            | None -> ());
            if metrics then Metrics.bump Metrics.heals
          end;
          Network.Internal.set_partition_active t (Some idx);
          (match trace with
          | Some s -> Trace.emit s (Trace.Partition { round = abs; parts })
          | None -> ());
          if metrics then Metrics.bump Metrics.partitions
      | None, Some _ ->
          Network.Internal.set_partition_active t None;
          (match trace with
          | Some s -> Trace.emit s (Trace.Heal { round = abs })
          | None -> ());
          if metrics then Metrics.bump Metrics.heals
      | _ -> ()
    end;
    for v = 0 to n - 1 do
      if crash_at.(v) = abs then begin
        (match trace with
        | Some s -> Trace.emit s (Trace.Checkpoint { node = v; round = abs })
        | None -> ());
        if metrics then Metrics.bump Metrics.checkpoints
      end;
      if (not (Network.Internal.crash_seen t v)) && crash_at.(v) <= abs then begin
        Network.Internal.set_crash_seen t v;
        (match trace with
        | Some s -> Trace.emit s (Trace.Crash { node = v; round = crash_at.(v) })
        | None -> ());
        if metrics then Metrics.bump Metrics.crashes
      end;
      if recover_at.(v) = abs then begin
        let missed = abs - crash_at.(v) in
        catchup := max !catchup missed;
        (match trace with
        | Some s -> Trace.emit s (Trace.Restore { node = v; round = abs; missed })
        | None -> ());
        if metrics then Metrics.bump Metrics.restores
      end
    done;
    List.iter
      (fun (_, evs) -> List.iter emit_ev evs)
      (List.stable_sort
         (fun ((_, s1, i1), _) ((_, s2, i2), _) -> compare (s1, i1) (s2, i2))
         (List.rev evs_by_round.(round)))
  done;
  (* Meters, checkpoint store, parked copies, final states.  Shard
     blocks are contiguous and ascending, so the final state array is
     their concatenation — [init] is never re-run in the parent. *)
  let states =
    Array.concat (Array.to_list (Array.map (fun sm -> sm.sm_states) summaries))
  in
  Network.Internal.set_pending t rest_pending;
  Array.iteri
    (fun s sm ->
      let lo, _ = Router.range ~shards ~n s in
      Network.Internal.add_bits t sm.sm_bits;
      Network.Internal.add_msgs t sm.sm_msgs;
      Network.Internal.add_quarantined t sm.sm_quar;
      Network.Internal.add_delivered t sm.sm_delivered;
      if sm.sm_dead > 0 then begin
        Network.Internal.add_dead_letters t sm.sm_dead;
        if metrics then Metrics.add Metrics.dead_letters sm.sm_dead
      end;
      (match ckpt with
      | None -> ()
      | Some c ->
          Array.iteri
            (fun i change ->
              match change with
              | Unchanged -> ()
              | Cleared -> Network.Internal.set_ckpt t (lo + i) None
              | Set st ->
                  Network.Internal.set_ckpt t (lo + i)
                    (Some (Network.Internal.inject c st)))
            sm.sm_ckpt);
      match carry with
      | None -> ()
      | Some cr ->
          List.iter
            (fun (sent, arrive, src, dst, copy, m) ->
              Network.Internal.set_pending t
                ({
                   Network.Internal.sent;
                   arrive;
                   p_src = src;
                   p_dst = dst;
                   p_copy = copy;
                   payload = Network.Internal.inject cr m;
                 }
                :: Network.Internal.pending t))
            sm.sm_parked)
    summaries;
  (states, !catchup)

let install cfg =
  Network.set_transport
    (Some
       {
         Network.exec =
           (fun t ~rounds ~size ~corrupt ~digest ~ckpt ~carry ~trace ~init
                ~emit ~merge ->
             run_phase cfg t ~rounds ~size ~corrupt ~digest ~ckpt ~carry
               ~trace ~init ~emit ~merge);
       })

let uninstall () = Network.set_transport None
let installed () = Network.transport () <> None
