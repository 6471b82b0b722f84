(* The event-driven executor.  Runs the same per-node programs as
   Network.run_broadcast over a priority queue of timestamped events
   instead of a global round loop.

   Two modes:

   - Synchronizer: an alpha-synchronizer.  Every payload copy is acked at
     the link layer; a node that has every round-r copy acked declares
     itself safe and broadcasts Safe(r) to its neighbors; a node closes
     its round-r inbox slot (the local round barrier) once it is
     self-safe and has Safe(r) from every neighbor alive at round r.
     Ack causality then guarantees no copy due in slot r can arrive
     after the barrier, so slot contents — and hence states, meters and
     the payload trace — are bit-identical to the synchronous executor
     under arbitrary delay laws and clock skew.

   - Adaptive (bounded delay): no acks or barriers.  A node tracks a
     per-neighbor EWMA of observed latencies and arms a timeout per
     unresolved neighbor; a timeout sends a retransmit request (nack),
     backs off exponentially with deterministic jitter, and gives up
     after a bounded number of attempts.  A misfired timeout therefore
     costs only completeness — the node proceeds with a subset inbox,
     which view_is_complete detects and Resilient classifies as a
     transient failure — never soundness: merges only ever see truthful
     payloads, so Las Vegas outputs stay exact.

   Determinism: virtual time is simulated.  Fault verdicts fix WHICH
   logical slot a copy lands in (send round + verdict delay, exactly as
   in the synchronous executor); the timing laws (link latency, clock
   skew, control-plane latency, timeout jitter) are themselves
   deterministic draws from the fault plan's seed and only decide the
   ORDER in which events are processed.  Heap ties break on insertion
   sequence.  The whole execution is a pure function of the seeds.

   Trace fidelity: payload fault events are buffered during execution
   and flushed at phase end in the synchronous emission order (per
   round: partition transitions, per-node crash bookkeeping, per-sender
   fates in adjacency order), so the payload trace stream stays
   byte-identical in synchronizer mode.  Control-plane events (acks,
   barriers, timeouts, skew) go only to the config's dedicated control
   sink and can never perturb the payload stream. *)

module Graph = Ls_graph.Graph
module Trace = Ls_obs.Trace
module Metrics = Ls_obs.Metrics
module I = Network.Internal

type mode = Synchronizer | Adaptive

let mode_name = function Synchronizer -> "synchronizer" | Adaptive -> "adaptive"

let mode_of_string s =
  match String.lowercase_ascii s with
  | "synchronizer" | "sync" | "alpha" -> Synchronizer
  | "adaptive" | "bounded" | "bounded-delay" -> Adaptive
  | s ->
      invalid_arg
        (Printf.sprintf "--async: unknown mode %S (expected synchronizer|adaptive)" s)

type t = {
  mode : mode;
  timeout_base : float;  (* initial EWMA latency estimate *)
  ewma_alpha : float;
  timeout_factor : float;
  backoff : float;
  jitter : float;
  max_retransmits : int;
  control_trace : Trace.t option;
  mutable skew_reported : bool;
  mutable s_phases : int;
  mutable s_makespan : float;
  mutable s_control_msgs : int;
  mutable s_acks : int;
  mutable s_barriers : int;
  mutable s_timeouts : int;
  mutable s_retransmits : int;
  mutable s_gave_up : int;
  mutable s_late : int;
}

type stats = {
  phases : int;
  makespan : float;
  control_msgs : int;
  acks : int;
  barriers : int;
  timeouts : int;
  retransmits : int;
  gave_up : int;
  late : int;
}

let make ?(mode = Synchronizer) ?(timeout_base = 3.0) ?(ewma_alpha = 0.2)
    ?(timeout_factor = 2.0) ?(backoff = 2.0) ?(jitter = 0.5)
    ?(max_retransmits = 2) ?control_trace () =
  if timeout_base <= 0. then invalid_arg "Async.make: timeout_base must be positive";
  if not (ewma_alpha > 0. && ewma_alpha <= 1.) then
    invalid_arg "Async.make: ewma_alpha must lie in (0, 1]";
  if timeout_factor < 1. then invalid_arg "Async.make: timeout_factor must be >= 1";
  if backoff < 1. then invalid_arg "Async.make: backoff must be >= 1";
  if jitter < 0. then invalid_arg "Async.make: negative jitter";
  if max_retransmits < 0 then invalid_arg "Async.make: negative max_retransmits";
  {
    mode;
    timeout_base;
    ewma_alpha;
    timeout_factor;
    backoff;
    jitter;
    max_retransmits;
    control_trace;
    skew_reported = false;
    s_phases = 0;
    s_makespan = 0.;
    s_control_msgs = 0;
    s_acks = 0;
    s_barriers = 0;
    s_timeouts = 0;
    s_retransmits = 0;
    s_gave_up = 0;
    s_late = 0;
  }

let mode cfg = cfg.mode

let stats cfg =
  {
    phases = cfg.s_phases;
    makespan = cfg.s_makespan;
    control_msgs = cfg.s_control_msgs;
    acks = cfg.s_acks;
    barriers = cfg.s_barriers;
    timeouts = cfg.s_timeouts;
    retransmits = cfg.s_retransmits;
    gave_up = cfg.s_gave_up;
    late = cfg.s_late;
  }

(* Event kinds.  [r] is always the phase-relative round of the protocol
   step the event belongs to; delivery slots are phase-relative too. *)
type 'm event =
  | Deliver of { slot : int; sent : int; src : int; dst : int; copy : int; msg : 'm }
  | Ack_arrive of { sender : int; r : int; from_ : int; copy : int }
  | Safe_arrive of { node : int; r : int }
  | Timeout_fire of { node : int; pos : int; r : int; attempt : int }
  | Nack_arrive of { sender : int; from_ : int; r : int; attempt : int }

(* Binary min-heap keyed by (virtual time, insertion sequence): the
   sequence number makes simultaneous events pop in creation order, so
   the simulation is deterministic. *)
type 'm heap = {
  mutable arr : (float * int * 'm event) array;
  mutable len : int;
  mutable seq : int;
}

let heap_make () = { arr = [||]; len = 0; seq = 0 }
let heap_less (t1, s1, _) (t2, s2, _) = t1 < t2 || (t1 = t2 && s1 < s2)

let heap_push h time ev =
  let it = (time, h.seq, ev) in
  h.seq <- h.seq + 1;
  if h.len = Array.length h.arr then begin
    let a = Array.make (max 16 (2 * h.len)) it in
    Array.blit h.arr 0 a 0 h.len;
    h.arr <- a
  end;
  h.arr.(h.len) <- it;
  h.len <- h.len + 1;
  let i = ref (h.len - 1) in
  while !i > 0 && heap_less h.arr.(!i) h.arr.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    let tmp = h.arr.(p) in
    h.arr.(p) <- h.arr.(!i);
    h.arr.(!i) <- tmp;
    i := p
  done

let heap_pop h =
  if h.len = 0 then None
  else begin
    let top = h.arr.(0) in
    h.len <- h.len - 1;
    if h.len > 0 then begin
      h.arr.(0) <- h.arr.(h.len);
      let i = ref 0 in
      let stop = ref false in
      while not !stop do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let m = ref !i in
        if l < h.len && heap_less h.arr.(l) h.arr.(!m) then m := l;
        if r < h.len && heap_less h.arr.(r) h.arr.(!m) then m := r;
        if !m = !i then stop := true
        else begin
          let tmp = h.arr.(!m) in
          h.arr.(!m) <- h.arr.(!i);
          h.arr.(!i) <- tmp;
          i := !m
        end
      done
    end;
    Some top
  end

let run_broadcast cfg net ~rounds ?size ?corrupt ?digest ?ckpt ?carry
    ?(label = "broadcast") ?trace ~init ~emit ~merge () =
  if rounds < 0 then invalid_arg "Async.run_broadcast: negative rounds";
  let g = Network.graph net in
  let n = Graph.n g in
  let fp = Network.faults net in
  let tr = I.sink net trace in
  let ctl = cfg.control_trace in
  let metrics = Metrics.enabled () in
  let bits0 = Network.bits net and msgs0 = Network.messages net in
  let base = Network.clock net in
  (match tr with
  | Some s -> Trace.emit s (Trace.Phase_start { label; clock = base })
  | None -> ());
  let crash_at = I.crash_at net and recover_at = I.recover_at net in
  let alive_at abs v = Linksem.alive ~crash_at ~recover_at ~abs v in
  let nbrs = Array.init n (fun v -> Graph.neighbors g v) in
  let pos_tbl =
    Array.init n (fun v ->
        let h = Hashtbl.create ((2 * Array.length nbrs.(v)) + 1) in
        Array.iteri (fun i u -> Hashtbl.replace h u i) nbrs.(v);
        h)
  in
  let pos_of v u = Hashtbl.find pos_tbl.(v) u in
  let skew = Array.init n (fun v -> Faults.node_skew fp ~node:v) in
  (match ctl with
  | Some s when not cfg.skew_reported ->
      cfg.skew_reported <- true;
      for v = 0 to n - 1 do
        Trace.emit s
          (Trace.Skew { node = v; permille = int_of_float ((skew.(v) *. 1000.) +. 0.5) })
      done
  | _ -> ());
  let states = Array.init n init in
  let catchup = ref 0 in
  let q = heap_make () in
  (* Per-node, per-slot inbox halves, kept with their (sent, src, copy)
     ordering keys and sorted at close per the Linksem slot contract. *)
  let parked = Array.init n (fun _ -> Array.make rounds []) in
  let fresh = Array.init n (fun _ -> Array.make rounds []) in
  let closed = Array.init n (fun _ -> Array.make rounds false) in
  let round_ = Array.make n 0 in
  let entered = Array.init n (fun _ -> Array.make rounds 0.) in
  let out_msg = Array.init n (fun _ -> Array.make rounds None) in
  (* Synchronizer bookkeeping. *)
  let outstanding = Array.init n (fun _ -> Array.make rounds 0) in
  let self_safe = Array.init n (fun _ -> Array.make rounds false) in
  let safe_cnt = Array.init n (fun _ -> Array.make rounds 0) in
  (* Adaptive bookkeeping (per neighbor position; gave_up is per current
     round, reset at round entry). *)
  let deg v = Array.length nbrs.(v) in
  let ewma = Array.init n (fun v -> Array.make (deg v) cfg.timeout_base) in
  (* received.(v).(pos).(r): v has seen neighbor pos's round-r message.
     Resolution is strictly per round — a neighbor's round-(r+1) traffic
     must NOT resolve a dropped round-r copy, or the loss would be masked
     instead of detected, and the record would silently skip this node's
     next emission. *)
  let received = Array.init n (fun v -> Array.init (deg v) (fun _ -> Array.make rounds false)) in
  let gave_up = Array.init n (fun v -> Array.make (deg v) false) in
  (* Payload fault events are buffered per round and flushed at phase end
     in the synchronous emission order; adaptive retransmissions get
     their own buffer, emitted after the round's regular fates. *)
  let fate_log = Array.make rounds [] in
  let retrans_log = Array.make rounds [] in
  let bump_control k =
    cfg.s_control_msgs <- cfg.s_control_msgs + k;
    if metrics then Metrics.add Metrics.control_msgs k
  in
  (* Carry-in: previously parked copies of this phase's message type land
     directly in their slot's parked half (the ordering keys travel with
     them; Linksem.compare_parked fixes the merge order at close). *)
  (match carry with
  | None -> ()
  | Some c ->
      let mine, rest =
        List.partition
          (fun (p : I.packet) -> Option.is_some (I.project c p.I.payload))
          (I.pending net)
      in
      let future = ref rest in
      List.iter
        (fun (p : I.packet) ->
          let slot = max 0 (p.I.arrive - base) in
          if slot < rounds then
            match I.project c p.I.payload with
            | Some m ->
                parked.(p.I.p_dst).(slot) <-
                  ((p.I.sent, p.I.p_src, p.I.p_copy), m) :: parked.(p.I.p_dst).(slot)
            | None -> assert false
          else future := p :: !future)
        mine;
      I.set_pending net !future);
  let alive_nbr_count v r =
    let abs = base + r in
    Array.fold_left (fun acc u -> if alive_at abs u then acc + 1 else acc) 0 nbrs.(v)
  in
  let resolved v pos r =
    let abs = base + r in
    gave_up.(v).(pos)
    || received.(v).(pos).(r)
    || not (alive_at abs nbrs.(v).(pos))
  in
  let timeout_delay v pos ~abs ~u ~attempt =
    (cfg.timeout_factor *. ewma.(v).(pos) *. (cfg.backoff ** float_of_int attempt))
    +. (cfg.jitter *. Faults.timeout_jitter fp ~round:abs ~src:v ~dst:u ~attempt)
  in
  (* Self-safety: every round-r copy this node scheduled has been acked.
     Alive nodes then broadcast Safe(r); a down node's flag still flips
     (it scheduled nothing) but it stays silent, and nobody waits for it
     — barriers only require safes from neighbors alive at round r. *)
  let maybe_self_safe v r tcur =
    if (not self_safe.(v).(r)) && outstanding.(v).(r) = 0 then begin
      self_safe.(v).(r) <- true;
      let abs = base + r in
      if alive_at abs v then
        Array.iter
          (fun u ->
            bump_control 1;
            heap_push q
              (tcur +. Faults.control_latency fp ~round:abs ~src:v ~dst:u ~kind:8)
              (Safe_arrive { node = u; r }))
          nbrs.(v)
    end
  in
  let rec start_round v r tcur =
    round_.(v) <- r;
    if r < rounds then begin
      entered.(v).(r) <- tcur;
      let abs = base + r in
      (* Crash bookkeeping, state effects only — the matching trace events
         replay at flush time in the synchronous order. *)
      if crash_at.(v) = abs then (
        match ckpt with
        | Some c -> I.set_ckpt net v (Some (I.inject c states.(v)))
        | None -> ());
      if recover_at.(v) = abs then begin
        (match ckpt with
        | Some c -> (
            match I.ckpt net v with
            | Some u -> (
                match I.project c u with
                | Some st ->
                    states.(v) <- st;
                    I.set_ckpt net v None
                | None -> ())
            | None -> ())
        | None -> ());
        catchup := max !catchup (abs - crash_at.(v))
      end;
      let alive_v = alive_at abs v in
      if alive_v then begin
        let msg = emit v states.(v) in
        out_msg.(v).(r) <- Some msg;
        Array.iteri
          (fun pos u ->
            let f = Linksem.fate fp ~round:abs ~src:v ~dst:u ?corrupt ?digest msg in
            fate_log.(r) <- (v, pos, u, f) :: fate_log.(r);
            List.iter
              (fun (c : _ Linksem.copy) ->
                (match size with
                | Some sz -> I.add_bits net (sz c.Linksem.c_msg)
                | None -> ());
                I.add_msgs net 1;
                if c.Linksem.c_quarantined then I.add_quarantined net 1
                else begin
                  let slot = r + c.Linksem.c_delay in
                  if slot < rounds then begin
                    if cfg.mode = Synchronizer then
                      outstanding.(v).(r) <- outstanding.(v).(r) + 1;
                    let lat =
                      Faults.link_latency fp ~round:abs ~src:v ~dst:u
                        ~copy:c.Linksem.c_index
                    in
                    if metrics then Metrics.record_latency lat;
                    heap_push q (tcur +. lat)
                      (Deliver
                         {
                           slot;
                           sent = abs;
                           src = v;
                           dst = u;
                           copy = c.Linksem.c_index;
                           msg = c.Linksem.c_msg;
                         })
                  end
                  else
                    match carry with
                    | Some cr ->
                        I.set_pending net
                          ({
                             I.sent = abs;
                             arrive = base + slot;
                             p_src = v;
                             p_dst = u;
                             p_copy = c.Linksem.c_index;
                             payload = I.inject cr c.Linksem.c_msg;
                           }
                          :: I.pending net)
                    | None ->
                        I.add_dead_letters net 1;
                        if metrics then Metrics.add Metrics.dead_letters 1
                end)
              f.Linksem.f_copies)
          nbrs.(v)
      end;
      match cfg.mode with
      | Synchronizer ->
          maybe_self_safe v r tcur;
          check_barrier v r tcur
      | Adaptive ->
          if alive_v then begin
            Array.iteri
              (fun pos u ->
                gave_up.(v).(pos) <- false;
                if not (resolved v pos r) then
                  heap_push q
                    (tcur +. timeout_delay v pos ~abs ~u ~attempt:0)
                    (Timeout_fire { node = v; pos; r; attempt = 0 }))
              nbrs.(v);
            check_close v r tcur
          end
          else
            (* A dead node does no protocol work: its slot closes at once
               and anything addressed to it becomes a (late) dead letter. *)
            close_slot v r tcur
    end
  and close_slot v r tcur =
    if not closed.(v).(r) then begin
      closed.(v).(r) <- true;
      cfg.s_barriers <- cfg.s_barriers + 1;
      if metrics then Metrics.bump Metrics.barriers;
      let abs = base + r in
      (match ctl with
      | Some s -> Trace.emit s (Trace.Barrier { node = v; round = abs })
      | None -> ());
      let pk = List.sort (fun (a, _) (b, _) -> Linksem.compare_parked a b) parked.(v).(r) in
      let fr = List.sort (fun (a, _) (b, _) -> Linksem.compare_fresh a b) fresh.(v).(r) in
      let inbox = List.map snd pk @ List.map snd fr in
      let k = List.length inbox in
      if alive_at abs v then begin
        I.add_delivered net k;
        states.(v) <- merge v states.(v) inbox
      end
      else if k > 0 then begin
        I.add_dead_letters net k;
        if metrics then Metrics.add Metrics.dead_letters k
      end;
      parked.(v).(r) <- [];
      fresh.(v).(r) <- [];
      (* Local processing cost: one round of this node's (skewed) clock. *)
      start_round v (r + 1) (tcur +. skew.(v))
    end
  and check_barrier v r tcur =
    if
      cfg.mode = Synchronizer && r < rounds && round_.(v) = r
      && (not closed.(v).(r))
      && self_safe.(v).(r)
      && safe_cnt.(v).(r) >= alive_nbr_count v r
    then close_slot v r tcur
  and check_close v r tcur =
    if cfg.mode = Adaptive && r < rounds && round_.(v) = r && not closed.(v).(r)
    then begin
      let all = ref true in
      for pos = 0 to deg v - 1 do
        if not (resolved v pos r) then all := false
      done;
      if !all then close_slot v r tcur
    end
  in
  for v = 0 to n - 1 do
    start_round v 0 0.
  done;
  let tmax = ref 0. in
  let running = ref true in
  while !running do
    match heap_pop q with
    | None -> running := false
    | Some (t, _, ev) -> (
        if t > !tmax then tmax := t;
        match ev with
        | Deliver { slot; sent; src; dst; copy; msg } -> (
            (match cfg.mode with
            | Synchronizer ->
                (* Link-layer ack, unconditional: it acknowledges the copy,
                   not the receiving node's health. *)
                bump_control 1;
                heap_push q
                  (t +. Faults.control_latency fp ~round:sent ~src:dst ~dst:src ~kind:copy)
                  (Ack_arrive { sender = src; r = sent - base; from_ = dst; copy })
            | Adaptive ->
                let pos = pos_of dst src in
                let sr = sent - base in
                if sr >= 0 && sr < rounds then begin
                  received.(dst).(pos).(sr) <- true;
                  if sr <= round_.(dst) then begin
                    let sample = t -. entered.(dst).(sr) in
                    ewma.(dst).(pos) <-
                      (cfg.ewma_alpha *. sample)
                      +. ((1. -. cfg.ewma_alpha) *. ewma.(dst).(pos))
                  end
                end);
            if closed.(dst).(slot) then begin
              (* Late: the slot already closed (adaptive give-up or a dead
                 receiver).  Honest loss — never a wrong merge. *)
              I.add_dead_letters net 1;
              cfg.s_late <- cfg.s_late + 1;
              if metrics then begin
                Metrics.add Metrics.dead_letters 1;
                Metrics.add Metrics.late_letters 1
              end
            end
            else begin
              fresh.(dst).(slot) <- ((sent, src, copy), msg) :: fresh.(dst).(slot);
              if cfg.mode = Adaptive then check_close dst round_.(dst) t
            end)
        | Ack_arrive { sender; r; from_; copy } ->
            cfg.s_acks <- cfg.s_acks + 1;
            if metrics then Metrics.bump Metrics.acks;
            (match ctl with
            | Some s ->
                Trace.emit s (Trace.Ack { round = base + r; src = sender; dst = from_; copy })
            | None -> ());
            outstanding.(sender).(r) <- outstanding.(sender).(r) - 1;
            maybe_self_safe sender r t;
            check_barrier sender r t
        | Safe_arrive { node; r } ->
            safe_cnt.(node).(r) <- safe_cnt.(node).(r) + 1;
            check_barrier node r t
        | Timeout_fire { node = v; pos; r; attempt } ->
            if round_.(v) = r && (not closed.(v).(r)) && not (resolved v pos r)
            then begin
              if attempt >= cfg.max_retransmits then begin
                gave_up.(v).(pos) <- true;
                cfg.s_gave_up <- cfg.s_gave_up + 1;
                check_close v r t
              end
              else begin
                let u = nbrs.(v).(pos) in
                let abs = base + r in
                cfg.s_timeouts <- cfg.s_timeouts + 1;
                if metrics then Metrics.bump Metrics.timeouts;
                (match ctl with
                | Some s ->
                    Trace.emit s (Trace.Timeout { node = v; nbr = u; round = abs; attempt })
                | None -> ());
                bump_control 1;
                heap_push q
                  (t +. Faults.control_latency fp ~round:abs ~src:v ~dst:u ~kind:(16 + attempt))
                  (Nack_arrive { sender = u; from_ = v; r; attempt });
                heap_push q
                  (t +. timeout_delay v pos ~abs ~u ~attempt:(attempt + 1))
                  (Timeout_fire { node = v; pos; r; attempt = attempt + 1 })
              end
            end
        | Nack_arrive { sender = u; from_ = v; r; attempt } -> (
            (* Retransmit request, honored when the sender actually emitted
               in round r (it was alive then) and the requester has not
               already moved on.  The retransmission is a fresh wire
               transmission: billed like one, subject to its own
               drop/partition verdict, and due in the original slot. *)
            if round_.(v) = r && not closed.(v).(r) then
              match out_msg.(u).(r) with
              | Some msg ->
                  let abs = base + r in
                  if not (Faults.retransmit_dropped fp ~round:abs ~src:u ~dst:v ~attempt)
                  then begin
                    (match size with
                    | Some sz -> I.add_bits net (sz msg)
                    | None -> ());
                    I.add_msgs net 1;
                    cfg.s_retransmits <- cfg.s_retransmits + 1;
                    retrans_log.(r) <- (u, v, attempt) :: retrans_log.(r);
                    let lat =
                      Faults.link_latency fp ~round:abs ~src:u ~dst:v ~copy:(16 + attempt)
                    in
                    if metrics then Metrics.record_latency lat;
                    heap_push q (t +. lat)
                      (Deliver
                         { slot = r; sent = abs; src = u; dst = v; copy = 16 + attempt; msg })
                  end
              | None -> ()))
  done;
  for v = 0 to n - 1 do
    if round_.(v) < rounds then
      failwith "Ls_local.Async: executor deadlocked (internal invariant broken)"
  done;
  (* Flush: replay the phase's payload-side events in the synchronous
     executor's order.  State transitions owned by the trace pass in the
     synchronous code (partition_active, crash_seen) are applied here. *)
  for r = 0 to rounds - 1 do
    let abs = base + r in
    if fp.Faults.partitions <> [] then begin
      match (Faults.partition_parts fp ~round:abs, I.partition_active net) with
      | Some (idx, parts), active when active <> Some idx ->
          if active <> None then begin
            (match tr with
            | Some s -> Trace.emit s (Trace.Heal { round = abs })
            | None -> ());
            if metrics then Metrics.bump Metrics.heals
          end;
          I.set_partition_active net (Some idx);
          (match tr with
          | Some s -> Trace.emit s (Trace.Partition { round = abs; parts })
          | None -> ());
          if metrics then Metrics.bump Metrics.partitions
      | None, Some _ ->
          I.set_partition_active net None;
          (match tr with
          | Some s -> Trace.emit s (Trace.Heal { round = abs })
          | None -> ());
          if metrics then Metrics.bump Metrics.heals
      | _ -> ()
    end;
    for v = 0 to n - 1 do
      if crash_at.(v) = abs then begin
        (match tr with
        | Some s -> Trace.emit s (Trace.Checkpoint { node = v; round = abs })
        | None -> ());
        if metrics then Metrics.bump Metrics.checkpoints
      end;
      if (not (I.crash_seen net v)) && crash_at.(v) <= abs then begin
        I.set_crash_seen net v;
        (match tr with
        | Some s -> Trace.emit s (Trace.Crash { node = v; round = crash_at.(v) })
        | None -> ());
        if metrics then Metrics.bump Metrics.crashes
      end;
      if recover_at.(v) = abs then begin
        let missed = abs - crash_at.(v) in
        (match tr with
        | Some s -> Trace.emit s (Trace.Restore { node = v; round = abs; missed })
        | None -> ());
        if metrics then Metrics.bump Metrics.restores
      end
    done;
    List.iter
      (fun (v, _pos, u, f) -> Linksem.record ?trace:tr ~metrics ~round:abs ~src:v ~dst:u f)
      (List.sort
         (fun (v1, p1, _, _) (v2, p2, _, _) -> compare (v1, p1) (v2, p2))
         fate_log.(r));
    List.iter
      (fun (src, dst, attempt) ->
        (match tr with
        | Some s -> Trace.emit s (Trace.Retransmit { round = abs; src; dst; attempt })
        | None -> ());
        if metrics then Metrics.bump Metrics.retransmits)
      (List.rev retrans_log.(r))
  done;
  (* Executor-agnostic round charging: every node completes exactly
     [rounds] barriers, so the charge is the max over nodes of completed
     barriers — [rounds] — plus catch-up, identical to the synchronous
     dispatcher.  Virtual time never enters the rounds meter. *)
  I.advance_clock net rounds;
  Network.charge net (rounds + !catchup);
  (match tr with
  | Some s ->
      Trace.emit s
        (Trace.Phase_end
           {
             label;
             clock = Network.clock net;
             rounds = rounds + !catchup;
             bits = Network.bits net - bits0;
             messages = Network.messages net - msgs0;
           })
  | None -> ());
  if metrics then begin
    Metrics.bump Metrics.phases;
    Metrics.add Metrics.rounds (rounds + !catchup);
    Metrics.add Metrics.bits (Network.bits net - bits0);
    Metrics.add Metrics.messages (Network.messages net - msgs0)
  end;
  cfg.s_phases <- cfg.s_phases + 1;
  cfg.s_makespan <- cfg.s_makespan +. !tmax;
  states

let flood_views cfg ?trace net ~radius =
  I.flood_views_via net ~radius
    ~run:(fun ~rounds ~size ~corrupt ~digest ~ckpt ~carry ~label ~init ~emit ~merge ->
      run_broadcast cfg net ~rounds ~size ~corrupt ~digest ~ckpt ~carry ~label
        ?trace ~init ~emit ~merge ())
