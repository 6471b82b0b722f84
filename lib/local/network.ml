module Graph = Ls_graph.Graph
module Rng = Ls_rng.Rng
module Trace = Ls_obs.Trace
module Metrics = Ls_obs.Metrics

(* Universal payloads: a delayed copy whose arrival round falls past the
   end of its broadcast phase is parked on the network, keyed by absolute
   clock round, and re-delivered to a later phase carrying the same
   message type.  The type is witnessed by the carrier that parked it. *)
type univ = ..

type 'm carrier = { inj : 'm -> univ; prj : univ -> 'm option }

let carrier (type m) () : m carrier =
  let module M = struct
    type univ += C of m
  end in
  {
    inj = (fun x -> M.C x);
    prj = (function M.C x -> Some x | _ -> None);
  }

type packet = {
  sent : int;  (* absolute round the copy was transmitted *)
  arrive : int;  (* absolute round the copy is due *)
  p_src : int;
  p_dst : int;
  p_copy : int;
  payload : univ;
}

(* Flooding state: everything a node has learned — for each known original
   vertex, its input and its full neighbor list. *)
module Imap = Map.Make (Int)

type 'i flood_msg = ('i * int list) Imap.t

type 'input t = {
  graph : Graph.t;
  inputs : 'input array;
  rngs : Rng.t array;
  mutable rounds : int;
  mutable bits : int;
  mutable msgs : int;  (* transmitted copies, metered like bits *)
  faults : Faults.t;
  crash_at : int array;  (* absolute round of the crash; max_int = never *)
  recover_at : int array;  (* absolute recovery round; max_int = crash-stop *)
  crash_seen : bool array;  (* crash already reported to trace/metrics *)
  ckpt_store : univ option array;  (* last checkpoint, per node *)
  mutable quarantined : int;  (* corrupted copies caught by a digest *)
  mutable dead_letters : int;  (* undeliverable copies (dead receiver, …) *)
  mutable delivered : int;  (* copies handed to a live node's merge *)
  mutable partition_active : int option;  (* interval index in force *)
  mutable clock : int;  (* absolute broadcast rounds elapsed; never reset *)
  mutable pending : packet list;  (* delayed copies awaiting a later phase *)
  mutable flood_carry : 'input flood_msg carrier option;
  trace : Trace.t option;
}

let create ?(faults = Faults.none) ?trace graph ~inputs ~seed =
  if Array.length inputs <> Graph.n graph then
    invalid_arg "Network.create: one input per vertex required";
  let n = Graph.n graph in
  let crash_at = Array.make n max_int in
  let recover_at = Array.make n max_int in
  for v = 0 to n - 1 do
    match Faults.crash_interval faults ~node:v with
    | Some (c, r) ->
        crash_at.(v) <- c;
        recover_at.(v) <- Option.value r ~default:max_int
    | None -> ()
  done;
  {
    graph;
    inputs;
    rngs = Rng.streams seed n;
    rounds = 0;
    bits = 0;
    msgs = 0;
    faults;
    crash_at;
    recover_at;
    crash_seen = Array.make n false;
    ckpt_store = Array.make n None;
    quarantined = 0;
    dead_letters = 0;
    delivered = 0;
    partition_active = None;
    clock = 0;
    pending = [];
    flood_carry = None;
    trace;
  }

let graph t = t.graph
let input t v = t.inputs.(v)
let rng t v = t.rngs.(v)
let rounds t = t.rounds
let faults t = t.faults
let clock t = t.clock

(* A node is down for the half-open interval [crash_at, recover_at). *)
let crashed t v = t.crash_at.(v) <= t.clock && t.clock < t.recover_at.(v)
let permanently_crashed t v = t.crash_at.(v) <= t.clock && t.recover_at.(v) = max_int
let quarantined_count t = t.quarantined
let dead_letter_count t = t.dead_letters
let delivered_count t = t.delivered

let charge t r =
  if r < 0 then invalid_arg "Network.charge: negative rounds";
  t.rounds <- t.rounds + r

let reset_rounds t = t.rounds <- 0

let bits t = t.bits

let reset_bits t = t.bits <- 0

let messages t = t.msgs

let pending_count t = List.length t.pending

(* Teardown accounting: a network being finished has no later phase for
   its parked copies to reach, so they migrate to dead letters — the
   conservation identity [messages = delivered + pending + quarantined +
   dead] then holds at teardown with pending = 0.  Idempotent. *)
let finish t =
  match t.pending with
  | [] -> ()
  | ps ->
      let k = List.length ps in
      t.pending <- [];
      t.dead_letters <- t.dead_letters + k;
      if Metrics.enabled () then Metrics.add Metrics.dead_letters k

(* Explicit sink wins, then the network's own, then the ambient one. *)
let sink t trace =
  match trace with
  | Some _ -> trace
  | None -> ( match t.trace with Some _ -> t.trace | None -> Trace.ambient ())

type 'input view = {
  center : int;
  radius : int;
  vertices : int array;
  view_inputs : 'input array;
  dist_center : int array;
}

(* [ball] must be sorted: every per-vertex field is indexed by position
   in [vertices]. *)
let view_of_ball t ~v ~radius ~ball ~dist_center =
  {
    center = v;
    radius;
    vertices = ball;
    view_inputs = Array.map (fun o -> t.inputs.(o)) ball;
    dist_center;
  }

let gather t ~v ~radius =
  if radius < 0 then invalid_arg "Network.gather: negative radius";
  let ball, dist_center = Graph.ball_dist t.graph v radius in
  view_of_ball t ~v ~radius ~ball ~dist_center

let view_is_complete t view =
  (* Flooded knowledge is always a subset of the true ball (messages carry
     only true records), so cardinality equality is completeness. *)
  let size = ref 0 in
  Graph.iter_ball t.graph view.center view.radius (fun _ _ -> incr size);
  Array.length view.vertices = !size

let merge_views t a b =
  if a.center <> b.center || a.radius <> b.radius then
    invalid_arg "Network.merge_views: views differ in center or radius";
  let n = Graph.n t.graph in
  let dist = Array.make n max_int in
  let add view =
    Array.iteri
      (fun i o -> dist.(o) <- min dist.(o) view.dist_center.(i))
      view.vertices
  in
  add a;
  add b;
  let union = ref [] in
  let count = ref 0 in
  for o = n - 1 downto 0 do
    if dist.(o) < max_int then begin
      union := o :: !union;
      incr count
    end
  done;
  (* Subset fast paths: the union adds nothing over one operand (distance
     estimates may still differ — both are upper bounds, membership is
     what completeness is judged on). *)
  if !count = Array.length a.vertices then a
  else if !count = Array.length b.vertices then b
  else
    let ball = Array.of_list !union in
    view_of_ball t ~v:a.center ~radius:a.radius ~ball
      ~dist_center:(Array.map (Array.get dist) ball)

(* The synchronous executor: every directed (round, edge) message is
   subjected to the plan's drop/duplicate/delay/corrupt verdicts, crashed
   nodes freeze, and delayed copies are parked in per-arrival-round
   inboxes.  Under [Faults.none] every verdict is one undelayed copy, so
   each node hears each neighbor once per round, in sender-id order.
   Inbox order is deterministic: (send round, sender id, copy index).
   A copy whose arrival round falls past the phase end is parked on
   [t.pending] (keyed by absolute round) when the caller supplied a
   [carry] witness, and delivered at the start of a later phase of the
   same message type; without a witness it is counted as a dead letter
   (its bits stay billed — it did hit the wire).

   Crash-recovery: a node is down for [crash_at, recover_at).  At its
   crash round the runtime snapshots its state into the network's
   checkpoint store (when the phase supplied a [ckpt] witness); at its
   recovery round the snapshot is restored and the rounds the node was
   dark are reported as catch-up (the max over concurrently recovering
   nodes is returned and charged by the dispatcher).

   Integrity: when both [corrupt] and [digest] are given, a corrupted
   copy whose digest no longer matches the original's is quarantined —
   billed but never delivered, surfacing as a drop to the caller.  A
   corruption the digest misses is delivered silently, as a real
   collision would be. *)
let run_rounds t ~rounds ?size ?corrupt ?digest ?ckpt ?carry
    ~trace:tr ~init ~emit ~merge () =
  let n = Graph.n t.graph in
  let fp = t.faults in
  let metrics = Metrics.enabled () in
  let states = Array.init n init in
  let inboxes = Array.init rounds (fun _ -> Array.make n []) in
  let base = t.clock in
  let catchup = ref 0 in
  (match carry with
  | None -> ()
  | Some c ->
      (* Deliver previously parked copies of this phase's message type.
         Order inside a slot follows (send round, sender id, copy index),
         ahead of this phase's fresh messages. *)
      let mine, rest =
        List.partition (fun p -> Option.is_some (c.prj p.payload)) t.pending
      in
      let future = ref rest in
      List.iter
        (fun p ->
          let slot = max 0 (p.arrive - base) in
          if slot < rounds then
            match c.prj p.payload with
            | Some m -> inboxes.(slot).(p.p_dst) <- m :: inboxes.(slot).(p.p_dst)
            | None -> assert false
          else future := p :: !future)
        (List.sort
           (fun a b ->
             compare (b.sent, b.p_src, b.p_copy) (a.sent, a.p_src, a.p_copy))
           mine);
      t.pending <- !future);
  for round = 0 to rounds - 1 do
    let abs = base + round in
    let alive v = Linksem.alive ~crash_at:t.crash_at ~recover_at:t.recover_at ~abs v in
    (* Partition boundary events: emitted when the interval in force at
       this absolute round differs from the one at the previous round. *)
    if fp.Faults.partitions <> [] then begin
      match (Faults.partition_parts fp ~round:abs, t.partition_active) with
      | Some (idx, parts), active when active <> Some idx ->
          if active <> None then begin
            (match tr with
            | Some s -> Trace.emit s (Trace.Heal { round = abs })
            | None -> ());
            if metrics then Metrics.bump Metrics.heals
          end;
          t.partition_active <- Some idx;
          (match tr with
          | Some s -> Trace.emit s (Trace.Partition { round = abs; parts })
          | None -> ());
          if metrics then Metrics.bump Metrics.partitions
      | None, Some _ ->
          t.partition_active <- None;
          (match tr with
          | Some s -> Trace.emit s (Trace.Heal { round = abs })
          | None -> ());
          if metrics then Metrics.bump Metrics.heals
      | _ -> ()
    end;
    (* Crash/recovery bookkeeping runs unconditionally: checkpoints and
       restores mutate state, only their events are trace/metrics-gated. *)
    for v = 0 to n - 1 do
      if t.crash_at.(v) = abs then begin
        (match ckpt with
        | Some c -> t.ckpt_store.(v) <- Some (c.inj states.(v))
        | None -> ());
        (match tr with
        | Some s -> Trace.emit s (Trace.Checkpoint { node = v; round = abs })
        | None -> ());
        if metrics then Metrics.bump Metrics.checkpoints
      end;
      if (not t.crash_seen.(v)) && t.crash_at.(v) <= abs then begin
        t.crash_seen.(v) <- true;
        (match tr with
        | Some s -> Trace.emit s (Trace.Crash { node = v; round = t.crash_at.(v) })
        | None -> ());
        if metrics then Metrics.bump Metrics.crashes
      end;
      if t.recover_at.(v) = abs then begin
        (match ckpt with
        | Some c -> (
            match t.ckpt_store.(v) with
            | Some u -> (
                match c.prj u with
                | Some st ->
                    states.(v) <- st;
                    t.ckpt_store.(v) <- None
                | None -> ())
            | None -> ())
        | None -> ());
        let missed = abs - t.crash_at.(v) in
        catchup := max !catchup missed;
        (match tr with
        | Some s -> Trace.emit s (Trace.Restore { node = v; round = abs; missed })
        | None -> ());
        if metrics then Metrics.bump Metrics.restores
      end
    done;
    let outgoing =
      Array.mapi (fun v s -> if alive v then Some (emit v s) else None) states
    in
    for v = 0 to n - 1 do
      match outgoing.(v) with
      | None -> ()
      | Some msg ->
          (* One size per sender: only a corrupted copy can differ. *)
          let msg_bits = match size with Some size -> size msg | None -> 0 in
          Array.iter
            (fun u ->
              let f = Linksem.fate fp ~round:abs ~src:v ~dst:u ?corrupt ?digest msg in
              Linksem.record ?trace:tr ~metrics ~round:abs ~src:v ~dst:u f;
              List.iter
                (fun (c : _ Linksem.copy) ->
                  (* Bits are metered per transmitted copy: dropped messages
                     never hit the wire, duplicates pay twice, and quarantined
                     copies stay billed — they did hit the wire. *)
                  (match size with
                  | Some size when c.Linksem.c_corrupted ->
                      t.bits <- t.bits + size c.Linksem.c_msg
                  | _ -> t.bits <- t.bits + msg_bits);
                  t.msgs <- t.msgs + 1;
                  if c.Linksem.c_quarantined then
                    t.quarantined <- t.quarantined + 1
                  else begin
                    let slot = round + c.Linksem.c_delay in
                    if slot < rounds then
                      inboxes.(slot).(u) <- c.Linksem.c_msg :: inboxes.(slot).(u)
                    else
                      match carry with
                      | Some cr ->
                          t.pending <-
                            {
                              sent = abs;
                              arrive = base + slot;
                              p_src = v;
                              p_dst = u;
                              p_copy = c.Linksem.c_index;
                              payload = cr.inj c.Linksem.c_msg;
                            }
                            :: t.pending
                      | None ->
                          (* No carrier to park on: lost in transit. *)
                          t.dead_letters <- t.dead_letters + 1;
                          if metrics then Metrics.add Metrics.dead_letters 1
                  end)
                f.Linksem.f_copies)
            (Graph.neighbors t.graph v)
    done;
    for v = 0 to n - 1 do
      let inbox = inboxes.(round).(v) in
      if alive v then begin
        t.delivered <- t.delivered + List.length inbox;
        states.(v) <- merge v states.(v) (List.rev inbox)
      end
      else begin
        (* Copies arriving at a down node are dead letters, so
           sent = delivered + pending + quarantined + dead stays exact. *)
        let k = List.length inbox in
        if k > 0 then begin
          t.dead_letters <- t.dead_letters + k;
          if metrics then Metrics.add Metrics.dead_letters k
        end
      end
    done
  done;
  (states, !catchup)

(* Pluggable executor for faulty plans: {!Ls_shard.Exec} installs a
   transport that runs the phase across worker processes.  The hook
   replaces only the executor interior — the wrapper below keeps phase
   events, clock advance, round charging and phase metrics, so a
   transport is responsible for exactly what [run_rounds] does:
   mutate the network's meters/pending/checkpoint state (via
   {!Internal}), emit interior fault events to [trace], and return the
   final states with the catch-up round count.

   The field is a polymorphic record so one installed transport serves
   every (input, message, state) instantiation.  Process-global (an
   atomic), matching the ambient trace sink's scoping. *)
type transport = {
  exec :
    'i 'm 's.
    'i t ->
    rounds:int ->
    size:('m -> int) option ->
    corrupt:(round:int -> src:int -> dst:int -> 'm -> 'm) option ->
    digest:('m -> int) option ->
    ckpt:'s carrier option ->
    carry:'m carrier option ->
    trace:Trace.t option ->
    init:(int -> 's) ->
    emit:(int -> 's -> 'm) ->
    merge:(int -> 's -> 'm list -> 's) ->
    's array * int;
}

let transport_cell : transport option Atomic.t = Atomic.make None
let set_transport tp = Atomic.set transport_cell tp
let transport () = Atomic.get transport_cell

let run_broadcast t ~rounds ?size ?corrupt ?digest ?ckpt ?carry
    ?(label = "broadcast") ?trace ~init ~emit ~merge () =
  if rounds < 0 then invalid_arg "Network.run_broadcast: negative rounds";
  let tr = sink t trace in
  let metrics = Metrics.enabled () in
  let bits0 = t.bits and msgs0 = t.msgs in
  (match tr with
  | Some s -> Trace.emit s (Trace.Phase_start { label; clock = t.clock })
  | None -> ());
  (* Zero-fault phases stay in-process even with a transport installed. *)
  let states, catchup =
    match transport () with
    | Some tp when not (Faults.is_none t.faults) ->
        tp.exec t ~rounds ~size ~corrupt ~digest ~ckpt ~carry ~trace:tr ~init
          ~emit ~merge
    | _ ->
        run_rounds t ~rounds ?size ?corrupt ?digest ?ckpt ?carry ~trace:tr
          ~init ~emit ~merge ()
  in
  (* The clock counts broadcast rounds only (fault verdict coordinates);
     catch-up replay by recovering nodes is charged to the rounds meter on
     top — the phase honestly costs its length plus the longest replay. *)
  t.clock <- t.clock + rounds;
  charge t (rounds + catchup);
  (match tr with
  | Some s ->
      Trace.emit s
        (Trace.Phase_end
           {
             label;
             clock = t.clock;
             rounds = rounds + catchup;
             bits = t.bits - bits0;
             messages = t.msgs - msgs0;
           })
  | None -> ());
  if metrics then begin
    Metrics.bump Metrics.phases;
    Metrics.add Metrics.rounds (rounds + catchup);
    Metrics.add Metrics.bits (t.bits - bits0);
    Metrics.add Metrics.messages (t.msgs - msgs0)
  end;
  states

(* All flood phases over one network share a carrier, so a copy delayed
   past one flood's end is delivered to the next flood on this network. *)
let flood_carrier t =
  match t.flood_carry with
  | Some c -> c
  | None ->
      let c = carrier () in
      t.flood_carry <- Some c;
      c

(* Order-sensitive digest of a flood message's adjacency data (vertex ids
   and neighbor lists; inputs are caller-typed and our corruption model
   only garbles adjacency).  Imap.fold visits keys in sorted order, so the
   digest is deterministic. *)
let flood_digest m =
  let mix h x = h lxor (x + 0x9e3779b9 + (h lsl 6) + (h lsr 2)) in
  Imap.fold
    (fun v (_, nbrs) h -> List.fold_left mix (mix (mix h v) (List.length nbrs)) nbrs)
    m 0

(* Deterministic garbling: splice a phantom (negative, hence impossible)
   neighbor id into the sender's own record. *)
let flood_corrupt ~round ~src ~dst:_ m =
  match Imap.find_opt src m with
  | Some (inp, nbrs) -> Imap.add src (inp, (-(round + 1)) :: nbrs) m
  | None -> m

(* Flood logic parameterized over the broadcast runner, so the
   asynchronous executor reuses the record/digest/corrupt/BFS pipeline
   verbatim: only the message-passing engine underneath differs. *)
let flood_views_with ~run t ~radius =
  let n = Graph.n t.graph in
  let record v = (t.inputs.(v), Array.to_list (Graph.neighbors t.graph v)) in
  (* Message size: 64 bits per id (the vertex and each of its neighbors);
     inputs are not counted, being of caller-chosen type. *)
  let size m =
    Imap.fold (fun _ (_, nbrs) acc -> acc + (64 * (1 + List.length nbrs))) m 0
  in
  (* Flood state and message types coincide, so the shared flood carrier
     doubles as the checkpoint witness: a node that crashes mid-flood and
     recovers resumes from everything it had learned. *)
  let states =
    run ~rounds:radius ~size ~corrupt:flood_corrupt ~digest:flood_digest
      ~ckpt:(flood_carrier t) ~carry:(flood_carrier t)
      ~label:(Printf.sprintf "flood(radius=%d)" radius)
      ~init:(fun v -> Imap.singleton v (record v))
      ~emit:(fun _ s -> s)
      ~merge:(fun _ s inbox ->
        List.fold_left
          (fun acc m -> Imap.union (fun _ a _ -> Some a) acc m)
          s inbox)
  in
  Array.init n (fun v ->
      let known = states.(v) in
      (* Distances from the flooded adjacency data only. *)
      let dist = Hashtbl.create (2 * Imap.cardinal known) in
      let queue = Queue.create () in
      Hashtbl.replace dist v 0;
      Queue.add v queue;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        let d = Hashtbl.find dist u in
        if d < radius then
          match Imap.find_opt u known with
          | None -> ()
          | Some (_, nbrs) ->
              List.iter
                (fun w ->
                  if Imap.mem w known && not (Hashtbl.mem dist w) then begin
                    Hashtbl.replace dist w (d + 1);
                    Queue.add w queue
                  end)
                nbrs
      done;
      (* The ball is exactly the vertices reached within [radius]; flooding
         may also have leaked ids at distance radius+... no: a record takes
         dist(u,v) rounds to arrive, so everything known is within radius.
         Under faults the reachable set can be a strict subset of the true
         ball (dropped or late records): the view is then partial, which
         {!view_is_complete} detects. *)
      let ball =
        Array.of_list
          (List.filter (fun u -> Hashtbl.mem dist u) (List.map fst (Imap.bindings known)))
      in
      view_of_ball t ~v ~radius ~ball ~dist_center:(Array.map (Hashtbl.find dist) ball))

let flood_views ?trace t ~radius =
  flood_views_with t ~radius
    ~run:(fun ~rounds ~size ~corrupt ~digest ~ckpt ~carry ~label ~init ~emit
              ~merge ->
      run_broadcast t ~rounds ~size ~corrupt ~digest ~ckpt ~carry ~label
        ?trace ~init ~emit ~merge ())

(* Accessors for the sibling executor (Ls_local.Async) only: hidden from
   the documented surface, not from the module system. *)
module Internal = struct
  type nonrec packet = packet = {
    sent : int;
    arrive : int;
    p_src : int;
    p_dst : int;
    p_copy : int;
    payload : univ;
  }

  type nonrec 'i flood_msg = 'i flood_msg

  let inject c m = c.inj m
  let project c u = c.prj u
  let pending t = t.pending
  let set_pending t ps = t.pending <- ps
  let crash_at t = t.crash_at
  let recover_at t = t.recover_at
  let crash_seen t v = t.crash_seen.(v)
  let set_crash_seen t v = t.crash_seen.(v) <- true
  let ckpt t v = t.ckpt_store.(v)
  let set_ckpt t v u = t.ckpt_store.(v) <- u
  let partition_active t = t.partition_active
  let set_partition_active t a = t.partition_active <- a
  let add_bits t k = t.bits <- t.bits + k
  let add_msgs t k = t.msgs <- t.msgs + k
  let add_quarantined t k = t.quarantined <- t.quarantined + k
  let add_dead_letters t k = t.dead_letters <- t.dead_letters + k
  let add_delivered t k = t.delivered <- t.delivered + k
  let advance_clock t r = t.clock <- t.clock + r
  let sink = sink
  let flood_views_via = flood_views_with
end
