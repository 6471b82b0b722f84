(* Global counters, enabled-flag guarded.  Sums are order-independent, so
   every value except the per-domain split is invariant under the domain
   count. *)

type counter = {
  name : string;
  group : string;  (* the [--metrics] line it prints on *)
  cell : int Atomic.t;
  mutable slot : int;  (* index into [snapshot.counts]; fixed at init *)
}

type pool = {
  batches : int;
  items : int;
  max_queue : int;
  per_domain : int array;
}

type snapshot = { counts : int array; latency_hist : int array; pool : pool }

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b
let add c k = if enabled () then ignore (Atomic.fetch_and_add c.cell k)
let bump c = add c 1

(* The registry.  Each counter is declared exactly once, below, grouped by
   display line in print order; the docs live on the [val]s in the .mli. *)
let declared = ref []

let def group name =
  let c = { name; group; cell = Atomic.make 0; slot = -1 } in
  declared := c :: !declared;
  c

let phases = def "local" "phases"
let rounds = def "local" "rounds"
let bits = def "local" "bits"
let messages = def "local" "messages"
let drops = def "faults" "drops"
let duplicates = def "faults" "duplicates"
let delays = def "faults" "delays"
let corruptions = def "faults" "corruptions"
let crashes = def "faults" "crashes"
let partitions = def "recovery" "partitions"
let heals = def "recovery" "heals"
let checkpoints = def "recovery" "checkpoints"
let restores = def "recovery" "restores"
let quarantines = def "recovery" "quarantines"
let dead_letters = def "recovery" "dead_letters"
let attempts = def "supervision" "attempts"
let retries = def "supervision" "retries"
let backoff_rounds = def "supervision" "backoff_rounds"
let degradations = def "supervision" "degradations"
let decompositions = def "decomposition" "decompositions"
let decomposition_failures = def "decomposition" "decomposition_failures"
let timeouts = def "async" "timeouts"
let retransmits = def "async" "retransmits"
let acks = def "async" "acks"
let barriers = def "async" "barriers"
let control_msgs = def "async" "control_msgs"
let late_letters = def "async" "late_letters"
let sketch_adds = def "sketch" "sketch_adds"
let sketch_merges = def "sketch" "sketch_merges"
let sketch_evictions = def "sketch" "sketch_evictions"
let shard_spawns = def "shards" "shard_spawns"
let shard_restarts = def "shards" "shard_restarts"
let shard_probes = def "shards" "shard_probes"
let serve_requests = def "serve" "serve_requests"
let serve_batches = def "serve" "serve_batches"
let serve_coalesced = def "serve" "serve_coalesced"
let serve_cache_hits = def "serve" "serve_cache_hits"
let serve_cache_misses = def "serve" "serve_cache_misses"
let serve_cache_evictions = def "serve" "serve_cache_evictions"
let serve_rejections = def "serve" "serve_rejections"
let serve_expired = def "serve-robustness" "serve_expired"
let serve_snapshot_hits = def "serve-robustness" "serve_snapshot_hits"
let serve_drains = def "serve-robustness" "serve_drains"
let sysfaults = def "resource-faults" "sysfaults"
let degraded_enters = def "resource-faults" "degraded_enters"
let degraded_exits = def "resource-faults" "degraded_exits"
let fork_retries = def "resource-faults" "fork_retries"
let ckpt_skips = def "resource-faults" "ckpt_skips"
let serve_snapshot_failures = def "resource-faults" "serve_snapshot_failures"
let serve_shed = def "resource-faults" "serve_shed"

(* Print order is declaration order; snapshot slots are name order, so a
   snapshot's layout depends on the set of names alone. *)
let in_print_order = List.rev !declared
let counters = List.sort (fun a b -> compare a.name b.name) in_print_order
let registry = Array.of_list counters
let () = Array.iteri (fun i c -> c.slot <- i) registry
let name c = c.name
let get s c = s.counts.(c.slot)

(* Virtual-latency histogram: exponential buckets doubling from 0.25
   virtual time units; the last bucket is open-ended. *)
let latency_bounds =
  [| 0.25; 0.5; 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256. |]

let latency_buckets = Array.length latency_bounds + 1
let latency_hist = Array.init latency_buckets (fun _ -> Atomic.make 0)

let record_latency l =
  let rec bucket i =
    if i < Array.length latency_bounds && not (l < latency_bounds.(i)) then
      bucket (i + 1)
    else i
  in
  if enabled () then ignore (Atomic.fetch_and_add latency_hist.(bucket 0) 1)

(* The pool-utilization group is one immutable record, replaced as a unit
   under [pool_lock]: a batch recorded while a snapshot or reset runs
   either lands entirely before it or entirely after, so derived
   invariants (items = sum of per_domain; items consistent with batches)
   never observe a torn update. *)
let pool_lock = Mutex.create ()
let no_pool = { batches = 0; items = 0; max_queue = 0; per_domain = [||] }
let pool = ref no_pool

(* Shared by [record_batch] and [absorb]; the caller checks [enabled]. *)
let add_pool d =
  Mutex.protect pool_lock (fun () ->
      let p = !pool in
      let at a i = if i < Array.length a then a.(i) else 0 in
      let n = max (Array.length p.per_domain) (Array.length d.per_domain) in
      pool :=
        {
          batches = p.batches + d.batches;
          items = p.items + d.items;
          max_queue = max p.max_queue d.max_queue;
          per_domain =
            Array.init n (fun i -> at p.per_domain i + at d.per_domain i);
        })

let record_batch ~items ~per_worker =
  if enabled () then
    add_pool { batches = 1; items; max_queue = items; per_domain = per_worker }

let snapshot () =
  {
    counts = Array.map (fun c -> Atomic.get c.cell) registry;
    latency_hist = Array.map Atomic.get latency_hist;
    pool = Mutex.protect pool_lock (fun () -> !pool);
  }

let reset () =
  Array.iter (fun c -> Atomic.set c.cell 0) registry;
  Array.iter (fun c -> Atomic.set c 0) latency_hist;
  Mutex.protect pool_lock (fun () -> pool := no_pool)

let empty =
  {
    counts = Array.make (Array.length registry) 0;
    latency_hist = Array.make latency_buckets 0;
    pool = no_pool;
  }

(* Merge a worker process's counter delta into this process's counters —
   the shard runtime resets in the (forked) worker, snapshots at its end,
   ships the snapshot, and the parent absorbs it here.  Everything sums
   except the max queue depth (a max); arrays add index-wise. *)
let absorb d =
  if enabled () then begin
    Array.iteri (fun i k -> add registry.(i) k) d.counts;
    Array.iteri
      (fun i k -> ignore (Atomic.fetch_and_add latency_hist.(i) k))
      d.latency_hist;
    add_pool d.pool
  end

let print oc s =
  let p fmt = Printf.fprintf oc fmt in
  p "metrics:\n";
  let rec groups = function
    | [] -> ()
    | c :: _ as cs ->
        let mine, rest = List.partition (fun d -> d.group = c.group) cs in
        if List.exists (fun d -> get s d <> 0) mine then
          p "  %s: %s\n" c.group
            (String.concat "  "
               (List.map
                  (fun d -> Printf.sprintf "%s %d" d.name (get s d))
                  mine));
        groups rest
  in
  groups in_print_order;
  if Array.exists (fun k -> k > 0) s.latency_hist then begin
    p "  latency:";
    Array.iteri
      (fun i k ->
        if k > 0 then
          if i < Array.length latency_bounds then
            p " <%g:%d" latency_bounds.(i) k
          else p " >=%g:%d" latency_bounds.(Array.length latency_bounds - 1) k)
      s.latency_hist;
    p "\n"
  end;
  let q = s.pool in
  p "  pool: batches %d  items %d  max_queue %d  per_domain [%s]\n" q.batches
    q.items q.max_queue
    (String.concat "; " (Array.to_list (Array.map string_of_int q.per_domain)))
