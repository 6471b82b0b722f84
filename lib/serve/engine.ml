(* The serving engine: the stable API split out of the CLI harness.

   Spec parsing (graph, model, oracle) lives here with Result types — the
   CLI converts an [Error] to its exit-2 path, the daemon to an [Error_r]
   response; both reject exactly the same values with the same words.

   A batch executes in deterministic stages:
   1. group requests by compiled-instance key, building or cache-loading
      each distinct key once, sequentially (so hit/miss counts are a pure
      function of the request stream);
   2. derive per-trial sample seeds sequentially (the same seed-split
      shape as the CLI's sample_many, so `locsample sample` and a serve
      request with the same seed draw the same trials);
   3. compile missing plans in parallel over the Ls_par pool (Par.map is
      order-preserving), then insert them in key order;
   4. run all sample trials of all requests in ONE Par.map — this is the
      batching win: k coalesced requests for the same model share one
      fan-out and the compiled instance;
   5. assemble bodies sequentially in request order.

   Stages 1, 2, 3-insert and 5 touch the caches and counters from the
   submitting thread only (the Lru is single-owner by design); stages 3
   and 4 are pure per-item computations, so the response bodies are a
   pure function of the request bytes at any domain count. *)

module Graph = Ls_graph.Graph
module Generators = Ls_graph.Generators
module Dist = Ls_dist.Dist
module Empirical = Ls_dist.Empirical
module Rng = Ls_rng.Rng
module Par = Ls_par.Par
module Models = Ls_gibbs.Models
module Matching = Ls_gibbs.Matching
module Metrics = Ls_obs.Metrics
module Trace = Ls_obs.Trace
module Health = Ls_obs.Health
module Codec = Ls_sketch.Codec
open Ls_core

(* --- spec parsing (Result-typed; the CLI front-end wraps these) ------- *)

let int_field name s =
  match int_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s expects an integer, got %S" name s)

let float_field name s =
  match float_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s expects a number, got %S" name s)

let parse_graph rng spec =
  let ( let* ) = Result.bind in
  let dims name dims k =
    match String.split_on_char 'x' dims with
    | [ a; b ] ->
        let* a = int_field name a in
        let* b = int_field name b in
        k a b
    | _ -> Error name
  in
  match String.split_on_char ':' spec with
  | [ "cycle"; n ] ->
      let* n = int_field "cycle" n in
      Ok (Generators.cycle n)
  | [ "path"; n ] ->
      let* n = int_field "path" n in
      Ok (Generators.path n)
  | [ "tree-rand"; n ] ->
      let* n = int_field "tree-rand" n in
      Ok (Generators.random_tree rng n)
  | [ "grid"; d ] -> dims "grid wants ROWSxCOLS" d (fun r c -> Ok (Generators.grid r c))
  | [ "tree"; d ] ->
      dims "tree wants BRANCHINGxDEPTH" d (fun b depth ->
          Ok (Generators.complete_tree ~branching:b ~depth))
  | [ "regular"; d ] ->
      dims "regular wants NxDEGREE" d (fun n deg ->
          Ok (Generators.random_regular rng ~n ~d:deg))
  | _ -> Error (Printf.sprintf "cannot parse graph %S" spec)

type model = {
  spec : Ls_gibbs.Spec.t;
  describe : string;
  render : int array -> string;
}

(* A library constructor rejects a bad value with [Invalid_argument];
   here that becomes an [Error] naming what was parsed. *)
let rejects what f =
  match f () with
  | v -> Ok v
  | exception Invalid_argument msg -> Error (Printf.sprintf "%s: %s" what msg)

let parse_model g spec =
  let ( let* ) = Result.bind in
  let render_binary sigma =
    String.concat "" (List.map string_of_int (Array.to_list sigma))
  in
  let render_csv sigma =
    String.concat "," (List.map string_of_int (Array.to_list sigma))
  in
  (* The spec's weight tables hold n·q + 2m·q² floats over the graph it
     lives on: checked against the cap before anything is built. *)
  let build ~n ~m q make =
    let fq = float_of_int q in
    let size = (float_of_int n *. fq) +. (2. *. float_of_int m *. fq *. fq) in
    if size > float_of_int Protocol.max_table then
      Error
        (Printf.sprintf "model %S needs %.0f weight-table entries, over the cap of %d"
           spec size Protocol.max_table)
    else rejects (Printf.sprintf "model %S" spec) make
  in
  let on_graph q make = build ~n:(Graph.n g) ~m:(Graph.m g) q make in
  match String.split_on_char ':' spec with
  | [ "hardcore"; l ] ->
      let* lambda = float_field "hardcore" l in
      on_graph 2 (fun () ->
          {
            spec = Models.hardcore g ~lambda;
            describe = Printf.sprintf "hardcore(lambda=%g)" lambda;
            render = render_binary;
          })
  | [ "ising"; b ] | [ "ising"; b; _ ] ->
      let* beta = float_field "ising" b in
      let* field =
        match String.split_on_char ':' spec with
        | [ _; _; f ] -> float_field "ising field" f
        | _ -> Ok 1.
      in
      on_graph 2 (fun () ->
          {
            spec = Models.ising g ~beta ~field;
            describe = Printf.sprintf "ising(beta=%g, field=%g)" beta field;
            render = render_binary;
          })
  | [ "potts"; q; b ] ->
      let* q = int_field "potts" q in
      let* beta = float_field "potts" b in
      on_graph q (fun () ->
          {
            spec = Models.potts g ~q ~beta;
            describe = Printf.sprintf "potts(q=%d, beta=%g)" q beta;
            render = render_csv;
          })
  | [ "coloring"; q ] ->
      let* q = int_field "coloring" q in
      on_graph q (fun () ->
          {
            spec = Models.coloring g ~q;
            describe = Printf.sprintf "coloring(q=%d)" q;
            render = render_csv;
          })
  | [ "matching"; l ] ->
      let* lambda = float_field "matching" l in
      (* Hardcore on the line graph: a vertex per edge, an edge per pair
         of edges sharing an endpoint. *)
      let pairs = ref 0 in
      for v = 0 to Graph.n g - 1 do
        let d = Graph.degree g v in
        pairs := !pairs + (d * (d - 1) / 2)
      done;
      build ~n:(Graph.m g) ~m:!pairs 2 (fun () ->
          let m = Matching.make g ~lambda in
          {
            spec = m.Matching.spec;
            describe =
              Printf.sprintf "matching(lambda=%g) [on the line graph]" lambda;
            render =
              (fun sigma ->
                String.concat " "
                  (List.map
                     (fun (u, v) -> Printf.sprintf "%d-%d" u v)
                     (Matching.matching_of_config m sigma)));
          })
  | _ -> Error (Printf.sprintf "cannot parse model %S" spec)

let make_oracle ~engine ~t inst =
  Result.bind (Protocol.check_t t) @@ fun () ->
  match engine with
  | "ball" -> Ok (Inference.ssm_oracle ~t inst)
  | "saw" -> rejects "engine \"saw\"" (fun () -> Inference.saw_oracle ~depth:t inst)
  | other -> Error (Printf.sprintf "unknown engine %S (ball|saw)" other)

(* --- compiled instances ----------------------------------------------- *)

type compiled = {
  c_graph : Graph.t;
  c_model : model;
  c_inst : Instance.t;
  c_oracle : Inference.oracle;
  c_spec : Protocol.request;
      (* Normalized rebuild spec (graph/model/t/engine/seed only): oracles
         hold closures, so snapshots persist the spec and recompile. *)
}

(* Graph families that consume randomness during construction: their
   instance (and therefore its cache key) depends on the request seed.
   Deterministic families share one cache entry across all seeds. *)
let seed_sensitive spec =
  let has_prefix p = String.length spec >= String.length p
                     && String.sub spec 0 (String.length p) = p in
  has_prefix "tree-rand:" || has_prefix "regular:"

let instance_key (r : Protocol.request) =
  (* Length-prefixing each variable component keeps the key injective
     even if a future spec syntax admits '|'. *)
  let base =
    Printf.sprintf "%d:%s|%d:%s|%d|%d:%s"
      (String.length r.Protocol.graph) r.Protocol.graph
      (String.length r.Protocol.model) r.Protocol.model
      r.Protocol.t
      (String.length r.Protocol.engine) r.Protocol.engine
  in
  if seed_sensitive r.Protocol.graph then
    Printf.sprintf "%s|%Lx" base r.Protocol.seed
  else base

(* The slice of a request a compiled instance actually depends on — two
   requests with the same instance_key normalize to the same spec, and a
   snapshot entry rebuilds from it bit-identically. *)
let normalize_spec (r : Protocol.request) =
  {
    Protocol.id = 0;
    op = Protocol.Sample;
    seed = (if seed_sensitive r.Protocol.graph then r.Protocol.seed else 0L);
    graph = r.Protocol.graph;
    model = r.Protocol.model;
    t = r.Protocol.t;
    engine = r.Protocol.engine;
    trials = 1;
    vertex = 0;
    deadline_ms = 0;
  }

let build_compiled ~max_vertices (r : Protocol.request) =
  let ( let* ) = Result.bind in
  (* Same derivation as the CLI's make_instance: the graph rng is seeded
     by the request seed directly. *)
  let rng = Rng.create r.Protocol.seed in
  let* c_graph = parse_graph rng r.Protocol.graph in
  if Graph.n c_graph > max_vertices then
    Error
      (Printf.sprintf "graph has %d vertices, over the per-request cap of %d"
         (Graph.n c_graph) max_vertices)
  else
    let* c_model = parse_model c_graph r.Protocol.model in
    let c_inst = Instance.unpinned c_model.spec in
    let* c_oracle = make_oracle ~engine:r.Protocol.engine ~t:r.Protocol.t c_inst in
    Ok { c_graph; c_model; c_inst; c_oracle; c_spec = normalize_spec r }

(* --- the engine ------------------------------------------------------- *)

type error = Bad_request of string | Overloaded | Internal of string

let error_body = function
  | Bad_request m -> Protocol.Error_r { code = Protocol.Bad_request; message = m }
  | Overloaded ->
      Protocol.Error_r { code = Protocol.Overloaded; message = "queue full" }
  | Internal m -> Protocol.Error_r { code = Protocol.Internal; message = m }

type t = {
  instances : compiled Lru.t;
  plans : Ls_local.Scheduler.plan Lru.t;
  max_vertices : int;
  mutable requests : int;
  mutable batches : int;
  mutable coalesced : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  (* Admission outcomes, owned by the server's accept loop. *)
  mutable rejected : int;
  mutable expired : int;
  mutable max_queue : int;
  (* Warm-start bookkeeping: keys restored from a snapshot, and the hits
     they have absorbed since boot. *)
  restored : (string, unit) Hashtbl.t;
  mutable snapshot_hits : int;
  (* Worker incarnation under supervision; 0 when never restarted. *)
  mutable restarts : int;
}

let create ?(instance_cache = 64) ?(plan_cache = 1024) ?(max_vertices = 100_000)
    () =
  {
    instances = Lru.create ~capacity:instance_cache;
    plans = Lru.create ~capacity:plan_cache;
    max_vertices;
    requests = 0;
    batches = 0;
    coalesced = 0;
    cache_hits = 0;
    cache_misses = 0;
    rejected = 0;
    expired = 0;
    max_queue = 0;
    restored = Hashtbl.create 64;
    snapshot_hits = 0;
    restarts = 0;
  }

let note_rejection t =
  t.rejected <- t.rejected + 1;
  Metrics.bump Metrics.serve_rejections

let note_expiry t =
  t.expired <- t.expired + 1;
  Metrics.bump Metrics.serve_expired

let set_restarts t n = t.restarts <- n
let note_queue_depth t depth = if depth > t.max_queue then t.max_queue <- depth

let stats t =
  {
    Protocol.st_requests = t.requests;
    st_batches = t.batches;
    st_coalesced = t.coalesced;
    st_cache_hits = t.cache_hits;
    st_cache_misses = t.cache_misses;
    st_evictions = Lru.evictions t.instances + Lru.evictions t.plans;
    st_rejected = t.rejected;
    st_expired = t.expired;
    st_snapshot_hits = t.snapshot_hits;
    st_restarts = t.restarts;
    st_max_queue = t.max_queue;
    st_domains = Par.domains ();
  }

let cache_lookup t lru key =
  match Lru.find lru key with
  | Some v ->
      t.cache_hits <- t.cache_hits + 1;
      Metrics.bump Metrics.serve_cache_hits;
      if Hashtbl.mem t.restored key then begin
        t.snapshot_hits <- t.snapshot_hits + 1;
        Metrics.bump Metrics.serve_snapshot_hits
      end;
      Some v
  | None ->
      t.cache_misses <- t.cache_misses + 1;
      Metrics.bump Metrics.serve_cache_misses;
      None

let cache_insert _t lru key v =
  let before = Lru.evictions lru in
  Lru.add lru key v;
  for _ = 1 to Lru.evictions lru - before do
    Metrics.bump Metrics.serve_cache_evictions
  done

(* Per-trial sample seeds: the same split shape as the CLI's non-faulty
   sample_many run_one (stream i of the request seed, one bits64 draw). *)
let trial_seeds seed trials =
  let rngs = Rng.streams seed trials in
  Array.map Rng.bits64 rngs

let plan_key ikey sseed = Printf.sprintf "%s|p%Lx" ikey sseed

let run_batch t ?domains ?trace (requests : Protocol.request list) :
    (Protocol.body, error) result list =
  let n_requests = List.length requests in
  t.requests <- t.requests + n_requests;
  t.batches <- t.batches + 1;
  let hits0 = t.cache_hits in
  (* Stage 1: one compiled instance per distinct key, first-occurrence
     order.  Requests whose build fails carry their error forward. *)
  let built : (string, (compiled, error) result) Hashtbl.t = Hashtbl.create 16 in
  let coalesced = ref 0 in
  let resolved =
    List.map
      (fun (r : Protocol.request) ->
        match r.Protocol.op with
        | Protocol.Stats | Protocol.Health -> (r, Ok None)
        | _ -> (
            let key = instance_key r in
            match Hashtbl.find_opt built key with
            | Some (Ok c) ->
                incr coalesced;
                (r, Ok (Some (key, c)))
            | Some (Error e) -> (r, Error e)
            | None -> (
                match cache_lookup t t.instances key with
                | Some c ->
                    Hashtbl.replace built key (Ok c);
                    (r, Ok (Some (key, c)))
                | None -> (
                    match build_compiled ~max_vertices:t.max_vertices r with
                    | Ok c ->
                        cache_insert t t.instances key c;
                        Hashtbl.replace built key (Ok c);
                        (r, Ok (Some (key, c)))
                    | Error msg ->
                        let e = Bad_request msg in
                        Hashtbl.replace built key (Error e);
                        (r, Error e)))))
      requests
  in
  t.coalesced <- t.coalesced + !coalesced;
  (* Stage 2: per-trial seeds for every admissible Sample request.  Jobs
     carry their batch position: request ids are client-chosen and may
     collide across the connections batched together, so nothing
     downstream keys on them. *)
  let sample_jobs =
    List.filter_map
      (fun (pos, ((r : Protocol.request), res)) ->
        match (r.Protocol.op, res) with
        | Protocol.Sample, Ok (Some (key, c)) ->
            Some (pos, r, key, c, trial_seeds r.Protocol.seed r.Protocol.trials)
        | _ -> None)
      (List.mapi (fun pos rr -> (pos, rr)) resolved)
  in
  (* Stage 3: plans.  Sequential lookups (deterministic hit counts), one
     parallel Par.map over the misses, insertions in deduped key order. *)
  let plan_table : (string, Ls_local.Scheduler.plan) Hashtbl.t =
    Hashtbl.create 64
  in
  let missing = ref [] (* (pkey, compiled, sseed), reverse order *) in
  let pending : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (_pos, _r, ikey, c, sseeds) ->
      Array.iter
        (fun sseed ->
          let pkey = plan_key ikey sseed in
          if not (Hashtbl.mem plan_table pkey || Hashtbl.mem pending pkey)
          then
            match cache_lookup t t.plans pkey with
            | Some p -> Hashtbl.replace plan_table pkey p
            | None ->
                (* Reserve so a duplicate trial seed in this batch
                   compiles once; filled after the parallel map. *)
                Hashtbl.replace pending pkey ();
                missing := (pkey, c, sseed) :: !missing)
        sseeds)
    sample_jobs;
  let missing = Array.of_list (List.rev !missing) in
  let compiled_plans =
    Par.map ?domains
      (fun (_pkey, c, sseed) ->
        Local_sampler.plan c.c_oracle c.c_inst ~seed:sseed)
      missing
  in
  Array.iteri
    (fun i (pkey, _c, _sseed) ->
      Hashtbl.replace plan_table pkey compiled_plans.(i);
      cache_insert t t.plans pkey compiled_plans.(i))
    missing;
  (* Stage 4: every trial of every sample request in one fan-out. *)
  let all_trials =
    Array.concat
      (List.map
         (fun (_pos, _r, ikey, c, sseeds) ->
           Array.map
             (fun sseed ->
               (c, Hashtbl.find plan_table (plan_key ikey sseed), sseed))
             sseeds)
         sample_jobs)
  in
  let trial_results =
    Par.map ?domains
      (fun (c, plan, sseed) ->
        let r = Local_sampler.sample_planned c.c_oracle ~plan c.c_inst ~seed:sseed in
        (r.Local_sampler.success, r.Local_sampler.sigma))
      all_trials
  in
  (* Stage 5: assemble bodies in request order. *)
  let cursor = ref 0 in
  let take k =
    let out = Array.sub trial_results !cursor k in
    cursor := !cursor + k;
    out
  in
  let sample_bodies : Protocol.body option array = Array.make n_requests None in
  List.iter
    (fun (pos, (r : Protocol.request), _ikey, _c, sseeds) ->
      let results = take (Array.length sseeds) in
      let emp = Empirical.create () in
      Array.iter (fun (ok, y) -> if ok then Empirical.add emp y) results;
      let first =
        match Array.find_opt fst results with
        | Some (_, y) -> y
        | None -> [||]
      in
      sample_bodies.(pos) <-
        Some
          (Protocol.Sample_r
             {
               trials = r.Protocol.trials;
               successes = Empirical.total emp;
               distinct = Empirical.distinct emp;
               first;
             }))
    sample_jobs;
  let bodies =
    List.mapi
      (fun pos ((r : Protocol.request), res) ->
        match res with
        | Error e -> Error e
        | Ok None -> (
            match r.Protocol.op with
            | Protocol.Health ->
                Ok (Protocol.Health_r { reasons = Health.degraded () })
            | _ -> Ok (Protocol.Stats_r (stats t)))
        | Ok (Some (_key, c)) -> (
            match r.Protocol.op with
            | Protocol.Sample -> (
                match sample_bodies.(pos) with
                | Some b -> Ok b
                | None -> Error (Internal "sample body missing for batch slot"))
            | Protocol.Infer ->
                if r.Protocol.vertex >= Graph.n c.c_graph then
                  Error
                    (Bad_request
                       (Printf.sprintf "vertex %d out of range (graph has %d)"
                          r.Protocol.vertex (Graph.n c.c_graph)))
                else
                  let d = c.c_oracle.Inference.infer c.c_inst r.Protocol.vertex in
                  Ok (Protocol.Infer_r { probs = Array.copy (d :> float array) })
            | Protocol.Count ->
                let order = Array.init (Instance.n c.c_inst) (fun i -> i) in
                let log_z =
                  Reductions.estimate_log_partition c.c_oracle c.c_inst ~order
                in
                Ok (Protocol.Count_r { log_z })
            | Protocol.Stats -> Ok (Protocol.Stats_r (stats t))
            | Protocol.Health ->
                Ok (Protocol.Health_r { reasons = Health.degraded () })))
      resolved
  in
  Metrics.add Metrics.serve_requests n_requests;
  Metrics.bump Metrics.serve_batches;
  Metrics.add Metrics.serve_coalesced !coalesced;
  (match Trace.resolve trace with
  | Some s ->
      Trace.emit s
        (Trace.Serve_batch
           {
             requests = n_requests;
             coalesced = !coalesced;
             cache_hits = t.cache_hits - hits0;
           })
  | None -> ());
  bodies

let submit_batch t ?domains ?trace requests =
  try run_batch t ?domains ?trace requests
  with exn ->
    (* A payload exception must not kill the daemon: the whole batch
       reports Internal (per-request isolation would hide which request
       poisoned the shared fan-out). *)
    let e = Internal (Printexc.to_string exn) in
    List.map (fun _ -> Error e) requests

let submit t ?domains ?trace request =
  match submit_batch t ?domains ?trace [ request ] with
  | [ r ] -> r
  | _ -> Error (Internal "submit: batch arity mismatch")

(* --- warm-start snapshots ---------------------------------------------- *)

(* The caches serialized as pure data: plans field by field, compiled
   instances as their normalized rebuild spec (recompiled on restore).
   The payload is wrapped in a Ckpt envelope by the server, which
   contributes atomicity and a digest; the bounds here only keep a
   corrupt-but-digest-valid payload from sizing absurd allocations. *)

let snapshot_magic = "LSSV"
let snapshot_version = 1
let max_snapshot_key = 4096
let max_snapshot_entries = 1 lsl 20

let read_string = Codec.read_string ~what:"Engine: snapshot string"

let read_count s cur ~what =
  Result.bind (Codec.read_int s cur) (fun n ->
      if n < 0 || n > max_snapshot_entries then
        Error (Printf.sprintf "Engine: snapshot %s count %d out of range" what n)
      else if n > Codec.remaining s cur then
        Error (Printf.sprintf "Engine: snapshot %s count exceeds bytes present" what)
      else Ok n)

let add_plan buf (p : Ls_local.Scheduler.plan) =
  Codec.add_int buf p.Ls_local.Scheduler.p_locality;
  Codec.add_int buf (Array.length p.p_order);
  Array.iter (fun v -> Codec.add_int buf v) p.p_order;
  Codec.add_int buf (Array.length p.p_failed);
  Array.iter (fun b -> Codec.add_int buf (if b then 1 else 0)) p.p_failed;
  Codec.add_int buf p.p_rounds;
  Codec.add_int buf p.p_decomposition_rounds;
  Codec.add_int buf p.p_colors;
  Codec.add_int buf p.p_clusters;
  Codec.add_int buf p.p_max_cluster_radius;
  Codec.add_int buf p.p_failures

let read_plan s cur =
  let ( let* ) = Result.bind in
  let read_array ~of_int =
    let* len = read_count s cur ~what:"plan array" in
    let out = Array.make (max len 1) (of_int 0) in
    let rec go i =
      if i = len then Ok (Array.sub out 0 len)
      else
        let* v = Codec.read_int s cur in
        out.(i) <- of_int v;
        go (i + 1)
    in
    go 0
  in
  let* p_locality = Codec.read_int s cur in
  let* p_order = read_array ~of_int:Fun.id in
  let* p_failed = read_array ~of_int:(fun v -> v <> 0) in
  let* p_rounds = Codec.read_int s cur in
  let* p_decomposition_rounds = Codec.read_int s cur in
  let* p_colors = Codec.read_int s cur in
  let* p_clusters = Codec.read_int s cur in
  let* p_max_cluster_radius = Codec.read_int s cur in
  let* p_failures = Codec.read_int s cur in
  Ok
    {
      Ls_local.Scheduler.p_locality;
      p_order;
      p_failed;
      p_rounds;
      p_decomposition_rounds;
      p_colors;
      p_clusters;
      p_max_cluster_radius;
      p_failures;
    }

let snapshot t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf snapshot_magic;
  Codec.add_int buf snapshot_version;
  let instances = Lru.to_list t.instances in
  Codec.add_int buf (List.length instances);
  List.iter
    (fun (key, c) ->
      Codec.add_string buf key;
      Codec.add_string buf c.c_spec.Protocol.graph;
      Codec.add_string buf c.c_spec.Protocol.model;
      Codec.add_int buf c.c_spec.Protocol.t;
      Codec.add_string buf c.c_spec.Protocol.engine;
      Codec.add_i64 buf c.c_spec.Protocol.seed)
    instances;
  let plans = Lru.to_list t.plans in
  Codec.add_int buf (List.length plans);
  List.iter
    (fun (key, p) ->
      Codec.add_string buf key;
      add_plan buf p)
    plans;
  Buffer.contents buf

let restore t s =
  let ( let* ) = Result.bind in
  let cur = ref 0 in
  let* () = Codec.read_magic s cur snapshot_magic in
  let* v = Codec.read_int s cur in
  if v <> snapshot_version then Error "Engine: unknown snapshot version"
  else begin
    let restored = ref 0 in
    let mark key =
      Hashtbl.replace t.restored key ();
      incr restored
    in
    let* n_inst = read_count s cur ~what:"instance" in
    let rec load_inst i =
      if i = n_inst then Ok ()
      else
        let* key = read_string s cur ~cap:max_snapshot_key in
        let* graph = read_string s cur ~cap:Protocol.max_spec_len in
        let* model = read_string s cur ~cap:Protocol.max_spec_len in
        let* tt = Codec.read_int s cur in
        let* engine = read_string s cur ~cap:Protocol.max_spec_len in
        let* seed = Codec.read_i64 s cur in
        let spec =
          {
            Protocol.id = 0;
            op = Protocol.Sample;
            seed;
            graph;
            model;
            t = tt;
            engine;
            trials = 1;
            vertex = 0;
            deadline_ms = 0;
          }
        in
        (* An entry the current config refuses to rebuild (e.g. a smaller
           max_vertices) is dropped, not fatal: warm-start is best-effort. *)
        (match build_compiled ~max_vertices:t.max_vertices spec with
        | Ok c ->
            Lru.add t.instances key c;
            mark key
        | Error _ -> ());
        load_inst (i + 1)
    in
    let* () = load_inst 0 in
    let* n_plans = read_count s cur ~what:"plan" in
    let rec load_plan i =
      if i = n_plans then Ok ()
      else
        let* key = read_string s cur ~cap:max_snapshot_key in
        let* p = read_plan s cur in
        Lru.add t.plans key p;
        mark key;
        load_plan (i + 1)
    in
    let* () = load_plan 0 in
    if Codec.remaining s cur <> 0 then
      Error "Engine: trailing bytes after snapshot"
    else Ok !restored
  end
