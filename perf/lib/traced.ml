(* The traced run (--trace 1): per-layer numbers for one workload, from
   three passes over the workload's request stream.

   1. Daemon pass: a live daemon at [Defs.domains] domain answers a
      closed-loop saturation phase; its wire Stats reply gives batching,
      coalescing and cache figures, and the client latency the server
      derivation needs.
   2. Replay pass, in a child at one domain so self times and minor-word
      counts carry no cross-domain effects: each unit of requests runs
      through the layers twice, untraced and traced (the order
      alternates), then through [Engine.submit_batch] at the daemon's mean
      batch size with codec spans around each message, then as singleton
      [Engine.submit] calls per op, and every vertex's ball is taken once.
   3. Par pass, in a child at [Defs.par_domains] domains: the stream's sample
      trials fanned out one daemon batch at a time, for the pool's
      efficiency.

   Spans come only from this file, wrapped around public calls; an
   inference span comes from a wrapped oracle. *)

module P = Ls_serve.Protocol
module Engine = Ls_serve.Engine
module Par = Ls_par.Par
open Ls_core

let now = Unix.gettimeofday
let max_units = 8

let compiler () =
  let cache = Hashtbl.create 64 in
  fun (r : P.request) ->
    let key = (r.P.graph, r.P.model, r.P.engine, r.P.t, r.P.seed) in
    match Hashtbl.find_opt cache key with
    | Some c -> c
    | None ->
        let c = Layers.compile r in
        Hashtbl.replace cache key c;
        c

(* One request through the layers; [sp] = None is the untraced path. *)
let through_layers sp (c : Layers.compiled) (r : P.request) =
  let span name f = match sp with Some s -> Spans.span s name f | None -> f () in
  let oracle =
    match sp with
    | None -> c.Layers.oracle
    | Some s ->
        let o = c.Layers.oracle in
        { o with Inference.infer = (fun i v -> Spans.span s "inference.infer" (fun () -> o.Inference.infer i v)) }
  in
  match r.P.op with
  | P.Sample ->
      Array.iter
        (fun seed ->
          span "sampler.trial" (fun () ->
              ignore
                (Layers.trial ~plan_span:(span "scheduler.plan")
                   ~run_span:(span "sampler.sample_planned") c oracle ~seed)))
        (Layers.trial_seeds r)
  | P.Infer -> ignore (oracle.Inference.infer c.Layers.inst r.P.vertex)
  | P.Count ->
      span "reductions.estimate_log_partition" (fun () ->
          let order = Array.init (Instance.n c.Layers.inst) Fun.id in
          ignore (Reductions.estimate_log_partition oracle c.Layers.inst ~order))
  | P.Stats | P.Health -> ()

type replay = {
  spans : Spans.span list;
  untraced_s : float;
  traced_s : float;
  requests : int;
  errors : string list;
}

let replay (w : Defs.workload) ~seed ~batch ~budget =
  Par.set_domains 1;
  let stream = Traffic.of_workload w ~seed in
  let compiled = compiler () in
  let sp = Spans.create w.Defs.name in
  let span name f = Spans.span sp name f in
  let engine = Engine.create () in
  let errors = ref [] in
  let submit_batch reqs =
    let results = Engine.submit_batch engine ~domains:1 reqs in
    List.iter
      (function
        | Ok _ -> ()
        | Error e -> (
            match Engine.error_body e with
            | P.Error_r { message; _ } -> errors := message :: !errors
            | _ -> ()))
      results;
    results
  in
  ignore (submit_batch stream.Traffic.warmup);
  let untraced = ref 0. and traced = ref 0. and requests = ref 0 in
  let start = now () in
  let units = ref 0 in
  while !units < max_units && (!units = 0 || now () -. start < budget) do
    let unit =
      List.init w.Defs.replay_unit (fun _ ->
          let r = { (stream.Traffic.next ()) with P.id = !requests } in
          incr requests;
          r)
    in
    List.iter (fun r -> ignore (compiled r)) unit;
    let timed sp =
      let t0 = now () in
      List.iter (fun r -> through_layers sp (compiled r) r) unit;
      now () -. t0
    in
    if !units mod 2 = 0 then begin
      untraced := !untraced +. timed None;
      traced := !traced +. timed (Some sp)
    end
    else begin
      traced := !traced +. timed (Some sp);
      untraced := !untraced +. timed None
    end;
    List.iter
      (fun chunk ->
        let wire =
          List.map
            (fun r ->
              let bytes = span "codec.request_encode" (fun () -> P.encode_request r) in
              match span "codec.request_decode" (fun () -> P.decode_request_bytes bytes) with
              | Ok r' -> r'
              | Error e -> failwith e)
            chunk
        in
        let results = span "engine.submit_batch" (fun () -> submit_batch wire) in
        List.iter2
          (fun (r : P.request) res ->
            match res with
            | Error _ -> ()
            | Ok body ->
                let bytes =
                  span "codec.response_encode" (fun () ->
                      P.encode_response { P.rid = r.P.id; body })
                in
                ignore (span "codec.response_decode" (fun () -> P.decode_response_bytes bytes)))
          chunk results)
      (Traffic.chunks batch unit);
    let r = List.hd unit in
    List.iter
      (fun (name, req) -> ignore (span name (fun () -> submit_batch [ req ])))
      [
        ("engine.op.sample", { r with P.op = P.Sample; trials = 1 });
        ("engine.op.infer", { r with P.op = P.Infer; trials = 1; vertex = 0 });
        ("engine.op.count", { r with P.op = P.Count; trials = 1 });
      ];
    let distinct =
      List.fold_left
        (fun acc r ->
          let c = compiled r in
          if List.memq c acc then acc else c :: acc)
        [] unit
    in
    List.iter
      (fun (c : Layers.compiled) ->
        let radius = c.Layers.oracle.Inference.radius in
        for v = 0 to Ls_graph.Graph.n c.Layers.graph - 1 do
          ignore (span "graph.ball" (fun () -> Ls_graph.Graph.ball c.Layers.graph v radius))
        done)
      (List.rev distinct);
    incr units
  done;
  {
    spans = Spans.spans sp;
    untraced_s = !untraced;
    traced_s = !traced;
    requests = !requests;
    errors = !errors;
  }

let par_pass (w : Defs.workload) ~seed ~batch ~budget =
  Par.set_domains Defs.par_domains;
  let stream = Traffic.of_workload w ~seed in
  let compiled = compiler () in
  let busy = ref 0. and wall = ref 0. and trials = ref 0 in
  let start = now () in
  while !trials = 0 || now () -. start < budget do
    let jobs =
      Array.concat
        (List.init batch (fun _ ->
             let r = stream.Traffic.next () in
             if r.P.op <> P.Sample then [||]
             else
               let c = compiled r in
               Array.map (fun s -> (c, s)) (Layers.trial_seeds r)))
    in
    let t0 = now () in
    let times =
      Par.map
        (fun ((c : Layers.compiled), seed) ->
          let t = now () in
          ignore (Layers.trial c c.Layers.oracle ~seed);
          now () -. t)
        jobs
    in
    wall := !wall +. (now () -. t0);
    Array.iter (fun t -> busy := !busy +. t) times;
    trials := !trials + Array.length jobs
  done;
  !busy /. (!wall *. float_of_int Defs.par_domains)

(* --- metrics from spans ------------------------------------------------- *)

let summarize (spans : Spans.span list) =
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun (s : Spans.span) ->
      Hashtbl.replace by_name s.Spans.name
        (s :: Option.value ~default:[] (Hashtbl.find_opt by_name s.Spans.name)))
    spans;
  let named n = Array.of_list (Option.value ~default:[] (Hashtbl.find_opt by_name n)) in
  let durs n = Array.map (fun s -> float_of_int (Spans.duration_ns s)) (named n) in
  let or_zero f xs = if Array.length xs = 0 then 0. else f xs in
  let mean n scale = or_zero Stats.mean (durs n) /. scale in
  let pct n p scale = or_zero (fun xs -> Stats.percentile xs p) (durs n) /. scale in
  let med n scale = or_zero Stats.median (durs n) /. scale in
  let words n = or_zero Stats.mean (Array.map (fun s -> s.Spans.minor_words) (named n)) in
  let self = Spans.self_ns spans in
  let self_of n = Array.map (fun s -> float_of_int (Hashtbl.find self s.Spans.id)) (named n) in
  let name_of = Hashtbl.create (List.length spans) in
  List.iter (fun (s : Spans.span) -> Hashtbl.replace name_of s.Spans.id s.Spans.name) spans;
  let infer_in_trials =
    Array.fold_left
      (fun acc (s : Spans.span) ->
        if Hashtbl.find_opt name_of s.Spans.parent = Some "sampler.sample_planned"
        then acc + 1
        else acc)
      0 (named "inference.infer")
  in
  let trials = Array.length (named "sampler.trial") in
  let trial_total = Array.fold_left ( +. ) 0. (durs "sampler.trial") in
  let trial_self = Array.fold_left ( +. ) 0. (self_of "sampler.trial") in
  ( [
      ("graph.ball_us", mean "graph.ball" 1e3);
      ("inference.infer_us_p50", pct "inference.infer" 0.5 1e3);
      ("inference.infer_us_p90", pct "inference.infer" 0.9 1e3);
      ( "inference.infer_calls_per_trial",
        if trials = 0 then 0. else float_of_int infer_in_trials /. float_of_int trials );
      ("inference.infer_minor_words", words "inference.infer");
      ("scheduler.plan_ms", mean "scheduler.plan" 1e6);
      ("scheduler.plan_minor_words", words "scheduler.plan");
      ("sampler.trial_ms", mean "sampler.trial" 1e6);
      ("sampler.self_ms", or_zero Stats.mean (self_of "sampler.sample_planned") /. 1e6);
      ("engine.batch_ms_p50", pct "engine.submit_batch" 0.5 1e6);
      ("engine.batch_ms_p99", pct "engine.submit_batch" 0.99 1e6);
      ("engine.op_ms_sample", med "engine.op.sample" 1e6);
      ("engine.op_ms_infer", med "engine.op.infer" 1e6);
      ("engine.op_ms_count", med "engine.op.count" 1e6);
      ("codec.request_encode_us", mean "codec.request_encode" 1e3);
      ("codec.request_decode_us", mean "codec.request_decode" 1e3);
      ("codec.response_encode_us", mean "codec.response_encode" 1e3);
      ("codec.response_decode_us", mean "codec.response_decode" 1e3);
    ],
    if trial_total = 0. then nan else 1. -. (trial_self /. trial_total) )

let run (w : Defs.workload) ~seed ~seconds ~spans_file =
  Daemon.require_exe ();
  let seconds = float_of_int seconds in
  let log = Load.create_log () in
  let stream = Traffic.of_workload w ~seed in
  let d, conns, _ = Serving.setup log stream in
  let sat =
    Load.closed_loop log conns ~next:stream.Traffic.next ~depth:Defs.pipeline_depth
      ~until:(now () +. (Defs.trace_daemon_share *. seconds))
  in
  let st = Load.stats log conns.(0) in
  Serving.shutdown log d conns;
  let st =
    match st with
    | Some st -> st
    | None -> failwith "the daemon did not answer the Stats request"
  in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let batch = max 1 (int_of_float (Float.round (ratio st.P.st_requests st.P.st_batches))) in
  let r =
    Child.run (fun () ->
        replay w ~seed ~batch ~budget:(Defs.trace_replay_share *. seconds))
  in
  let efficiency =
    Child.run (fun () -> par_pass w ~seed ~batch ~budget:(Defs.trace_par_share *. seconds))
  in
  Option.iter (fun path -> Spans.write_jsonl path r.spans) spans_file;
  let layer, coverage = summarize r.spans in
  let client_p50 =
    if Array.length sat.Load.latency_ms = 0 then nan
    else Stats.percentile sat.Load.latency_ms 0.5
  in
  let lookups = st.P.st_cache_hits + st.P.st_cache_misses in
  let metrics =
    layer
    @ [
        ("par.efficiency", efficiency);
        ("engine.batch_size", ratio st.P.st_requests st.P.st_batches);
        ("engine.coalesced_frac", ratio st.P.st_coalesced st.P.st_requests);
        ("engine.evictions", float_of_int st.P.st_evictions);
        ("engine.cache_hit_ratio", ratio st.P.st_cache_hits lookups);
        ("engine.cache_lookups", float_of_int lookups);
        ("server.outside_engine_ms_p50", client_p50 -. List.assoc "engine.batch_ms_p50" layer);
        ("server.max_queue", float_of_int st.P.st_max_queue);
        ("trace.overhead_frac", (r.traced_s /. r.untraced_s) -. 1.);
      ]
  in
  let order = List.map (fun (m : Defs.metric) -> m.Defs.name) Defs.per_layer in
  let metrics = List.map (fun n -> (n, List.assoc n metrics)) order in
  List.iter (fun e -> Load.fail log ("replay: " ^ e)) r.errors;
  let info =
    [
      Printf.sprintf "daemon pass: %d answered in %.1f s, client p50 %.3f ms"
        sat.Load.answered sat.Load.duration client_p50;
      Printf.sprintf "replay: %d requests at 1 domain, engine batches of %d, %d spans"
        r.requests batch (List.length r.spans);
      Printf.sprintf "self times cover %.1f%% of traced trial time" (100. *. coverage);
    ]
  in
  {
    Report.attempted = log.Load.sent + r.requests;
    failed = log.Load.failed;
    problems = List.rev log.Load.problems;
    metrics;
    info;
    digest = "-";
  }
