(* serve-*: a live daemon at one domain, driven by this process over unix-
   socket connections.  An open loop (Poisson arrivals at the workload's
   rate, over [Defs.connections] connections) gives the latency a client
   sees, printed but not gated because it is wall-clock time.  Then a
   serial closed loop, one request in flight, gives each request's cost:
   the CPU time the daemon spent between one answer and the next. *)

module P = Ls_serve.Protocol
module Engine = Ls_serve.Engine

let now = Unix.gettimeofday

(* Start a daemon, connect and send the warm-up pass: one set-up.  Its
   time is the CPU both processes spent on it. *)
let setup log (stream : Traffic.t) =
  let c0 = Cpu.self () in
  let d = Daemon.start ~domains:Defs.domains in
  let conns = Array.init Defs.connections (fun _ -> Load.connect d) in
  Load.burst log conns stream.Traffic.warmup;
  (d, conns, Cpu.self () -. c0 +. Cpu.of_idle_pid d.Daemon.pid)

let shutdown log d conns =
  Array.iter (Load.close log) conns;
  if not (Daemon.stop d) then begin
    log.Load.sent <- log.Load.sent + 1;
    Load.fail log "daemon did not drain to exit 0 on SIGTERM"
  end

(* [Defs.verified_responses] answered requests, chosen by a seeded hash
   of their id, recomputed in-process and byte-compared once encoded. *)
let verify log ~seed =
  let key id = Ls_rng.Splitmix.mix64 (Int64.of_int ((seed * 1_000_003) + id)) in
  let ids =
    Hashtbl.fold
      (fun id (resp : P.response) acc ->
        match resp.P.body with P.Stats_r _ | P.Health_r _ -> acc | _ -> id :: acc)
      log.Load.responses []
    |> List.sort (fun a b -> compare (key a) (key b))
    |> List.filteri (fun i _ -> i < Defs.verified_responses)
  in
  (* At the daemon's domain count, which also keeps this process free of
     domains, so it can still fork. *)
  Ls_par.Par.set_domains Defs.domains;
  let engine = Engine.create () in
  let mismatches =
    List.concat_map
      (fun chunk ->
        List.filter_map
          (fun (id, result) ->
            let served = P.encode_response (Hashtbl.find log.Load.responses id) in
            match result with
            | Ok body when P.encode_response { P.rid = id; body } = served -> None
            | _ -> Some id)
          (List.combine chunk
             (Engine.submit_batch engine
                (List.map (Hashtbl.find log.Load.requests) chunk))))
      (Traffic.chunks 32 ids)
  in
  List.iter
    (fun id -> Load.fail log (Printf.sprintf "response %d differs from in-process" id))
    mismatches;
  List.length ids

let digest log =
  let outputs =
    List.init Defs.digest_outputs (fun id ->
        match Hashtbl.find_opt log.Load.responses id with
        | Some r -> P.encode_response r
        | None -> "-")
  in
  String.sub (Digest.to_hex (Digest.string (String.concat "" outputs))) 0 16

let run (w : Defs.workload) (s : Defs.serve) ~seed ~seconds =
  Daemon.require_exe ();
  let log = Load.create_log () in
  let stream = Traffic.of_workload w ~seed in
  (* [Defs.setup_reps] daemons set up: one is measured, half the others
     start before it and half after, so that their median spans the run's
     host conditions rather than one moment's. *)
  let setups = ref [] in
  let set_up () =
    let d, conns, t = setup log stream in
    setups := t :: !setups;
    (d, conns)
  in
  let others () =
    for _ = 1 to Defs.setup_reps / 2 do
      let d, conns = set_up () in
      shutdown log d conns
    done
  in
  others ();
  let d, conns = set_up () in
  (* Warm-up and set-up traffic is not part of the digest or the
     verification sample: ids restart at the measured phases. *)
  Hashtbl.reset log.Load.responses;
  Hashtbl.reset log.Load.requests;
  log.Load.next_id <- 0;
  let start = now () in
  let arrivals = Traffic.rng ~seed ~salt:(w.Defs.name ^ "/arrivals") in
  let o =
    Load.open_loop log conns ~next:stream.Traffic.next ~arrivals ~rate:s.Defs.rate
      ~until:(start +. (Defs.open_loop_share *. float_of_int seconds))
  in
  let costs =
    Array.map (fun c -> c *. 1000.)
      (Load.serial log conns.(0) ~next:stream.Traffic.next
         ~cost:(fun () -> Cpu.of_idle_pid d.Daemon.pid)
         ~until:(start +. float_of_int seconds))
  in
  let rss = Option.value ~default:nan (Daemon.peak_rss_mb d) in
  shutdown log d conns;
  let digest = digest log in
  let checked = verify log ~seed in
  others ();
  let pct xs p = if Array.length xs = 0 then nan else Stats.percentile xs p in
  let n = Array.length costs in
  let metrics =
    [
      ("op_cpu_ms_p90", pct costs 0.9);
      ("setup_s", Stats.median (Array.of_list !setups));
      ("peak_rss_mb", rss);
    ]
  in
  let info =
    [
      Printf.sprintf "open loop: %d sent at %.0f/s over %.1f s, %d answered"
        (Array.length o.Load.lag_ms) s.Defs.rate o.Load.duration o.Load.answered;
      Printf.sprintf
        "open-loop latency from the due time, wall clock (not gated): p50 %.3f ms, \
         p90 %.3f ms, p99 %.3f ms; load lag p99 %.3f ms"
        (pct o.Load.latency_ms 0.5) (pct o.Load.latency_ms 0.9)
        (pct o.Load.latency_ms 0.99) (pct o.Load.lag_ms 0.99);
      Printf.sprintf
        "serial loop: %d requests; daemon CPU per request p50 %.3f ms, p99 %.3f ms \
         (highest supported percentile: %s)"
        n (pct costs 0.5) (pct costs 0.99)
        (Option.fold ~none:"none" ~some:Stats.level_name (Stats.supported_level n));
      Printf.sprintf "verified %d responses in-process" checked;
      Printf.sprintf "output_digest %s (first %d responses)" digest Defs.digest_outputs;
    ]
  in
  {
    Report.attempted = log.Load.sent;
    failed = log.Load.failed;
    problems = List.rev log.Load.problems;
    metrics;
    info;
    digest;
  }
