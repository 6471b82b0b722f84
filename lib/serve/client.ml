(* Blocking client over the frame protocol.  [send] and [recv] are
   independent, so a client can push K requests before reading any
   response (the overload test does exactly this); [burst] is the one
   pipelined reconnect/resend loop every load client shares, and
   [stream] the one mixed workload it usually carries. *)

module Frame = Ls_shard.Frame
module Supervisor = Ls_shard.Supervisor
module Rng = Ls_rng.Rng

type t = { fd : Unix.file_descr }

exception Unknown_host of string

let connect_fd addr =
  match addr with
  | Server.Unix_path path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_UNIX path)
       with e -> (try Unix.close fd with _ -> ()); raise e);
      fd
  | Server.Tcp (host, port) ->
      (* Resolve BEFORE opening the socket: gethostbyname signals an
         unknown host with Not_found, which is both descriptor-leak bait
         and invisible to a Unix_error-only handler — name it. *)
      let inet =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match (Unix.gethostbyname host).Unix.h_addr_list with
          | [||] -> raise (Unknown_host host)
          | addrs -> addrs.(0)
          | exception Not_found -> raise (Unknown_host host))
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_INET (inet, port))
       with e -> (try Unix.close fd with _ -> ()); raise e);
      fd

let connect addr = { fd = connect_fd addr }

(* Daemon startup is asynchronous from the client's point of view; retry
   the connect over a bounded window (EINTR-safe sleeps) with capped
   exponential backoff: quick early probes, no 100ms stall when the
   daemon is already up, bounded pressure when it is not. *)
let connect_retry ?(attempts = 50) ?(delay_ms = 10) ?(max_delay_ms = 400) addr =
  let named attempt msg =
    Error
      (Printf.sprintf "connect %s after %d attempt(s): %s"
         (Server.address_to_string addr) attempt msg)
  in
  let rec go n delay =
    let attempt = attempts - n + 1 in
    match connect addr with
    | c -> Ok c
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when n > 1 ->
        Supervisor.sleep_ms delay;
        go (n - 1) (min max_delay_ms (2 * delay))
    | exception Unix.Unix_error (e, _, _) ->
        named attempt (Unix.error_message e)
    | exception Unknown_host host ->
        named attempt (Printf.sprintf "unknown host %S" host)
  in
  go attempts (max 1 delay_ms)

let send t req = Protocol.write_request t.fd req

let recv t =
  match Protocol.read_response t.fd with
  | Ok r -> Ok r
  | Error Frame.Closed -> Error "server closed the connection"
  | Error Frame.Truncated -> Error "server died mid-response"
  | Error (Frame.Malformed msg) -> Error msg
  (* A hard reset (the peer kill -9ed mid-response) surfaces from read(2)
     as ECONNRESET, not EOF — same contract as the named errors above:
     recv returns a result, it never leaks Unix_error. *)
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "connection failed: %s" (Unix.error_message e))

let call t req =
  send t req;
  match recv t with
  | Error _ as e -> e
  | Ok resp ->
      if resp.Protocol.rid <> req.Protocol.id then
        Error
          (Printf.sprintf "response id %d does not match request id %d"
             resp.Protocol.rid req.Protocol.id)
      else Ok resp

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* --- the shared workload ---------------------------------------------- *)

(* Each draw is its own [let], so the stream does not hang on the order
   in which the compiler evaluates record fields.  The order is op,
   trials (Sample only), vertex, model, graph, seed; the serve-smoke
   transcript digest in CI pins it. *)
let stream ?(graphs = [| "cycle:24"; "path:16"; "grid:3x4"; "tree:2x3" |])
    ~seed n =
  let rng = Rng.create seed in
  let models = [| "hardcore:0.8"; "ising:0.3"; "coloring:5" |] in
  let seed_pool = Array.init 4 (fun _ -> Rng.bits64 rng) in
  let pick arr = arr.(Rng.int rng (Array.length arr)) in
  Array.init n (fun id ->
      let op_draw = Rng.int rng 10 in
      let op =
        if op_draw < 6 then Protocol.Sample
        else if op_draw < 8 then Protocol.Infer
        else Protocol.Count
      in
      let trials = match op with Protocol.Sample -> 1 + Rng.int rng 4 | _ -> 1 in
      let vertex = Rng.int rng 8 in
      let model = pick models in
      let graph = pick graphs in
      let seed = pick seed_pool in
      { Protocol.id; op; seed; graph; model; t = 1; engine = "ball"; trials;
        vertex; deadline_ms = 0 })

let control ~id op =
  { Protocol.id; op; seed = 0L; graph = "-"; model = "-"; t = 0; engine = "-";
    trials = 1; vertex = 0; deadline_ms = 0 }

(* --- the pipelined burst ---------------------------------------------- *)

type burst = {
  responses : Protocol.response array;
  conn : t;
  latency : float array;
}

let max_reconnects = 100

(* Windows of [pipeline] requests: push the window, then read until every
   request in it is answered.  The daemon answers Overloaded verdicts
   during its socket drain and everything else after the batch runs, so
   responses can arrive out of request order — the rid routes each one
   home.  A broken connection (worker killed, daemon restarting, proxy
   reset) is survived by reconnecting and resending the window's
   unanswered requests: response bodies are pure functions of request
   bytes, so replayed answers keep the id-ordered result byte-identical. *)
let burst ?(on_answer = ignore) ~connect ~pipeline reqs =
  if pipeline < 1 then invalid_arg "Client.burst: pipeline must be >= 1";
  (* Resets make EPIPE on send a normal event, not a fatal signal. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let n = Array.length reqs in
  let responses = Array.make n None in
  let latency = Array.make n 0. in
  let answered = ref 0 in
  let reconnects = ref 0 in
  let rec window conn i =
    if i >= n then
      Ok { responses = Array.map Option.get responses; conn; latency }
    else begin
      let k = min pipeline (n - i) in
      let t0 = Unix.gettimeofday () in
      let send_missing conn =
        try
          for j = i to i + k - 1 do
            if responses.(j) = None then send conn reqs.(j)
          done
        with Unix.Unix_error _ -> ()
        (* a dead connection surfaces as a recv error below *)
      in
      let rec missing j =
        j < i + k && (responses.(j) = None || missing (j + 1))
      in
      let rec harvest conn =
        if not (missing i) then window conn (i + k)
        else
          match recv conn with
          | Error _ -> (
              close conn;
              incr reconnects;
              if !reconnects > max_reconnects then
                Error
                  (Printf.sprintf "daemon connection failed after %d reconnects"
                     max_reconnects)
              else
                match connect () with
                | Error msg -> Error msg
                | Ok conn ->
                    send_missing conn;
                    harvest conn)
          | Ok resp ->
              let idx = resp.Protocol.rid in
              if idx < 0 || idx >= n then begin
                close conn;
                Error (Printf.sprintf "response id %d out of range" idx)
              end
              else begin
                (* A duplicate of an answered rid is ignored. *)
                if responses.(idx) = None then begin
                  responses.(idx) <- Some resp;
                  latency.(idx) <- Unix.gettimeofday () -. t0;
                  incr answered;
                  on_answer !answered
                end;
                harvest conn
              end
      in
      send_missing conn;
      harvest conn
    end
  in
  match connect () with Error msg -> Error msg | Ok conn -> window conn 0
