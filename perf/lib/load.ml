(* The load generator: one single-threaded process driving a few
   connections to the daemon through select.  Responses on a connection
   come back in request order, so each connection keeps a FIFO of what it
   is owed; a response that does not match its head, an [Error_r], a
   closed connection or a request still unanswered after the drain
   timeout is a failed request. *)

module P = Ls_serve.Protocol
module Frame = Ls_shard.Frame

let now = Unix.gettimeofday

type conn = {
  fd : Unix.file_descr;
  mutable inbuf : string;
  owed : (int * float * float) Queue.t;  (* id, due, sent *)
  mutable dead : bool;
}

type log = {
  requests : (int, P.request) Hashtbl.t;
  responses : (int, P.response) Hashtbl.t;
  mutable next_id : int;
  mutable sent : int;
  mutable failed : int;
  mutable problems : string list;  (* the first few, for the report *)
}

let create_log () =
  {
    requests = Hashtbl.create 4096;
    responses = Hashtbl.create 4096;
    next_id = 0;
    sent = 0;
    failed = 0;
    problems = [];
  }

let fail log msg =
  log.failed <- log.failed + 1;
  if List.length log.problems < 5 then log.problems <- msg :: log.problems

let connect (d : Daemon.t) =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX d.Daemon.socket);
  { fd; inbuf = ""; owed = Queue.create (); dead = false }

let kill log c why =
  if not c.dead then begin
    c.dead <- true;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    Queue.iter (fun (id, _, _) -> fail log (Printf.sprintf "request %d: %s" id why)) c.owed;
    Queue.clear c.owed
  end

let close log c = kill log c "connection closed by the client"

(* Send [r] (its id assigned here) and return the send time. *)
let send log c (r : P.request) ~due =
  let id = log.next_id in
  log.next_id <- id + 1;
  let r = { r with P.id } in
  Hashtbl.replace log.requests id r;
  log.sent <- log.sent + 1;
  let sent = now () in
  if c.dead then fail log (Printf.sprintf "request %d: connection is closed" id)
  else begin
    match P.write_request c.fd r with
    | () -> Queue.push (id, due, sent) c.owed
    | exception Unix.Unix_error (e, _, _) ->
        fail log (Printf.sprintf "request %d: %s" id (Unix.error_message e));
        kill log c "write failed"
  end;
  sent

let deliver log c (resp : P.response) ~recv k =
  match Queue.take_opt c.owed with
  | None -> fail log (Printf.sprintf "unexpected response %d" resp.P.rid)
  | Some (id, due, sent) -> (
      if resp.P.rid <> id then
        fail log (Printf.sprintf "response %d where %d was owed" resp.P.rid id)
      else
        match resp.P.body with
        | P.Error_r { code; message } ->
            fail log
              (Printf.sprintf "request %d: %s: %s" id (P.err_name code) message)
        | _ ->
            Hashtbl.replace log.responses id resp;
            k c ~id ~due ~sent ~recv)

let chunk = Bytes.create 65536

let receive log c k =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> kill log c "daemon closed the connection"
  | n ->
      let recv = now () in
      c.inbuf <- c.inbuf ^ Bytes.sub_string chunk 0 n;
      let rec frames () =
        match Frame.decode_prefix c.inbuf with
        | Ok None -> ()
        | Ok (Some (f, used)) -> (
            c.inbuf <- String.sub c.inbuf used (String.length c.inbuf - used);
            match P.response_of_frame f with
            | Ok resp ->
                deliver log c resp ~recv k;
                frames ()
            | Error e -> kill log c e)
        | Error e -> kill log c e
      in
      frames ()
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ()
  | exception Unix.Unix_error (e, _, _) -> kill log c (Unix.error_message e)

(* Wait up to [timeout] for responses and hand each to [k]. *)
let pump log conns ~timeout k =
  let live = List.filter (fun c -> not c.dead) (Array.to_list conns) in
  if live = [] then Unix.sleepf (Float.max 0. (Float.min timeout 0.01))
  else
    match Unix.select (List.map (fun c -> c.fd) live) [] [] (Float.max 0. timeout) with
    | ready, _, _ ->
        List.iter (fun c -> if List.mem c.fd ready then receive log c k) live
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let owed conns = Array.exists (fun c -> not (Queue.is_empty c.owed)) conns

(* Collect everything still owed; what the timeout leaves is failed. *)
let drain log conns k =
  let deadline = now () +. Defs.drain_timeout in
  while owed conns && now () < deadline do
    pump log conns ~timeout:(deadline -. now ()) k
  done;
  Array.iter (fun c -> if owed [| c |] then kill log c "no response before the drain timeout") conns

let ignore_response _ ~id:_ ~due:_ ~sent:_ ~recv:_ = ()

(* Send [reqs] round-robin, all outstanding at once, and wait for all. *)
let burst log conns reqs =
  List.iteri
    (fun i r ->
      ignore (send log conns.(i mod Array.length conns) r ~due:(now ())))
    reqs;
  drain log conns ignore_response

type phase = {
  latency_ms : float array;
  lag_ms : float array;  (* open loop: how late each send was *)
  answered : int;  (* in the closed loop, inside the window only *)
  duration : float;
}

(* Open loop: Poisson arrivals at [rate] until [until], round-robin over
   the connections; latency runs from each request's due time. *)
let open_loop log conns ~next ~arrivals ~rate ~until =
  let start = now () in
  let lat = ref [] and lag = ref [] and answered = ref 0 in
  let record _ ~id:_ ~due ~sent:_ ~recv =
    incr answered;
    lat := ((recv -. due) *. 1000.) :: !lat
  in
  let gap () = Ls_rng.Rng.exponential arrivals rate in
  let due = ref (start +. gap ()) and k = ref 0 in
  while !due < until do
    let t = now () in
    if !due <= t then begin
      let c = conns.(!k mod Array.length conns) in
      incr k;
      let sent = send log c (next ()) ~due:!due in
      lag := ((sent -. !due) *. 1000.) :: !lag;
      due := !due +. gap ()
    end
    else pump log conns ~timeout:(!due -. t) record
  done;
  drain log conns record;
  {
    latency_ms = Array.of_list !lat;
    lag_ms = Array.of_list !lag;
    answered = !answered;
    duration = until -. start;
  }

(* Closed loop: [depth] requests outstanding per connection, each answer
   sending the next, until [until]; only answers inside the window
   count toward throughput. *)
let closed_loop log conns ~next ~depth ~until =
  let start = now () in
  let lat = ref [] and answered = ref 0 in
  let record c ~id:_ ~due:_ ~sent ~recv =
    if recv <= until then begin
      incr answered;
      lat := ((recv -. sent) *. 1000.) :: !lat;
      ignore (send log c (next ()) ~due:(now ()))
    end
  in
  Array.iter
    (fun c ->
      for _ = 1 to depth do
        ignore (send log c (next ()) ~due:start)
      done)
    conns;
  while now () < until && Array.exists (fun c -> not c.dead) conns do
    pump log conns ~timeout:(until -. now ()) record
  done;
  drain log conns ignore_response;
  {
    latency_ms = Array.of_list !lat;
    lag_ms = [||];
    answered = !answered;
    duration = until -. start;
  }

(* Closed loop with one request in flight on [c] until [until].  After
   each answer [cost ()] reads a running total (the daemon's CPU time);
   its growth since the previous answer is that request's cost. *)
let serial log c ~next ~cost ~until =
  let costs = ref [] and before = ref (cost ()) in
  while now () < until && not c.dead do
    ignore (send log c (next ()) ~due:(now ()));
    drain log [| c |] ignore_response;
    let after = cost () in
    costs := (after -. !before) :: !costs;
    before := after
  done;
  Array.of_list (List.rev !costs)

(* Ask the daemon for its counters over [c]. *)
let stats log c =
  let found = ref None in
  ignore (send log c Traffic.stats_request ~due:(now ()));
  drain log [| c |] (fun _ ~id ~due:_ ~sent:_ ~recv:_ ->
      match (Hashtbl.find log.responses id).P.body with
      | P.Stats_r st -> found := Some st
      | _ -> ());
  !found
