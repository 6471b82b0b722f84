(* Chaos harness for the serving daemon: drive a deterministic request
   burst through the {!Proxy} fault injector against a live forked
   daemon, and check the serve invariants under every schedule:

   - daemon-crash: the daemon survives the burst and exits 0 on SIGTERM
     (byte-level damage may cost connections, never the process);
   - rid-integrity: no well-formed response is ever matched to the
     wrong request — everything the client accepts is the awaited rid
     or a byte-identical duplicate of an already-answered one;
   - byte-identity: every accepted response is byte-identical to the
     proxy-free run of the same burst (the determinism contract:
     response bodies are a pure function of request bytes);
   - liveness: a bounded resend loop completes the burst (the fault
     rates are capped well below saturation);
   - transparency (once per run): under the all-zero schedule the
     proxied transcript has no violations at all.

   Generation, shrinking and the report are the {!Harness} core's;
   failing schedules shrink by zeroing whole fault dimensions.

   One subtlety fixed by the protocol, exploited here: the frame digest
   covers the payload only, so a corrupted header can reach the daemon
   as a valid frame and draw a [Bad_request] reply under an arbitrary
   rid.  The harness generates only valid requests, so the client
   treats ANY [Bad_request] as a corruption artifact and resends —
   whereas a wrong-rid reply with a non-error body has no innocent
   explanation and is a rid-integrity violation. *)

module Rng = Ls_rng.Rng
module Supervisor = Ls_shard.Supervisor
module Protocol = Ls_serve.Protocol
module Server = Ls_serve.Server
module Client = Ls_serve.Client
module Par = Ls_par.Par

type violation = Harness.violation = { invariant : string; detail : string }

let violation = Harness.violation

(* --- workload ---------------------------------------------------------- *)

(* The stream `locsample query --requests N` sends, over graphs that
   all have >= 12 vertices: every Infer vertex is < 8, so no generated
   request can legitimately draw Bad_request — which is what lets the
   client blame every Bad_request on the proxy.  Deadlines stay 0:
   expiry depends on queue wall time, which chaos delays would turn into
   baseline-vs-proxied divergence. *)
let gen_requests ~seed ~n =
  Client.stream ~graphs:[| "cycle:16"; "path:12"; "grid:3x4"; "tree:2x3" |]
    ~seed n

(* --- schedule generation ----------------------------------------------- *)

(* One schedule = socket damage (through the proxy) + syscall faults
   (through the Sysio hook, installed inside the daemon).  The two
   dimensions are independent seeds off the same generator stream. *)
type schedule = { net : Proxy.spec; sys : Sysfault.spec }

let quiet_schedule seed = { net = Proxy.quiet seed; sys = Sysfault.quiet seed }

let describe_schedule sch =
  Printf.sprintf "%s sysfault[%s]" (Proxy.describe sch.net)
    (Sysfault.describe sch.sys)

(* Rates capped well below saturation so the bounded resend loop always
   terminates on a correct daemon: per attempt the pass probability
   stays comfortably above a half, and every reconnect draws fresh
   fates under a new connection serial. *)
let gen_net rng =
  {
    Proxy.seed = Rng.bits64 rng;
    corrupt = 0.12 *. Rng.float rng;
    truncate = 0.08 *. Rng.float rng;
    reset = 0.08 *. Rng.float rng;
    duplicate = 0.15 *. Rng.float rng;
    delay = 0.25 *. Rng.float rng;
    delay_ms = 1 + Rng.int rng 10;
  }

(* Syscall-fault rates: disk faults can run hot (they cost snapshots,
   never answers), transparent faults (short writes, EINTR) and accept
   shedding stay at half so the loop keeps moving.  Fork faults stay
   zero here — this harness runs the daemon unsupervised, so no fork
   site is ever consulted; the fork dimension is exercised by the
   supervisor unit tests.  The bounded ops budget silences the schedule
   mid-burst, making the recovery half of the degraded story (exits
   paired with enters, health back to ok) deterministic. *)
let gen_sys rng =
  {
    Sysfault.seed = Rng.bits64 rng;
    write_fail = 0.9 *. Rng.float rng;
    rename_fail = 0.9 *. Rng.float rng;
    open_fail = 0.5 *. Rng.float rng;
    short_write = 0.5 *. Rng.float rng;
    eintr = 0.5 *. Rng.float rng;
    accept_fail = 0.5 *. Rng.float rng;
    fork_fail = 0.;
    ops_budget = 48 + Rng.int rng 64;
  }

(* Both dimensions are always drawn, so the net schedules are identical
   whether or not the sysfault dimension is enabled. *)
let gen ?(sysfault = true) rng =
  let net = gen_net rng in
  let sys = gen_sys rng in
  { net; sys = (if sysfault then sys else Sysfault.quiet sys.Sysfault.seed) }

(* --- forked processes -------------------------------------------------- *)

let path_counter = ref 0

let fresh_path tag =
  incr path_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "locsample-svchaos-%d-%d-%s.sock" (Unix.getpid ())
       !path_counter tag)

let fork_child body =
  flush stdout;
  flush stderr;
  Par.quiesce ();
  match Unix.fork () with
  | 0 ->
      (try
         body ();
         Unix._exit 0
       with _ -> Unix._exit 3)
  | pid -> pid

(* The daemon child: optionally with a file trace (so the parent can
   check degraded enter/exit pairing from the JSONL), a sysfault
   schedule installed before the loop starts, and a state dir with an
   aggressive snapshot cadence (so disk-fault sites actually get
   consulted during a short burst).  [Trace.close] runs before [_exit]
   — fork_child's [_exit] skips at_exit handlers by design. *)
let fork_daemon ?sys ?trace_path ?state_dir ~address () =
  fork_child (fun () ->
      let t =
        Option.map (fun p -> Ls_obs.Trace.make ~path:p ()) trace_path
      in
      Option.iter Ls_obs.Trace.install t;
      (match sys with
      | Some s when not (Sysfault.is_quiet s) -> Sysfault.install s
      | _ -> ());
      let cfg =
        match state_dir with
        | Some dir ->
            Server.config ~address ~queue_bound:64 ~batch_max:8 ~state_dir:dir
              ~snapshot_every:2 ()
        | None ->
            {
              (Server.config ~address ~queue_bound:64 ~batch_max:8 ()) with
              Server.state_dir = None;
            }
      in
      ignore (Server.run ~cfg ());
      Option.iter Ls_obs.Trace.close t)

let fork_proxy spec ~listen ~upstream =
  fork_child (fun () -> Proxy.run spec ~listen ~upstream ())

let status_name = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s

(* Reap with a grace period; [None] = still running (or already reaped). *)
let wait_exit ~grace_ms pid =
  let rec go left =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if left <= 0 then None
        else begin
          Supervisor.sleep_ms 20;
          go (left - 20)
        end
    | _, st -> Some st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go left
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> None
  in
  go grace_ms

let kill_quiet pid signal =
  try Unix.kill pid signal with Unix.Unix_error _ -> ()

let unlink_quiet path = try Unix.unlink path with Unix.Unix_error _ -> ()

let fresh_dir tag =
  incr path_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "locsample-svchaos-%d-%d-%s" (Unix.getpid ())
         !path_counter tag)
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error _ -> ());
  d

let remove_dir_quiet d =
  (try
     Array.iter
       (fun f -> unlink_quiet (Filename.concat d f))
       (Sys.readdir d)
   with Sys_error _ -> ());
  try Unix.rmdir d with Unix.Unix_error _ -> ()

let read_file_opt p =
  match open_in_bin p with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let len = in_channel_length ic in
          Some (really_input_string ic len))

let count_substring hay needle =
  let nl = String.length needle and hl = String.length hay in
  let c = ref 0 in
  for i = 0 to hl - nl do
    if String.sub hay i nl = needle then incr c
  done;
  !c

(* --- one schedule ------------------------------------------------------ *)

(* Canonical bytes for comparing responses: the pure codec over the
   response as received.  Bit-identical floats are part of the
   determinism contract, so string equality is exactly the claim. *)
let enc rid body = Protocol.encode_response { Protocol.rid; body }

exception Abort

let run_spec ?check ~requests ~baseline (sch : schedule) =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let n = Array.length requests in
  let srv_path = fresh_path "srv" and pxy_path = fresh_path "pxy" in
  let srv = Server.Unix_path srv_path and pxy = Server.Unix_path pxy_path in
  (* The sysfault dimension needs a state dir (to give disk-fault sites
     something to hit) and a daemon-side trace file (the degraded
     enter/exit pairing witness). *)
  let sys_on = not (Sysfault.is_quiet sch.sys) in
  let state_dir = if sys_on then Some (fresh_dir "state") else None in
  let trace_path =
    Option.map (fun d -> Filename.concat d "trace.jsonl") state_dir
  in
  let dpid =
    fork_daemon ~sys:sch.sys ?trace_path ?state_dir ~address:srv ()
  in
  let ppid = fork_proxy sch.net ~listen:pxy ~upstream:srv in
  let violations = ref [] in
  let add v = violations := !violations @ [ v ] in
  Fun.protect
    ~finally:(fun () ->
      kill_quiet ppid Sys.sigkill;
      ignore (wait_exit ~grace_ms:2000 ppid);
      kill_quiet dpid Sys.sigkill;
      ignore (wait_exit ~grace_ms:2000 dpid);
      unlink_quiet srv_path;
      unlink_quiet pxy_path;
      Option.iter remove_dir_quiet state_dir)
    (fun () ->
      let answered = Array.make n None in
      let conn = ref None in
      let drop () =
        match !conn with
        | Some c ->
            (try Client.close c with Unix.Unix_error _ -> ());
            conn := None
        | None -> ()
      in
      let connect () =
        match !conn with
        | Some c -> Ok c
        | None -> (
            match Client.connect_retry ~attempts:200 ~delay_ms:5 pxy with
            | Ok c ->
                conn := Some c;
                Ok c
            | Error _ as e -> e)
      in
      let max_attempts = 100 in
      (* The robust sequential client: send request [i], read until its
         response arrives, treating link damage (read errors, EOF,
         Bad_request artifacts) as resend triggers.  Duplicates of
         already-answered rids must match the recorded bytes. *)
      (try
         for i = 0 to n - 1 do
           let req = requests.(i) in
           let rec attempt k =
             if k > max_attempts then begin
               add
                 (violation "liveness"
                    "request %d unanswered after %d attempts under %s" i
                    max_attempts (describe_schedule sch));
               raise Abort
             end;
             match connect () with
             | Error msg ->
                 add
                   (violation "liveness" "request %d: %s" i msg);
                 raise Abort
             | Ok c -> (
                 match Client.send c req with
                 | () -> await c k
                 | exception Unix.Unix_error _ ->
                     drop ();
                     attempt (k + 1))
           and await c k =
             match Client.recv c with
             | Error _ ->
                 drop ();
                 attempt (k + 1)
             | Ok resp -> (
                 match resp.Protocol.body with
                 | Protocol.Error_r { code = Protocol.Bad_request; _ } ->
                     (* Only a header-corrupted request frame can draw
                        this (the burst is all-valid): resend. *)
                     attempt (k + 1)
                 | body ->
                     let rid = resp.Protocol.rid in
                     if rid = i then answered.(i) <- Some (enc i body)
                     else if rid >= 0 && rid < i then begin
                       match answered.(rid) with
                       | Some bytes when String.equal bytes (enc rid body) ->
                           await c k (* duplicate of an answered request *)
                       | _ ->
                           add
                             (violation "rid-integrity"
                                "response for rid %d (awaiting %d) does not \
                                 duplicate its recorded answer"
                                rid i);
                           raise Abort
                     end
                     else begin
                       add
                         (violation "rid-integrity"
                            "response carries rid %d while awaiting %d" rid i);
                       raise Abort
                     end)
           in
           attempt 1
         done
       with Abort -> ());
      drop ();
      if !violations = [] then
        Array.iteri
          (fun i recorded ->
            match recorded with
            | Some bytes when not (String.equal bytes baseline.(i)) ->
                add
                  (violation "byte-identity"
                     "response %d differs from the proxy-free run" i)
            | _ -> ())
          answered;
      (* The daemon must have survived the burst, and still honour a
         graceful drain. *)
      (match Unix.waitpid [ Unix.WNOHANG ] dpid with
      | 0, _ -> (
          kill_quiet dpid Sys.sigterm;
          match wait_exit ~grace_ms:10_000 dpid with
          | Some (Unix.WEXITED 0) -> ()
          | Some st ->
              add
                (violation "daemon-crash" "daemon answered SIGTERM with %s"
                   (status_name st))
          | None ->
              add
                (violation "daemon-crash"
                   "daemon did not exit within 10 s of SIGTERM"))
      | _, st ->
          add
            (violation "daemon-crash" "daemon died during the burst (%s)"
               (status_name st))
      | exception Unix.Unix_error _ -> ());
      (* Degraded enter/exit pairing, read from the daemon's own trace:
         every enter must have its exit by clean shutdown (the server
         closes its brackets at drain).  Only judged when the run is
         otherwise clean — a crashed daemon leaves a truncated trace,
         and that is already reported as daemon-crash. *)
      (if !violations = [] then
         match trace_path with
         | None -> ()
         | Some p -> (
             match read_file_opt p with
             | None ->
                 add
                   (violation "degraded-pairing"
                      "daemon trace file missing after a clean run")
             | Some text ->
                 let enters =
                   count_substring text "\"ev\":\"degraded_enter\""
                 in
                 let exits =
                   count_substring text "\"ev\":\"degraded_exit\""
                 in
                 if enters <> exits then
                   add
                     (violation "degraded-pairing"
                        "%d degraded enter(s) vs %d exit(s) in the daemon \
                         trace"
                        enters exits)));
      (match check with
      | Some f -> ( match f sch with Some v -> add v | None -> ())
      | None -> ());
      !violations)

(* --- baseline ---------------------------------------------------------- *)

(* The proxy-free transcript the byte-identity invariant compares
   against.  Any failure here is a broken environment or workload, not
   a chaos finding — raise rather than report. *)
let baseline_run requests =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let srv_path = fresh_path "base" in
  let srv = Server.Unix_path srv_path in
  let dpid = fork_daemon ~address:srv () in
  Fun.protect
    ~finally:(fun () ->
      kill_quiet dpid Sys.sigkill;
      ignore (wait_exit ~grace_ms:2000 dpid);
      unlink_quiet srv_path)
    (fun () ->
      let c =
        match Client.connect_retry ~attempts:200 ~delay_ms:5 srv with
        | Ok c -> c
        | Error msg -> failwith ("serve-chaos baseline: " ^ msg)
      in
      let bodies =
        Array.map
          (fun req ->
            match Client.call c req with
            | Error msg -> failwith ("serve-chaos baseline: " ^ msg)
            | Ok { Protocol.body = Protocol.Error_r { message; _ }; _ } ->
                failwith ("serve-chaos baseline: daemon error: " ^ message)
            | Ok resp -> enc req.Protocol.id resp.Protocol.body)
          requests
      in
      Client.close c;
      kill_quiet dpid Sys.sigterm;
      (match wait_exit ~grace_ms:10_000 dpid with
      | Some (Unix.WEXITED 0) -> ()
      | Some st ->
          failwith ("serve-chaos baseline: daemon " ^ status_name st)
      | None -> failwith "serve-chaos baseline: daemon hung on SIGTERM");
      bodies)

(* --- shrinking --------------------------------------------------------- *)

(* Zero one fault dimension at a time — socket and syscall dimensions
   alike. *)
let shrink_candidates (sch : schedule) =
  let net n = { sch with net = n } in
  let sys s = { sch with sys = s } in
  let p = sch.net and q = sch.sys in
  List.filter
    (fun c -> c <> sch)
    [
      net { p with Proxy.reset = 0. };
      net { p with Proxy.truncate = 0. };
      net { p with Proxy.corrupt = 0. };
      net { p with Proxy.duplicate = 0. };
      net { p with Proxy.delay = 0.; delay_ms = 0 };
      sys { q with Sysfault.write_fail = 0. };
      sys { q with Sysfault.rename_fail = 0. };
      sys { q with Sysfault.open_fail = 0. };
      sys { q with Sysfault.short_write = 0. };
      sys { q with Sysfault.eintr = 0. };
      sys { q with Sysfault.accept_fail = 0. };
      sys { q with Sysfault.fork_fail = 0. };
    ]

let shrink ?check ~requests ~baseline s =
  let run = run_spec ?check ~requests ~baseline in
  fst (Harness.shrink ~run ~candidates:shrink_candidates s (run s))

(* --- top level --------------------------------------------------------- *)

type params = { requests : int; sysfault : bool }
type summary = (schedule, params) Harness.summary

let run ?check ?(schedules = 5) ?(requests = 40) ?(sysfault = true) ~seed () =
  Harness.run ~who:"Serve_chaos.run" ~size:("requests", requests) ~seed
    ~schedules { requests; sysfault }
    (fun () ->
      let reqs = gen_requests ~seed ~n:requests in
      let baseline = baseline_run reqs in
      (* Transparency first, without the caller's check: a planted
         failure should be found by a generated schedule, not blamed on
         the quiet proxy. *)
      let zero =
        match run_spec ~requests:reqs ~baseline (quiet_schedule seed) with
        | [] -> None
        | v :: _ -> Some v
      in
      {
        Harness.zero;
        gen = gen ~sysfault;
        run_spec = run_spec ?check ~requests:reqs ~baseline;
        candidates = shrink_candidates;
      })

let ok = Harness.ok

let reproducer =
  Harness.report ~command:"serve-chaos" ~describe:describe_schedule
    ~header:(fun p ->
      Printf.sprintf " requests=%d sysfault=%b" p.requests p.sysfault)
    ~flags:(fun p ->
      Printf.sprintf " --requests %d%s" p.requests
        (if p.sysfault then "" else " --no-sysfault"))
    ~zero_fault:(fun v ->
      Printf.sprintf "transparency VIOLATED: %s: %s" v.invariant v.detail)

let step p = function
  | "--requests" :: v :: rest -> Some ({ p with requests = int_of_string v }, rest)
  | "--no-sysfault" :: rest -> Some ({ p with sysfault = false }, rest)
  | _ -> None

let parse_reproducer text =
  Harness.parse_replay ~command:"serve-chaos" ~schedules:5
    { requests = 40; sysfault = true }
    step text
