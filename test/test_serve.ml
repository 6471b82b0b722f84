(* The serving layer (lib/serve): protocol codec (round trips, named
   errors, fuzz over mutated bytes — the same discipline as the Frame
   suite), the LRU cache, the batching engine (cache keys, named spec
   rejections, parity with the direct library calls, deterministic
   batches with coalescing and cache hits), the daemon end to end over a
   unix socket (twice-same-seeds bit-identity, overload verdicts under a
   tiny queue, malformed input handling), and the validated-environment
   exit-2 contract of the CLI.

   NOTE: the end-to-end tests fork a server process, and the OCaml
   runtime permanently refuses [Unix.fork] in a process that ever
   created a domain — so this suite must run before any suite that
   touches the domain pool (it is registered right after the shard
   suite in test_main, and every in-process engine call here pins
   [~domains:1], which spawns none). *)

module Rng = Ls_rng.Rng
module Par = Ls_par.Par
module Graph = Ls_graph.Graph
module Protocol = Ls_serve.Protocol
module Engine = Ls_serve.Engine
module Server = Ls_serve.Server
module Client = Ls_serve.Client
module Lru = Ls_serve.Lru
module Frame = Ls_shard.Frame
open Ls_core

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let req ?(id = 0) ?(op = Protocol.Sample) ?(seed = 42L) ?(graph = "cycle:12")
    ?(model = "hardcore:0.8") ?(t = 1) ?(engine = "ball") ?(trials = 1)
    ?(vertex = 0) ?(deadline_ms = 0) () =
  { Protocol.id; op; seed; graph; model; t; engine; trials; vertex; deadline_ms }

let sock_path =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ls-serve-test-%d-%d.sock" (Unix.getpid ()) !ctr)

(* Fork a daemon on a fresh unix socket; returns (address, pid).  The
   child never returns: it serves its request budget and _exits. *)
let fork_server ?queue_bound ?batch_max ?instance_cache ~max_requests () =
  let path = sock_path () in
  (try Unix.unlink path with _ -> ());
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      let cfg =
        Server.config ~address:(Server.Unix_path path) ?queue_bound ?batch_max
          ?instance_cache ~max_requests ()
      in
      ignore (Server.run ~cfg ());
      Unix._exit 0
  | pid -> (Server.Unix_path path, pid)

let connect_or_fail addr =
  match Client.connect_retry addr with
  | Ok c -> c
  | Error msg -> Alcotest.fail ("connect: " ^ msg)

let call_or_fail c r =
  match Client.call c r with
  | Ok resp -> resp.Protocol.body
  | Error msg -> Alcotest.fail ("call: " ^ msg)

(* --- protocol codec --------------------------------------------------- *)

let test_protocol_roundtrip () =
  let requests =
    [
      req ();
      req ~id:max_int ~op:Protocol.Infer ~seed:(-1L) ~graph:"grid:3x4"
        ~model:"ising:0.3:0.5" ~t:0 ~engine:"saw" ~vertex:11 ();
      req ~id:7 ~op:Protocol.Count ~model:"coloring:5" ~t:3 ();
      req ~op:Protocol.Sample ~trials:Protocol.max_trials ();
      req ~op:Protocol.Stats ~graph:"-" ~model:"-" ~engine:"-" ~t:0 ();
      req ~op:Protocol.Health ~graph:"-" ~model:"-" ~engine:"-" ~t:0 ();
    ]
  in
  List.iter
    (fun r ->
      match Protocol.decode_request_bytes (Protocol.encode_request r) with
      | Ok r' -> checkb "request round-trips" true (r = r')
      | Error e -> Alcotest.fail ("request round-trip failed: " ^ e))
    requests;
  let bodies =
    [
      Protocol.Sample_r { trials = 3; successes = 2; distinct = 2; first = [| 1; 0; 1 |] };
      Protocol.Sample_r { trials = 1; successes = 0; distinct = 0; first = [||] };
      Protocol.Infer_r { probs = [| 0.25; 0.75 |] };
      Protocol.Infer_r { probs = [||] };
      Protocol.Count_r { log_z = -12.3456789012345678 };
      Protocol.Count_r { log_z = infinity };
      Protocol.Stats_r
        {
          Protocol.st_requests = 1; st_batches = 2; st_coalesced = 3;
          st_cache_hits = 4; st_cache_misses = 5; st_evictions = 6;
          st_rejected = 7; st_expired = 10; st_snapshot_hits = 11;
          st_restarts = 12; st_max_queue = 8; st_domains = 9;
        };
      Protocol.Health_r { reasons = [] };
      Protocol.Health_r
        {
          reasons =
            [
              ("accept", "EMFILE: shedding new connections");
              ("snapshot", "snapshot write failed (3 consecutive)");
            ];
        };
      Protocol.Error_r { code = Protocol.Bad_request; message = "nope" };
      Protocol.Error_r { code = Protocol.Overloaded; message = "queue full" };
      Protocol.Error_r { code = Protocol.Unsupported; message = "" };
      Protocol.Error_r { code = Protocol.Internal; message = "boom" };
    ]
  in
  List.iteri
    (fun i body ->
      let resp = { Protocol.rid = i; body } in
      match Protocol.decode_response_bytes (Protocol.encode_response resp) with
      | Ok r' -> checkb "response round-trips" true (resp = r')
      | Error e -> Alcotest.fail ("response round-trip failed: " ^ e))
    bodies

let test_protocol_named_errors () =
  let expect_invalid what r =
    match Protocol.validate_request r with
    | Ok () -> Alcotest.fail (what ^ ": expected a validation error")
    | Error e -> checkb (what ^ " has a named reason") true (String.length e > 0)
  in
  expect_invalid "negative id" (req ~id:(-1) ());
  expect_invalid "zero trials" (req ~trials:0 ());
  expect_invalid "too many trials" (req ~trials:(Protocol.max_trials + 1) ());
  expect_invalid "negative t" (req ~t:(-1) ());
  expect_invalid "oversized t" (req ~t:(Protocol.max_t + 1) ());
  expect_invalid "negative vertex" (req ~vertex:(-1) ());
  expect_invalid "empty graph spec" (req ~graph:"" ());
  expect_invalid "oversized spec"
    (req ~graph:(String.make (Protocol.max_spec_len + 1) 'x') ());
  (* A mutated kind byte must not decode as the other message type. *)
  (match Protocol.decode_response_bytes (Protocol.encode_request (req ())) with
  | Ok _ -> Alcotest.fail "a request must not decode as a response"
  | Error e -> checkb "cross-kind decode is named" true (String.length e > 0));
  (* Correlation ids are carried redundantly (frame header + payload) and
     cross-checked. *)
  let f = Protocol.request_frame (req ~id:5 ()) in
  match Protocol.request_of_frame { f with Frame.a = 6 } with
  | Ok _ -> Alcotest.fail "id mismatch must not decode"
  | Error e -> checkb "id mismatch is named" true (contains e "mismatch")

let test_protocol_decode_fuzz () =
  (* Mirror of the Frame fuzz suite at the serve layer: single-byte
     mutations and truncations of valid request/response bytes must
     produce Ok or a named Error — never an exception, never an
     allocation driven by an unvalidated length. *)
  let rng = Rng.create 31337L in
  let fuzz enc decode =
    let n = String.length enc in
    for _ = 1 to 2_000 do
      let b = Bytes.of_string enc in
      let pos = Rng.int rng n in
      Bytes.set b pos (Char.chr (Rng.int rng 256));
      (match decode (Bytes.to_string b) with Ok _ | Error _ -> ());
      let cut = Rng.int rng (n + 1) in
      match decode (String.sub (Bytes.to_string b) 0 cut) with
      | Ok _ | Error _ -> ()
    done
  in
  fuzz
    (Protocol.encode_request
       (req ~id:17 ~op:Protocol.Infer ~graph:"grid:3x4" ~model:"ising:0.3"
          ~trials:5 ~vertex:3 ()))
    Protocol.decode_request_bytes;
  fuzz
    (Protocol.encode_response
       {
         Protocol.rid = 17;
         body =
           Protocol.Sample_r
             { trials = 4; successes = 3; distinct = 2; first = [| 1; 0; 1; 1 |] };
       })
    Protocol.decode_response_bytes;
  fuzz
    (Protocol.encode_response
       { Protocol.rid = 0; body = Protocol.Infer_r { probs = [| 0.5; 0.5 |] } })
    Protocol.decode_response_bytes;
  fuzz
    (Protocol.encode_response
       {
         Protocol.rid = 3;
         body =
           Protocol.Health_r
             { reasons = [ ("snapshot", "disk full"); ("accept", "EMFILE") ] };
       })
    Protocol.decode_response_bytes

(* --- lru -------------------------------------------------------------- *)

let test_lru () =
  let l = Lru.create ~capacity:2 in
  Lru.add l "a" 1;
  Lru.add l "b" 2;
  checki "two entries" 2 (Lru.length l);
  (* Touch "a" so "b" becomes least recent, then overflow. *)
  checkb "find refreshes" true (Lru.find l "a" = Some 1);
  Lru.add l "c" 3;
  checki "capacity held" 2 (Lru.length l);
  checki "one eviction" 1 (Lru.evictions l);
  checkb "lru entry evicted" true (Lru.find l "b" = None);
  checkb "recent entry kept" true (Lru.find l "a" = Some 1);
  checkb "new entry present" true (Lru.find l "c" = Some 3);
  (* Re-adding an existing key refreshes, never evicts. *)
  Lru.add l "a" 10;
  checki "refresh is not an eviction" 1 (Lru.evictions l);
  checkb "refresh updates the value" true (Lru.find l "a" = Some 10);
  match Lru.create ~capacity:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 must be rejected"

(* --- engine ----------------------------------------------------------- *)

let test_engine_cache_keys () =
  let k r = Engine.instance_key r in
  checkb "deterministic families share keys across seeds" true
    (k (req ~seed:1L ()) = k (req ~seed:2L ()));
  checkb "random families key on the seed" true
    (k (req ~seed:1L ~graph:"tree-rand:10" ())
    <> k (req ~seed:2L ~graph:"tree-rand:10" ()));
  checkb "regular graphs are seed-sensitive" true
    (Engine.seed_sensitive "regular:16x3");
  checkb "cycle graphs are not" true (not (Engine.seed_sensitive "cycle:16"));
  checkb "distinct models get distinct keys" true
    (k (req ()) <> k (req ~model:"ising:0.3" ()));
  checkb "distinct radii get distinct keys" true (k (req ~t:1 ()) <> k (req ~t:2 ()));
  (* Injectivity across spec boundaries: a '|' inside one spec must not
     collide with the key separator (regression: raw concatenation let
     ("cycle:1|x", "y") and ("cycle:1", "x|y") share a key). *)
  checkb "keys are injective across spec boundaries" true
    (k (req ~graph:"cycle:1|x" ~model:"y" ())
    <> k (req ~graph:"cycle:1" ~model:"x|y" ()))

let test_engine_named_rejections () =
  let e = Engine.create () in
  let expect_bad what r expected_msg =
    match Engine.submit e ~domains:1 r with
    | Error (Engine.Bad_request msg) ->
        checkb (what ^ " carries the parser's words") true (msg = expected_msg)
    | _ -> Alcotest.fail (what ^ ": expected Bad_request")
  in
  (* The daemon and the CLI reject the same values with the same words. *)
  let rng = Rng.create 42L in
  let graph_err =
    match Engine.parse_graph rng "blob:9" with Error m -> m | Ok _ -> assert false
  in
  expect_bad "unknown graph" (req ~graph:"blob:9" ()) graph_err;
  let g = match Engine.parse_graph rng "cycle:12" with Ok g -> g | Error _ -> assert false in
  let model_err =
    match Engine.parse_model g "nope:1" with Error m -> m | Ok _ -> assert false
  in
  expect_bad "unknown model" (req ~model:"nope:1" ()) model_err;
  let engine_err =
    let inst =
      match Engine.parse_model g "hardcore:0.8" with
      | Ok m -> Instance.unpinned m.Engine.spec
      | Error _ -> assert false
    in
    match Engine.make_oracle ~engine:"warp" ~t:1 inst with
    | Error m -> m
    | Ok _ -> assert false
  in
  expect_bad "unknown engine" (req ~engine:"warp" ()) engine_err;
  (match Engine.submit e ~domains:1 (req ~op:Protocol.Infer ~vertex:12 ()) with
  | Error (Engine.Bad_request msg) ->
      checkb "vertex range is named" true (contains msg "out of range")
  | _ -> Alcotest.fail "oversized vertex: expected Bad_request");
  (* The per-request graph size cap. *)
  let tiny = Engine.create ~max_vertices:8 () in
  match Engine.submit tiny ~domains:1 (req ()) with
  | Error (Engine.Bad_request msg) -> checkb "size cap is named" true (contains msg "cap")
  | _ -> Alcotest.fail "graph over the cap: expected Bad_request"

let test_engine_parity_with_library () =
  (* A serve request must compute exactly what the direct library calls
     compute: same graph/model derivation, same per-trial seed split as
     the CLI's sample_many, same oracle. *)
  let seed = 1234L in
  let rng = Rng.create seed in
  let g = match Engine.parse_graph rng "cycle:12" with Ok g -> g | Error _ -> assert false in
  let m = match Engine.parse_model g "hardcore:0.8" with Ok m -> m | Error _ -> assert false in
  let inst = Instance.unpinned m.Engine.spec in
  let oracle =
    match Engine.make_oracle ~engine:"ball" ~t:1 inst with
    | Ok o -> o
    | Error _ -> assert false
  in
  let trials = 5 in
  let expected =
    Array.map
      (fun r ->
        let res = Local_sampler.sample oracle inst ~seed:(Rng.bits64 r) in
        (res.Local_sampler.success, res.Local_sampler.sigma))
      (Rng.streams seed trials)
  in
  let e = Engine.create () in
  (match Engine.submit e ~domains:1 (req ~seed ~trials ()) with
  | Ok (Protocol.Sample_r { trials = t'; successes; first; _ }) ->
      checki "trials echoed" trials t';
      checki "successes match the direct trials" successes
        (Array.fold_left (fun acc (ok, _) -> if ok then acc + 1 else acc) 0 expected);
      let expected_first =
        match Array.find_opt fst expected with Some (_, y) -> y | None -> [||]
      in
      checkb "first sample is bit-identical" true (first = expected_first)
  | _ -> Alcotest.fail "sample parity: expected Sample_r");
  (match Engine.submit e ~domains:1 (req ~op:Protocol.Infer ~seed ~vertex:3 ()) with
  | Ok (Protocol.Infer_r { probs }) ->
      checkb "marginal is bit-identical" true
        (probs = Array.copy (oracle.Inference.infer inst 3 :> float array))
  | _ -> Alcotest.fail "infer parity: expected Infer_r");
  match Engine.submit e ~domains:1 (req ~op:Protocol.Count ~seed ()) with
  | Ok (Protocol.Count_r { log_z }) ->
      let order = Array.init (Instance.n inst) (fun i -> i) in
      checkb "ln Z is bit-identical" true
        (log_z = Reductions.estimate_log_partition oracle inst ~order)
  | _ -> Alcotest.fail "count parity: expected Count_r"

let mixed_batch =
  [
    req ~id:0 ~seed:5L ~trials:3 ();
    req ~id:1 ~op:Protocol.Infer ~seed:9L ~graph:"path:9" ~model:"ising:0.4" ~vertex:2 ();
    req ~id:2 ~seed:5L ~trials:3 ();  (* coalesces (and shares plans) with id 0 *)
    req ~id:3 ~op:Protocol.Count ~seed:5L ();
    req ~id:4 ~model:"nope:1" ();  (* named rejection, isolated to this id *)
    req ~id:5 ~graph:"tree:2x3" ~model:"coloring:4" ~seed:7L ~trials:2 ();
  ]

let test_engine_batch_determinism () =
  (* Two fresh engines, the same batch: identical results, including the
     error entries and the hit/miss accounting. *)
  let run () =
    let e = Engine.create () in
    let r1 = Engine.submit_batch e ~domains:1 mixed_batch in
    let r2 = Engine.submit_batch e ~domains:1 mixed_batch in
    (r1, r2, Engine.stats e)
  in
  let a1, a2, sa = run () in
  let b1, b2, sb = run () in
  checkb "fresh-engine batches are bit-identical" true (a1 = b1);
  checkb "warm-engine batches are bit-identical" true (a2 = b2);
  checkb "warm results equal cold results" true (a1 = a2);
  checkb "counters are a pure function of the stream" true (sa = sb);
  checkb "the bad request stays isolated" true
    (match List.nth a1 4 with Error (Engine.Bad_request _) -> true | _ -> false);
  checkb "good requests in the same batch still answer" true
    (match List.nth a1 5 with Ok (Protocol.Sample_r _) -> true | _ -> false);
  (* Batching accounting: id 2 coalesced onto id 0's compiled instance
     (and the bad request memoized), and the second submit hit caches. *)
  checkb "coalescing counted" true (sa.Protocol.st_coalesced >= 2);
  checkb "warm submit produced cache hits" true (sa.Protocol.st_cache_hits > 0);
  checki "requests counted" (2 * List.length mixed_batch) sa.Protocol.st_requests;
  checki "batches counted" 2 sa.Protocol.st_batches

let test_engine_duplicate_ids () =
  (* Each client numbers its requests independently, so one server batch
     can hold several requests sharing an id; every slot must keep its
     own body (regression: stage-5 bodies were keyed by the client id,
     so a duplicate silently overwrote another client's result). *)
  let a = req ~id:3 ~seed:5L ~trials:3 () in
  let b = req ~id:3 ~seed:9L ~trials:2 ~model:"ising:0.3" () in
  let batch = Engine.submit_batch (Engine.create ()) ~domains:1 [ a; b ] in
  let solo r = Engine.submit (Engine.create ()) ~domains:1 r in
  checkb "first slot answers its own request" true (List.nth batch 0 = solo a);
  checkb "second slot answers its own request" true (List.nth batch 1 = solo b)

(* A request whose model a library constructor rejects is answered
   [Bad_request] alone: its batch-mates (other keys, built before and
   after it) get the answers they get on their own. *)
let test_engine_bad_model_alone () =
  let infer ~id ?engine model =
    req ~id ~op:Protocol.Infer ~graph:"cycle:8" ?engine ~model ()
  in
  let first = infer ~id:0 "hardcore:1" and last = infer ~id:2 "ising:0.5" in
  let solo r = Engine.submit (Engine.create ()) ~domains:1 r in
  List.iter
    (fun (bad, named) ->
      let what = bad.Protocol.model ^ " on " ^ bad.Protocol.engine in
      match Engine.submit_batch (Engine.create ()) ~domains:1 [ first; bad; last ] with
      | [ a; Error (Engine.Bad_request msg); c ] ->
          checkb (what ^ ": message names it") true (contains msg named);
          checkb (what ^ ": first mate answered") true (a = solo first);
          checkb (what ^ ": last mate answered") true (c = solo last)
      | _ -> Alcotest.fail (what ^ ": expected the middle request alone refused"))
    [
      (infer ~id:1 "coloring:0", "coloring:0");
      (infer ~id:1 "hardcore:nan", "hardcore:nan");
      (infer ~id:1 "potts:3:-1", "potts:3:-1");
      (infer ~id:1 ~engine:"saw" "coloring:3", "saw");
    ]

(* A model whose weight tables would exceed Protocol.max_table is refused
   from the graph's size and q alone: coloring:1100 on cycle:8 needs
   8·1100 + 16·1100² ≈ 1.9·10⁷ entries, so building it would allocate at
   least that many words. *)
let test_engine_table_cap () =
  let big = req ~id:1 ~op:Protocol.Infer ~graph:"cycle:8" ~model:"coloring:1100" () in
  let mate = req ~id:0 ~op:Protocol.Infer ~graph:"cycle:8" ~model:"coloring:3" () in
  let words () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let e = Engine.create () in
  let before = words () in
  let refused = Engine.submit e ~domains:1 big in
  let used = words () -. before in
  (match refused with
  | Error (Engine.Bad_request msg) ->
      checkb "the message names the cap" true
        (contains msg (string_of_int Protocol.max_table))
  | _ -> Alcotest.fail "an over-cap model must be Bad_request");
  checkb (Printf.sprintf "refused without building the tables (%.0f words)" used) true
    (used < 1e6);
  match Engine.submit_batch e ~domains:1 [ mate; big ] with
  | [ Ok (Protocol.Infer_r _) as a; Error (Engine.Bad_request _) ] ->
      checkb "its batch-mate is answered" true
        (a = Engine.submit (Engine.create ()) ~domains:1 mate)
  | _ -> Alcotest.fail "the batch-mate of an over-cap model must be answered"

let test_engine_eviction_pressure () =
  (* An instance cache of 1 under alternating models must evict and the
     stats must say so — and the answers must not change. *)
  let e = Engine.create ~instance_cache:1 () in
  let small = Engine.create () in
  let alternating =
    [ req ~id:0 (); req ~id:1 ~model:"ising:0.3" (); req ~id:2 (); req ~id:3 ~model:"ising:0.3" () ]
  in
  let tight = List.map (fun r -> Engine.submit e ~domains:1 r) alternating in
  let roomy = List.map (fun r -> Engine.submit small ~domains:1 r) alternating in
  checkb "eviction pressure never changes answers" true (tight = roomy);
  checkb "evictions metered" true ((Engine.stats e).Protocol.st_evictions > 0);
  checki "no evictions with room" 0 (Engine.stats small).Protocol.st_evictions

(* --- the daemon end to end -------------------------------------------- *)

let e2e_requests =
  [
    req ~id:0 ~seed:5L ~trials:3 ();
    req ~id:1 ~op:Protocol.Infer ~seed:9L ~graph:"path:9" ~model:"ising:0.4" ~vertex:2 ();
    req ~id:2 ~op:Protocol.Count ~seed:5L ();
    req ~id:3 ~graph:"tree:2x3" ~model:"coloring:4" ~seed:7L ~trials:2 ();
  ]

let test_server_end_to_end () =
  let n = List.length e2e_requests in
  (* Budget: two identical passes plus one stats probe. *)
  let addr, pid = fork_server ~max_requests:((2 * n) + 1) () in
  let c = connect_or_fail addr in
  let pass () = List.map (fun r -> call_or_fail c r) e2e_requests in
  let first = pass () in
  let second = pass () in
  let stats_body =
    call_or_fail c
      (req ~id:99 ~op:Protocol.Stats ~graph:"-" ~model:"-" ~engine:"-" ~t:0 ())
  in
  Client.close c;
  ignore (Unix.waitpid [] pid);
  checkb "same request bytes, same response bytes" true (first = second);
  List.iter
    (fun body ->
      checkb "every op answered with its body" true
        (match body with
        | Protocol.Sample_r _ | Protocol.Infer_r _ | Protocol.Count_r _ -> true
        | _ -> false))
    first;
  match stats_body with
  | Protocol.Stats_r st ->
      checki "daemon answered every request" ((2 * n) + 1) st.Protocol.st_requests;
      checkb "the second pass hit the caches" true (st.Protocol.st_cache_hits >= n);
      checki "nothing rejected" 0 st.Protocol.st_rejected
  | _ -> Alcotest.fail "expected Stats_r"

let test_server_health_report () =
  (* A healthy daemon answers the Health op with an empty reason list —
     from the loop itself, before admission, so it costs no batch. *)
  let addr, pid = fork_server ~max_requests:1 () in
  let c = connect_or_fail addr in
  let body =
    call_or_fail c
      (req ~id:0 ~op:Protocol.Health ~graph:"-" ~model:"-" ~engine:"-" ~t:0 ())
  in
  Client.close c;
  ignore (Unix.waitpid [] pid);
  match body with
  | Protocol.Health_r { reasons = [] } -> ()
  | Protocol.Health_r { reasons } ->
      Alcotest.failf "fresh daemon reported %d degraded subsystem(s)"
        (List.length reasons)
  | _ -> Alcotest.fail "expected Health_r"

(* A raw socket to a forked daemon, for tests that write bytes the
   client would not. *)
let raw_connect addr =
  let path = match addr with Server.Unix_path p -> p | _ -> assert false in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec retry k =
    try Unix.connect fd (Unix.ADDR_UNIX path)
    with Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) when k > 0 ->
      Ls_shard.Supervisor.sleep_ms 50;
      retry (k - 1)
  in
  retry 50;
  fd

let test_server_overload () =
  (* A pipelining client must outrun a queue bound of 1 and observe
     Overloaded verdicts; every request is still answered exactly once,
     and in arrival order: a verdict waits behind the request admitted
     before it (regression: verdicts were written at once, overtaking
     the queue).  One write carries the whole burst, with a malformed
     frame in the middle, so the daemon decodes it all in one read. *)
  let n = 8 and bad = 3 in
  let addr, pid =
    fork_server ~queue_bound:1 ~batch_max:1 ~max_requests:n ()
  in
  let fd = raw_connect addr in
  let frame i =
    if i = bad then
      Frame.encode
        { Frame.kind = Protocol.kind_request; a = i; b = 0; c = 0; payload = "junk" }
    else Protocol.encode_request (req ~id:i ~seed:5L ~trials:2 ())
  in
  Frame.write_string fd (String.concat "" (List.init n frame));
  let rids = ref [] in
  let overloaded = ref 0 in
  for _ = 1 to n do
    match Protocol.read_response fd with
    | Error _ -> Alcotest.fail "expected a reply, got a read error"
    | Ok resp -> (
        rids := resp.Protocol.rid :: !rids;
        match resp.Protocol.body with
        | Protocol.Error_r { code = Protocol.Overloaded; _ } -> incr overloaded
        | Protocol.Error_r { code = Protocol.Bad_request; _ }
          when resp.Protocol.rid = bad ->
            ()
        | Protocol.Sample_r _ -> ()
        | _ -> Alcotest.fail "unexpected body under overload")
  done;
  Unix.close fd;
  ignore (Unix.waitpid [] pid);
  Alcotest.(check (list int))
    "each id answered once, in arrival order" (List.init n Fun.id)
    (List.rev !rids);
  checkb "the tiny queue rejected at least one request" true (!overloaded >= 1);
  checkb "at least one request was admitted" true (!overloaded < n - 1)

let test_server_malformed_input () =
  (* Broken framing gives the server no request boundary to resynchronize
     on: it drops the connection without answering.  A well-framed but
     malformed payload is answered Bad_request on the frame's id. *)
  let addr, pid = fork_server ~max_requests:1 () in
  let raw () = raw_connect addr in
  (* Connection 1: garbage bytes — expect a silent close.  At least a
     full frame header's worth, so the blocking header read completes
     and the magic check fires. *)
  let fd1 = raw () in
  let junk = Bytes.make 256 'x' in
  ignore (Unix.write fd1 junk 0 (Bytes.length junk));
  let buf = Bytes.create 64 in
  let rec read_eof () =
    match Unix.read fd1 buf 0 64 with
    | 0 -> true
    | _ -> read_eof ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_eof ()
  in
  checkb "broken framing drops the connection" true (read_eof ());
  Unix.close fd1;
  (* Connection 2: a valid frame holding a garbage payload — expect a
     named Bad_request response carrying the frame-header id. *)
  let fd2 = raw () in
  Frame.write_fd fd2
    { Frame.kind = Protocol.kind_request; a = 7; b = 0; c = 0; payload = "junk" };
  (match Protocol.read_response fd2 with
  | Ok { Protocol.rid; body = Protocol.Error_r { code = Protocol.Bad_request; message } } ->
      checki "the reply carries the frame id" 7 rid;
      checkb "the reason is named" true (String.length message > 0)
  | Ok _ -> Alcotest.fail "expected a Bad_request reply"
  | Error _ -> Alcotest.fail "expected a reply, got a read error");
  Unix.close fd2;
  ignore (Unix.waitpid [] pid)

let test_server_stalled_partial_frame () =
  (* A peer that sends half a frame and stalls must not block the loop:
     a second connection's request is still answered (regression: the
     drain path blocked in a full-frame read until the stalled peer
     finished).  Once the stalled peer completes its frame, it is
     answered normally too. *)
  let addr, pid = fork_server ~max_requests:2 () in
  let path = match addr with Server.Unix_path p -> p | _ -> assert false in
  let c = connect_or_fail addr in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let enc = Protocol.encode_request (req ~id:1 ~seed:9L ()) in
  let cut = 10 in
  ignore (Unix.write_substring fd enc 0 cut);
  (* Give the loop a select round to pull the partial bytes first: the
     stalled connection is drained before the healthy one. *)
  Ls_shard.Supervisor.sleep_ms 100;
  (match call_or_fail c (req ~id:0 ~seed:5L ()) with
  | Protocol.Sample_r _ -> ()
  | _ -> Alcotest.fail "expected a Sample_r past the stalled peer");
  ignore (Unix.write_substring fd enc cut (String.length enc - cut));
  (match Protocol.read_response fd with
  | Ok { Protocol.rid = 1; body = Protocol.Sample_r _ } -> ()
  | _ -> Alcotest.fail "completed frame must be answered");
  Unix.close fd;
  Client.close c;
  ignore (Unix.waitpid [] pid)

(* --- client failure naming -------------------------------------------- *)

let test_client_unknown_host () =
  (* gethostbyname signals an unknown host with Not_found, which used to
     escape connect as a bare exception; it must surface as Unknown_host
     from connect and as a named Error from connect_retry. *)
  let addr = Server.Tcp ("definitely-not-a-real-host.invalid", 4242) in
  (match Client.connect addr with
  | exception Client.Unknown_host host ->
      checkb "the exception names the host" true
        (contains host "definitely-not-a-real-host.invalid")
  | exception e ->
      Alcotest.fail ("expected Unknown_host, got " ^ Printexc.to_string e)
  | c ->
      Client.close c;
      Alcotest.fail "a .invalid hostname must not resolve");
  match Client.connect_retry ~attempts:1 addr with
  | Ok c ->
      Client.close c;
      Alcotest.fail "connect_retry must fail on an unknown host"
  | Error msg ->
      checkb "the error names the host" true (contains msg "unknown host");
      checkb "the error counts attempts" true (contains msg "1 attempt(s)")

let test_client_backoff_attempts () =
  (* A connect that never succeeds burns the whole budget and says so:
     ENOENT retries until the last attempt, which reports the count. *)
  let missing = sock_path () in
  match
    Client.connect_retry ~attempts:3 ~delay_ms:1 (Server.Unix_path missing)
  with
  | Ok c ->
      Client.close c;
      Alcotest.fail "connecting to a missing socket must fail"
  | Error msg ->
      checkb "the error counts every attempt" true (contains msg "3 attempt(s)");
      checkb "the error names the address" true (contains msg missing)

(* --- the shared load client --------------------------------------------- *)

(* The CLI's `query` stream before it moved into [Client.stream], kept
   verbatim apart from [graphs] becoming a parameter: the [trials] draw
   sits in a [let], the rest in record fields that the compiler
   evaluates right to left.  [Client.stream] must reproduce it. *)
module Reference = struct
  let gen_requests ?(graphs = [| "cycle:24"; "path:16"; "grid:3x4"; "tree:2x3" |])
      ~seed ?(deadline_ms = 0) ~n () =
    let rng = Rng.create (Int64.of_int seed) in
    let models = [| "hardcore:0.8"; "ising:0.3"; "coloring:5" |] in
    let seed_pool = Array.init 4 (fun _ -> Rng.bits64 rng) in
    let pick arr = arr.(Rng.int rng (Array.length arr)) in
    List.init n (fun i ->
        let op_draw = Rng.int rng 10 in
        let op =
          if op_draw < 6 then Protocol.Sample
          else if op_draw < 8 then Protocol.Infer
          else Protocol.Count
        in
        let trials =
          match op with Protocol.Sample -> 1 + Rng.int rng 4 | _ -> 1
        in
        {
          Protocol.id = i;
          op;
          seed = pick seed_pool;
          graph = pick graphs;
          model = pick models;
          t = 1;
          engine = "ball";
          trials;
          vertex = Rng.int rng 8;
          deadline_ms;
        })
end

let stream_seeds = [ 1; 7; 42; 1700; 1800; 1900; 2026; 2031 ]

let test_client_stream_reference () =
  List.iter
    (fun seed ->
      let got = Client.stream ~seed:(Int64.of_int seed) 64 in
      checkb
        (Printf.sprintf "seed %d: the stream is the old query stream" seed)
        true
        (Array.to_list got = Reference.gen_requests ~seed ~n:64 ());
      (* `query --deadline-ms` stamps the stream without a draw. *)
      checkb
        (Printf.sprintf "seed %d: a deadline consumes no draws" seed)
        true
        (Array.to_list
           (Array.map (fun r -> { r with Protocol.deadline_ms = 250 }) got)
        = Reference.gen_requests ~seed ~deadline_ms:250 ~n:64 ()))
    stream_seeds;
  checki "an empty stream" 0 (Array.length (Client.stream ~seed:1L 0))

(* Fork a chaos proxy in front of [upstream]; returns (address, pid). *)
let fork_proxy spec ~upstream =
  let path = sock_path () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (try Ls_chaos.Proxy.run spec ~listen:(Server.Unix_path path) ~upstream ()
       with _ -> ());
      Unix._exit 0
  | pid -> (Server.Unix_path path, pid)

let test_client_burst_through_proxy () =
  let reqs = Client.stream ~seed:5L 24 in
  let n = Array.length reqs in
  (* Resends after a reset count against the daemon's budget, so the
     budget is generous and SIGTERM ends the daemon instead. *)
  let addr, pid = fork_server ~max_requests:10_000 () in
  let direct = connect_or_fail addr in
  let expected = Array.map (call_or_fail direct) reqs in
  Client.close direct;
  let spec =
    { (Ls_chaos.Proxy.quiet 11L) with
      Ls_chaos.Proxy.reset = 0.05; truncate = 0.05 }
  in
  let pxy, ppid = fork_proxy spec ~upstream:addr in
  let connects = ref 0 in
  let connect () =
    incr connects;
    Client.connect_retry ~attempts:200 ~delay_ms:5 pxy
  in
  let answers = ref [] in
  (match
     Client.burst ~on_answer:(fun k -> answers := k :: !answers) ~connect
       ~pipeline:4 reqs
   with
  | Error msg -> Alcotest.fail ("burst through the proxy: " ^ msg)
  | Ok { Client.responses; conn; latency } ->
      Client.close conn;
      checki "one response per request" n (Array.length responses);
      Array.iteri
        (fun i r -> checki "responses are in id order" i r.Protocol.rid)
        responses;
      checkb "the bodies equal sequential calls" true
        (Array.map (fun r -> r.Protocol.body) responses = expected);
      checkb "latencies are non-negative" true
        (Array.for_all (fun l -> l >= 0.) latency);
      checkb "on_answer counts each new answer once" true
        (List.rev !answers = List.init n (fun k -> k + 1)));
  checkb "the schedule broke at least one connection" true (!connects > 1);
  (* A rid outside [0, n) is an error, not a silent drop. *)
  let shifted =
    Array.map (fun r -> { r with Protocol.id = r.Protocol.id + 2 }) (Array.sub reqs 0 2)
  in
  (match
     Client.burst ~connect:(fun () -> Client.connect_retry addr) ~pipeline:2
       shifted
   with
  | Ok _ -> Alcotest.fail "an out-of-range rid must be an error"
  | Error msg -> checkb "the error names the range" true (contains msg "out of range"));
  (try Unix.kill ppid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] ppid);
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid)

(* --- warm-start snapshots ---------------------------------------------- *)

let test_engine_snapshot_roundtrip () =
  let e = Engine.create ~instance_cache:8 () in
  let r1 = req ~id:0 ~seed:11L ~trials:3 () in
  let r2 =
    req ~id:1 ~op:Protocol.Count ~graph:"grid:3x4" ~model:"ising:0.3" ~t:2 ()
  in
  let body1 =
    match Engine.submit e ~domains:1 r1 with
    | Ok b -> b
    | Error _ -> Alcotest.fail "submit r1"
  in
  (match Engine.submit e ~domains:1 r2 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "submit r2");
  let snap = Engine.snapshot e in
  let e2 = Engine.create ~instance_cache:8 () in
  (match Engine.restore e2 snap with
  | Ok n -> checkb "restore rebuilds at least one entry" true (n >= 1)
  | Error msg -> Alcotest.fail ("restore: " ^ msg));
  let body1' =
    match Engine.submit e2 ~domains:1 r1 with
    | Ok b -> b
    | Error _ -> Alcotest.fail "submit r1 on the restored engine"
  in
  checkb "restored caches serve identical bytes" true
    (Protocol.encode_response { Protocol.rid = 0; body = body1 }
    = Protocol.encode_response { Protocol.rid = 0; body = body1' });
  let st = Engine.stats e2 in
  checkb "hits on restored keys count as snapshot hits" true
    (st.Protocol.st_snapshot_hits >= 1);
  checkb "and as ordinary cache hits" true (st.Protocol.st_cache_hits >= 1);
  match Engine.restore (Engine.create ()) "garbage payload" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a garbage payload must be a named error"

let test_snapshot_corrupt_reads_as_absence () =
  (* The on-disk contract: a torn or corrupted snapshot file is
     indistinguishable from no snapshot — the daemon cold-starts, it
     never crashes or loads damaged caches. *)
  let module Ckpt = Ls_shard.Ckpt in
  let path = Filename.temp_file "ls-serve-snap" ".snap" in
  let meta = { Ckpt.run_id = 77L; shard = 0; phase = 1; round = 3 } in
  Ckpt.save_path ~path meta "the cache payload";
  let slurp () =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let rewrite s =
    let oc = open_out_bin path in
    output_string oc s;
    close_out oc
  in
  let whole = slurp () in
  (match Ckpt.load_path ~path with
  | Some (m, payload) ->
      checkb "an intact snapshot loads" true
        (m = meta && payload = "the cache payload")
  | None -> Alcotest.fail "an intact snapshot must load");
  rewrite (String.sub whole 0 (String.length whole / 2));
  checkb "a torn snapshot reads as absence" true (Ckpt.load_path ~path = None);
  let b = Bytes.of_string whole in
  let last = Bytes.length b - 1 in
  Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0x01));
  rewrite (Bytes.to_string b);
  checkb "a corrupt snapshot reads as absence" true
    (Ckpt.load_path ~path = None);
  rewrite "not a snapshot at all";
  checkb "garbage reads as absence" true (Ckpt.load_path ~path = None);
  Sys.remove path

(* --- admission: deadlines and fairness --------------------------------- *)

let test_server_deadline_expired () =
  (* Two heavy requests ahead in the queue hold the deadline request well
     past its 1 ms budget (batch_max 1 serializes them); it must be
     answered Expired without executing. *)
  let addr, pid =
    fork_server ~queue_bound:16 ~batch_max:1 ~max_requests:3 ()
  in
  let c = connect_or_fail addr in
  Client.send c (req ~id:0 ~seed:3L ~trials:10_000 ());
  Client.send c (req ~id:1 ~seed:4L ~trials:10_000 ());
  Client.send c (req ~id:2 ~seed:5L ~deadline_ms:1 ());
  (match Client.recv c with
  | Ok { Protocol.rid = 0; body = Protocol.Sample_r _ } -> ()
  | _ -> Alcotest.fail "the first heavy request must be answered");
  (match Client.recv c with
  | Ok { Protocol.rid = 1; body = Protocol.Sample_r _ } -> ()
  | _ -> Alcotest.fail "the second heavy request must be answered");
  (match Client.recv c with
  | Ok { Protocol.rid = 2; body = Protocol.Error_r { code = Protocol.Expired; message } }
    ->
      checkb "the verdict carries a reason" true (String.length message > 0)
  | Ok { Protocol.rid = 2; body = Protocol.Sample_r _ } ->
      Alcotest.fail "a 1 ms deadline behind two heavy batches must expire"
  | _ -> Alcotest.fail "expected the deadline verdict");
  Client.close c;
  ignore (Unix.waitpid [] pid)

let test_server_fairness () =
  (* Admission is per connection: a flooding client fills its own queue
     and eats the Overloaded verdicts; a quiet client walking in behind
     the flood is still served. *)
  let n = 12 in
  let addr, pid =
    fork_server ~queue_bound:2 ~batch_max:1 ~max_requests:(n + 1) ()
  in
  let a = connect_or_fail addr in
  let b = connect_or_fail addr in
  List.iter
    (fun r -> Client.send a r)
    (List.init n (fun i -> req ~id:i ~seed:5L ~trials:2 ()));
  (* Let the daemon pull the flood so A's admission verdicts are fixed
     before B's request arrives. *)
  Ls_shard.Supervisor.sleep_ms 100;
  (match call_or_fail b (req ~id:99 ~seed:6L ()) with
  | Protocol.Sample_r _ -> ()
  | Protocol.Error_r { code = Protocol.Overloaded; _ } ->
      Alcotest.fail "the quiet client must not pay for the flooder's queue"
  | _ -> Alcotest.fail "unexpected body for the quiet client");
  let overloaded = ref 0 in
  for _ = 1 to n do
    match Client.recv a with
    | Error msg -> Alcotest.fail ("recv: " ^ msg)
    | Ok resp -> (
        match resp.Protocol.body with
        | Protocol.Error_r { code = Protocol.Overloaded; _ } -> incr overloaded
        | Protocol.Sample_r _ -> ()
        | _ -> Alcotest.fail "unexpected body under flood")
  done;
  Client.close a;
  Client.close b;
  ignore (Unix.waitpid [] pid);
  checkb "the flooder saw Overloaded" true (!overloaded >= 1);
  checkb "the flooder still got answers" true (!overloaded < n)

(* --- crash tolerance --------------------------------------------------- *)

let test_server_drain_under_load () =
  (* SIGTERM mid-burst: the daemon stops accepting, answers every admitted
     request, and exits 0 — the client sees all n answers, then EOF. *)
  let path = sock_path () in
  (try Unix.unlink path with _ -> ());
  flush stdout;
  flush stderr;
  let pid =
    match Unix.fork () with
    | 0 ->
        let cfg =
          Server.config ~address:(Server.Unix_path path) ~queue_bound:32
            ~batch_max:2 ()
        in
        ignore (Server.run ~cfg ());
        Unix._exit 0
    | pid -> pid
  in
  let c = connect_or_fail (Server.Unix_path path) in
  let n = 10 in
  List.iter
    (fun r -> Client.send c r)
    (List.init n (fun i -> req ~id:i ~seed:21L ~trials:5_000 ()));
  (* The daemon answers Health as it decodes the frame, so the reply
     proves every request before it was read and admitted: only then
     interrupt, mid-execution. *)
  Client.send c (req ~id:n ~op:Protocol.Health ~graph:"-" ~model:"-" ~engine:"-" ~t:0 ());
  let seen = Array.make n 0 and answered = ref 0 in
  let sample resp =
    checkb "rid in range" true (resp.Protocol.rid >= 0 && resp.Protocol.rid < n);
    seen.(resp.Protocol.rid) <- seen.(resp.Protocol.rid) + 1;
    incr answered;
    match resp.Protocol.body with
    | Protocol.Sample_r _ -> ()
    | _ -> Alcotest.fail "unexpected body during drain"
  in
  let rec await_health () =
    match Client.recv c with
    | Error msg -> Alcotest.fail ("health before the drain: " ^ msg)
    | Ok { Protocol.rid; body = Protocol.Health_r _ } when rid = n -> ()
    | Ok resp ->
        sample resp;
        await_health ()
  in
  await_health ();
  Unix.kill pid Sys.sigterm;
  (* A request the stopping daemon usually never reads: closing over
     unread bytes would reset the connection (and on TCP discard answers
     in flight), so the stream must still end in a clean EOF. *)
  Client.send c (req ~id:(n + 1) ~seed:22L ());
  while !answered < n do
    match Client.recv c with
    | Error msg -> Alcotest.fail ("the drain must answer first: " ^ msg)
    | Ok resp -> sample resp
  done;
  (* The late request is answered, last, only when the daemon read it
     before the stop took hold. *)
  let rec finish late =
    match Client.recv c with
    | Error "server closed the connection" -> ()
    | Error msg -> Alcotest.fail ("after the drain: EOF, not " ^ msg)
    | Ok { Protocol.rid; _ } when rid = n + 1 && not late -> finish true
    | Ok _ -> Alcotest.fail "after the drain: EOF, not extra responses"
  in
  finish false;
  Client.close c;
  let _, status = Unix.waitpid [] pid in
  Array.iteri
    (fun i k -> checki (Printf.sprintf "id %d answered once" i) 1 k)
    seen;
  checkb "the daemon exits 0 after the drain" true (status = Unix.WEXITED 0)

let test_server_supervised_restart () =
  (* kill -9 on the worker mid-session: the supervisor respawns it under
     the parent-held listener, the replacement warm-starts from the cache
     snapshot, and the same request bytes draw the same response bytes. *)
  let prev = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe prev) @@ fun () ->
  let path = sock_path () in
  (try Unix.unlink path with _ -> ());
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ls-serve-state-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let pid_file = Filename.concat dir "worker.pid" in
  flush stdout;
  flush stderr;
  let sup =
    match Unix.fork () with
    | 0 ->
        (try
           let cfg =
             Server.config ~address:(Server.Unix_path path) ~queue_bound:16
               ~batch_max:4 ~state_dir:dir ~snapshot_every:1 ()
           in
           ignore (Server.run_supervised ~cfg ~worker_pid_file:pid_file ())
         with _ -> Unix._exit 1);
        Unix._exit 0
    | pid -> pid
  in
  let read_pid () =
    match open_in pid_file with
    | exception Sys_error _ -> None
    | ic ->
        let line = try input_line ic with End_of_file -> "" in
        close_in ic;
        int_of_string_opt (String.trim line)
  in
  let rec wait_pid_file k =
    match read_pid () with
    | Some p -> p
    | None when k > 0 ->
        Ls_shard.Supervisor.sleep_ms 20;
        wait_pid_file (k - 1)
    | None -> Alcotest.fail "the worker pid file never appeared"
  in
  let r1 = req ~id:0 ~seed:3L ~trials:3 () in
  let c1 = connect_or_fail (Server.Unix_path path) in
  let body1 = call_or_fail c1 r1 in
  (* Give the worker a beat to finish the post-batch snapshot before the
     kill lands (snapshot_every=1: the first batch writes it). *)
  Ls_shard.Supervisor.sleep_ms 150;
  let worker = wait_pid_file 250 in
  Unix.kill worker Sys.sigkill;
  Client.close c1;
  let c2 = connect_or_fail (Server.Unix_path path) in
  let body2 = call_or_fail c2 r1 in
  checkb "same request bytes, same response bytes across the restart" true
    (Protocol.encode_response { Protocol.rid = 0; body = body1 }
    = Protocol.encode_response { Protocol.rid = 0; body = body2 });
  (match
     call_or_fail c2
       (req ~id:9 ~op:Protocol.Stats ~graph:"-" ~model:"-" ~engine:"-" ~t:0 ())
   with
  | Protocol.Stats_r st ->
      checkb "the restart is counted" true (st.Protocol.st_restarts >= 1);
      checkb "the replacement warm-started from the snapshot" true
        (st.Protocol.st_snapshot_hits >= 1)
  | _ -> Alcotest.fail "expected Stats_r");
  Client.close c2;
  Unix.kill sup Sys.sigterm;
  let _, status = Unix.waitpid [] sup in
  checkb "the supervisor exits 0 on SIGTERM" true (status = Unix.WEXITED 0)

(* --- validated environment (the exit-2 contract) ----------------------- *)

let with_env pairs f =
  let saved = List.map (fun (k, _) -> (k, Sys.getenv_opt k)) pairs in
  List.iter (fun (k, v) -> Unix.putenv k v) pairs;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (k, old) -> Unix.putenv k (Option.value old ~default:""))
        saved)
    f

(* One row per LOCSAMPLE_* variable this binary links: its library
   accessor (rendered as a string), the default that accessor gives
   unset or empty, values it must reject and values it must accept. *)
let env_rows ~file =
  let module Sysfault = Ls_chaos.Sysfault in
  let tmp = Filename.get_temp_dir_name () in
  let int = string_of_int and float = Printf.sprintf "%g" in
  [
    ( "LOCSAMPLE_DOMAINS",
      (fun () -> int (Par.default_domains ())),
      int (Domain.recommended_domain_count ()),
      [ "abc"; "0" ], [ "4" ] );
    ( "LOCSAMPLE_SHARD_DIR",
      Ls_shard.Ckpt.default_dir,
      Filename.concat tmp "locsample-shard-ckpt",
      [ file ], [ tmp ] );
    ( "LOCSAMPLE_SERVE_SOCKET",
      (fun () -> Server.address_to_string (Server.default_address ())),
      "unix:" ^ Filename.concat tmp "locsample-serve.sock",
      [ "tcp:notaport:xyz"; "tcp:0" ], [ "unix:/tmp/x.sock"; "tcp:7000" ] );
    ( "LOCSAMPLE_SERVE_QUEUE",
      (fun () -> int (Server.default_queue ())),
      "64", [ "-3"; "lots" ], [ "8" ] );
    ( "LOCSAMPLE_SERVE_CACHE",
      (fun () -> int (Server.default_cache ())),
      "64", [ "zero"; "-1" ], [ "16" ] );
    ( "LOCSAMPLE_SERVE_SEND_TIMEOUT",
      (fun () -> float (Server.default_send_timeout ())),
      "10", [ "abc"; "0"; "nope" ], [ "2.5" ] );
    ( "LOCSAMPLE_SERVE_STATE",
      (fun () -> Option.value (Server.config ()).Server.state_dir ~default:"none"),
      "none", [ file ], [ tmp ] );
    ( "LOCSAMPLE_SYSFAULT",
      (fun () ->
        Sysfault.uninstall ();
        Fun.protect ~finally:Sysfault.uninstall (fun () ->
            Sysfault.install_from_env ();
            Option.fold ~none:"none" ~some:Sysfault.to_string (Sysfault.current ()))),
      "none", [ "bogus=1"; "write=2" ], [ "seed=3,write=0.5" ] );
  ]

let test_env_checks_unit () =
  let file = Filename.temp_file "ls-serve-notadir" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  List.iter
    (fun (var, get, default, bad, good) ->
      (* Unset (when the ambient environment leaves it so) and empty
         both give the default. *)
      if Sys.getenv_opt var = None then
        Alcotest.(check string) (var ^ " unset gives the default") default (get ());
      with_env [ (var, "") ] (fun () ->
          Alcotest.(check string) (var ^ " empty gives the default") default
            (get ());
          checkb (var ^ " empty passes") true (Ls_obs.Env.check_all () = Ok ()));
      List.iter
        (fun v ->
          with_env [ (var, v) ] (fun () ->
              match Ls_obs.Env.check_all () with
              | Ok () -> Alcotest.failf "%s=%S: expected a validation error" var v
              | Error msg -> (
                  checkb (var ^ " error names the variable") true
                    (contains msg (var ^ "="));
                  (* The accessor rejects exactly what the check rejects,
                     in the same words: no silent fallback to the default. *)
                  match get () with
                  | exception Invalid_argument m ->
                      Alcotest.(check string) (var ^ " accessor raises the same message")
                        msg m
                  | _ -> Alcotest.failf "%s=%S: the accessor must raise" var v)))
        bad;
      List.iter
        (fun v ->
          with_env [ (var, v) ] (fun () ->
              checkb (Printf.sprintf "%s=%S passes" var v) true
                (Ls_obs.Env.check_all () = Ok ());
              ignore (get ())))
        good)
    (env_rows ~file);
  with_env
    [ ("LOCSAMPLE_SERVE_SOCKET", "unix:/tmp/x.sock");
      ("LOCSAMPLE_SERVE_QUEUE", "8"); ("LOCSAMPLE_SERVE_CACHE", "16") ]
    (fun () ->
      checkb "valid serve env passes" true (Ls_obs.Env.check_all () = Ok ()))

(* The library accessors once accepted values the CLI's startup check
   rejected: a malformed socket became a unix path of that name, and a
   shard dir naming a file was handed to the first checkpoint write. *)
let test_env_socket_accessor () =
  with_env [ ("LOCSAMPLE_SERVE_SOCKET", "tcp:notaport:xyz") ] (fun () ->
      match Server.default_address () with
      | exception Invalid_argument msg ->
          checkb "names the variable" true (contains msg "LOCSAMPLE_SERVE_SOCKET")
      | a ->
          Alcotest.failf "malformed socket accepted as %s"
            (Server.address_to_string a))

let test_env_shard_dir_accessor () =
  let file = Filename.temp_file "ls-shard-notadir" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  with_env [ ("LOCSAMPLE_SHARD_DIR", file) ] (fun () ->
      match Ls_shard.Ckpt.default_dir () with
      | exception Invalid_argument msg ->
          checkb "names the variable" true (contains msg "LOCSAMPLE_SHARD_DIR")
      | d -> Alcotest.failf "a file accepted as the shard dir: %s" d)

(* Exec the real binary: a malformed LOCSAMPLE_* variable must exit 2
   with a named message — never escape as an uncaught backtrace (the
   regression this PR fixes). *)
let locsample_exe =
  (* The test binary lives in _build/default/test/; the CLI is a declared
     dep at _build/default/bin/.  Resolve relative to the test executable
     so the path holds under both `dune runtest` and `dune exec`. *)
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "locsample.exe")

let run_cli ~extra_env args =
  let keep s = not (contains s "LOCSAMPLE_") in
  let env =
    Array.of_list
      (List.filter keep (Array.to_list (Unix.environment ())) @ extra_env)
  in
  let out_file = Filename.temp_file "ls-serve-cli" ".out" in
  let err_file = Filename.temp_file "ls-serve-cli" ".err" in
  let fd_out = Unix.openfile out_file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let fd_err = Unix.openfile err_file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process_env locsample_exe
      (Array.of_list (locsample_exe :: args))
      env Unix.stdin fd_out fd_err
  in
  Unix.close fd_out;
  Unix.close fd_err;
  let _, status = Unix.waitpid [] pid in
  let slurp path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove path;
    s
  in
  let out = slurp out_file in
  let err = slurp err_file in
  let code = match status with Unix.WEXITED c -> c | _ -> -1 in
  (code, out, err)

let test_cli_env_exit2 () =
  let cheap = [ "phase"; "--depth"; "1" ] in
  let expect_named_exit2 what extra_env var =
    let code, _out, err = run_cli ~extra_env cheap in
    checki (what ^ " exits 2") 2 code;
    checkb (what ^ " names the variable") true (contains err var);
    checkb (what ^ " is not a backtrace") true (not (contains err "Raised at"));
    checkb (what ^ " uses the CLI prefix") true (contains err "locsample:")
  in
  expect_named_exit2 "malformed LOCSAMPLE_DOMAINS"
    [ "LOCSAMPLE_DOMAINS=abc" ] "LOCSAMPLE_DOMAINS";
  expect_named_exit2 "zero LOCSAMPLE_DOMAINS"
    [ "LOCSAMPLE_DOMAINS=0" ] "LOCSAMPLE_DOMAINS";
  expect_named_exit2 "malformed LOCSAMPLE_SERVE_QUEUE"
    [ "LOCSAMPLE_SERVE_QUEUE=lots" ] "LOCSAMPLE_SERVE_QUEUE";
  let file = Filename.temp_file "ls-serve-notadir" ".txt" in
  expect_named_exit2 "LOCSAMPLE_SHARD_DIR pointing at a file"
    [ "LOCSAMPLE_SHARD_DIR=" ^ file ] "LOCSAMPLE_SHARD_DIR";
  Sys.remove file;
  expect_named_exit2 "zero LOCSAMPLE_SERVE_SEND_TIMEOUT"
    [ "LOCSAMPLE_SERVE_SEND_TIMEOUT=0" ] "LOCSAMPLE_SERVE_SEND_TIMEOUT";
  let state_file = Filename.temp_file "ls-serve-state-notadir" ".txt" in
  expect_named_exit2 "LOCSAMPLE_SERVE_STATE pointing at a file"
    [ "LOCSAMPLE_SERVE_STATE=" ^ state_file ] "LOCSAMPLE_SERVE_STATE";
  Sys.remove state_file;
  (* And a well-formed environment still runs. *)
  let code, out, _err = run_cli ~extra_env:[ "LOCSAMPLE_DOMAINS=2" ] cheap in
  checki "valid env exits 0" 0 code;
  checkb "valid env produces output" true (String.length out > 0)

(* Values the library or the daemon rejects must exit 2 with a named
   message before any output — never a wrong answer, a half-printed
   table or an uncaught exception. *)
let test_cli_rejects_bad_values () =
  let expect what args named =
    let code, out, err = run_cli ~extra_env:[] args in
    checki (what ^ " exits 2") 2 code;
    checkb (what ^ " names " ^ named) true (contains err named);
    checkb (what ^ " prints nothing on stdout") true (out = "");
    checkb (what ^ " is not an uncaught exception") true
      (not (contains err "uncaught"))
  in
  expect "a negative infer radius" [ "infer"; "--radius=-1" ] "t=-1";
  expect "a negative count radius" [ "count"; "--radius=-1" ] "t=-1";
  expect "zero sample trials" [ "sample"; "--trials"; "0" ] "--trials";
  expect "phase at branching 0" [ "phase"; "-b"; "0" ] "branching";
  expect "phase at a negative depth" [ "phase"; "--depth=-1" ] "depth";
  expect "phase at a negative fugacity" [ "phase"; "--lambdas=-1" ]
    "fugacity";
  (* A model a library constructor rejects, or whose weights are not
     finite non-negative numbers, is named before the model line prints. *)
  List.iter
    (fun m -> expect ("model " ^ m) [ "infer"; "-g"; "cycle:6"; "-m"; m ] m)
    [ "coloring:0"; "coloring:-1"; "potts:0:1"; "potts:3:-1"; "hardcore:-1";
      "hardcore:nan"; "ising:nan"; "hardcore:inf" ];
  (* The transcript opens before the connect: no daemon is needed to
     see the error, and none is retried for. *)
  expect "an unwritable transcript"
    [ "query"; "--connect"; "unix:" ^ sock_path ();
      "--transcript"; "/nonexistent/dir/t.txt" ]
    "--transcript"

(* --fault-profile is the base plan and an explicit fault flag overrides
   its field even when set to the flag's default value: lossy with
   --fault-rate 0 is no faults at all, and flaky with --max-delay 1
   delays by one round at most. *)
let test_cli_explicit_default_overrides_profile () =
  let sample extra =
    let code, out, _err =
      run_cli ~extra_env:[] ([ "sample"; "-g"; "cycle:12"; "--seed"; "42" ] @ extra)
    in
    checki (String.concat " " extra ^ " exits 0") 0 code;
    out
  in
  let plain = sample [] in
  checkb "lossy with --fault-rate 0 prints the fault-free run" true
    (sample [ "--fault-profile"; "lossy"; "--fault-rate"; "0" ] = plain);
  let flaky = sample [ "--fault-profile"; "flaky"; "--max-delay"; "1" ] in
  checkb "flaky with --max-delay 1 still runs under faults" true
    (contains flaky "faults(seed=43");
  checkb "flaky with --max-delay 1 no longer delays by 2" false
    (contains flaky "(max 2)")

let suite =
  [
    Alcotest.test_case "protocol round-trip" `Quick test_protocol_roundtrip;
    Alcotest.test_case "protocol named errors" `Quick test_protocol_named_errors;
    Alcotest.test_case "protocol decode fuzz (mutated bytes)" `Quick
      test_protocol_decode_fuzz;
    Alcotest.test_case "lru eviction order and counters" `Quick test_lru;
    Alcotest.test_case "engine cache keys" `Quick test_engine_cache_keys;
    Alcotest.test_case "engine named rejections" `Quick
      test_engine_named_rejections;
    Alcotest.test_case "engine parity with direct library calls" `Quick
      test_engine_parity_with_library;
    Alcotest.test_case "engine batch determinism + coalescing" `Quick
      test_engine_batch_determinism;
    Alcotest.test_case "engine duplicate client ids in one batch" `Quick
      test_engine_duplicate_ids;
    Alcotest.test_case "engine eviction pressure" `Quick
      test_engine_eviction_pressure;
    Alcotest.test_case "server end to end (unix socket)" `Quick
      test_server_end_to_end;
    Alcotest.test_case "server health report" `Quick test_server_health_report;
    Alcotest.test_case "server overload verdicts" `Quick test_server_overload;
    Alcotest.test_case "server malformed input" `Quick
      test_server_malformed_input;
    Alcotest.test_case "server stalled partial frame" `Quick
      test_server_stalled_partial_frame;
    Alcotest.test_case "client: unknown host is a named error" `Quick
      test_client_unknown_host;
    Alcotest.test_case "client: connect backoff counts attempts" `Quick
      test_client_backoff_attempts;
    Alcotest.test_case "client: stream matches the reference" `Quick
      test_client_stream_reference;
    Alcotest.test_case "client: burst survives resets and truncations" `Quick
      test_client_burst_through_proxy;
    Alcotest.test_case "engine snapshot round-trip (warm start)" `Quick
      test_engine_snapshot_roundtrip;
    Alcotest.test_case "snapshot torn/corrupt reads as absence" `Quick
      test_snapshot_corrupt_reads_as_absence;
    Alcotest.test_case "server deadline expiry" `Quick
      test_server_deadline_expired;
    Alcotest.test_case "server per-connection fairness" `Quick
      test_server_fairness;
    Alcotest.test_case "server drain under load (SIGTERM)" `Quick
      test_server_drain_under_load;
    Alcotest.test_case "server supervised kill -9 restart" `Quick
      test_server_supervised_restart;
    Alcotest.test_case "env validation (unit)" `Quick test_env_checks_unit;
    Alcotest.test_case "cli: malformed env exits 2, no backtrace" `Quick
      test_cli_env_exit2;
    Alcotest.test_case "cli: rejected values exit 2 before output" `Quick
      test_cli_rejects_bad_values;
    Alcotest.test_case "cli: an explicit default-valued flag overrides the \
                        profile" `Quick
      test_cli_explicit_default_overrides_profile;
    Alcotest.test_case "engine: a bad model is refused alone" `Quick
      test_engine_bad_model_alone;
    Alcotest.test_case "engine: weight-table cap" `Quick test_engine_table_cap;
    Alcotest.test_case "env: a malformed serve socket raises in the accessor"
      `Quick test_env_socket_accessor;
    Alcotest.test_case "env: a shard dir naming a file raises in the accessor"
      `Quick test_env_shard_dir_accessor;
  ]
