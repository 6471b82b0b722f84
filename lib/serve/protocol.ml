(* Wire protocol for the serving daemon.

   Framing is delegated to Ls_shard.Frame (magic, kind byte, length
   prefix validated before allocation, payload digest, EINTR-safe IO);
   this module owns the payload layer: a request or response body behind
   its own 4-byte magic, every field length-checked against the bytes
   actually present before any allocation is sized by it.  The codec is
   pure — encode/decode never touch a descriptor — so the fuzz suite can
   hammer it exactly like the Frame codec: mutated bytes produce named
   [Error]s, never exceptions. *)

module Frame = Ls_shard.Frame
module Codec = Ls_sketch.Codec

let kind_request = 0x51 (* 'Q' *)
let kind_response = 0x52 (* 'R' *)
let request_magic = "LSRQ"
let response_magic = "LSRS"

(* Hard caps: every variable-length field is bounded, so a hostile peer
   cannot make the daemon allocate more than a few MB per frame. *)
let max_spec_len = 256
let max_trials = 1_000_000
let max_t = 1_000_000
let max_table = 1 lsl 24
let max_vector = 1_000_000
let max_deadline_ms = 86_400_000

type op = Sample | Infer | Count | Stats | Health

let op_name = function
  | Sample -> "sample"
  | Infer -> "infer"
  | Count -> "count"
  | Stats -> "stats"
  | Health -> "health"

let op_tag = function
  | Sample -> 0
  | Infer -> 1
  | Count -> 2
  | Stats -> 3
  | Health -> 4

let op_of_tag = function
  | 0 -> Ok Sample
  | 1 -> Ok Infer
  | 2 -> Ok Count
  | 3 -> Ok Stats
  | 4 -> Ok Health
  | n -> Error (Printf.sprintf "Protocol: unknown op tag %d" n)

type request = {
  id : int;
  op : op;
  seed : int64;
  graph : string;
  model : string;
  t : int;
  engine : string;
  trials : int;
  vertex : int;
  deadline_ms : int;
}

type err_code = Bad_request | Overloaded | Unsupported | Internal | Expired

let err_name = function
  | Bad_request -> "bad_request"
  | Overloaded -> "overloaded"
  | Unsupported -> "unsupported"
  | Internal -> "internal"
  | Expired -> "expired"

let err_tag = function
  | Bad_request -> 0
  | Overloaded -> 1
  | Unsupported -> 2
  | Internal -> 3
  | Expired -> 4

let err_of_tag = function
  | 0 -> Ok Bad_request
  | 1 -> Ok Overloaded
  | 2 -> Ok Unsupported
  | 3 -> Ok Internal
  | 4 -> Ok Expired
  | n -> Error (Printf.sprintf "Protocol: unknown error code %d" n)

type stats = {
  st_requests : int;
  st_batches : int;
  st_coalesced : int;
  st_cache_hits : int;
  st_cache_misses : int;
  st_evictions : int;
  st_rejected : int;
  st_expired : int;
  st_snapshot_hits : int;
  st_restarts : int;
  st_max_queue : int;
  st_domains : int;
}

type body =
  | Sample_r of {
      trials : int;
      successes : int;
      distinct : int;
      first : int array;
    }
  | Infer_r of { probs : float array }
  | Count_r of { log_z : float }
  | Stats_r of stats
  | Health_r of { reasons : (string * string) list }
      (* (subsystem, reason) pairs, sorted; [] = ok *)
  | Error_r of { code : err_code; message : string }

type response = { rid : int; body : body }

(* --- validation ------------------------------------------------------- *)

let check_spec name s =
  let len = String.length s in
  if len = 0 then Error (Printf.sprintf "Protocol: empty %s spec" name)
  else if len > max_spec_len then
    Error
      (Printf.sprintf "Protocol: %s spec of %d bytes exceeds the %d-byte cap"
         name len max_spec_len)
  else Ok ()

let check_t t =
  if t < 0 || t > max_t then
    Error (Printf.sprintf "t=%d outside [0, %d]" t max_t)
  else Ok ()

let validate_request r =
  let ( let* ) = Result.bind in
  let* () = check_spec "graph" r.graph in
  let* () = check_spec "model" r.model in
  let* () = check_spec "engine" r.engine in
  if r.id < 0 then Error "Protocol: negative request id"
  else
    match check_t r.t with
    | Error m -> Error ("Protocol: " ^ m)
    | Ok () ->
        if r.trials < 1 || r.trials > max_trials then
          Error
            (Printf.sprintf "Protocol: trials=%d outside [1, %d]" r.trials
               max_trials)
        else if r.vertex < 0 then Error "Protocol: negative vertex"
        else if r.deadline_ms < 0 || r.deadline_ms > max_deadline_ms then
          Error
            (Printf.sprintf "Protocol: deadline_ms=%d outside [0, %d]"
               r.deadline_ms max_deadline_ms)
        else Ok ()

(* --- payload codec ---------------------------------------------------- *)

let add_string buf s =
  Codec.add_int buf (String.length s);
  Buffer.add_string buf s

let read_string s cur ~cap =
  let ( let* ) = Result.bind in
  let* len = Codec.read_int s cur in
  if len < 0 || len > cap then
    Error (Printf.sprintf "Protocol: string length %d outside [0, %d]" len cap)
  else if len > Codec.remaining s cur then
    Error "Protocol: string length exceeds the bytes present"
  else begin
    let v = String.sub s !cur len in
    cur := !cur + len;
    Ok v
  end

let request_payload r =
  let buf = Buffer.create 64 in
  Buffer.add_string buf request_magic;
  Codec.add_int buf r.id;
  Codec.add_int buf (op_tag r.op);
  Codec.add_i64 buf r.seed;
  Codec.add_int buf r.t;
  Codec.add_int buf r.trials;
  Codec.add_int buf r.vertex;
  Codec.add_int buf r.deadline_ms;
  add_string buf r.graph;
  add_string buf r.model;
  add_string buf r.engine;
  Buffer.contents buf

let request_of_payload s =
  let ( let* ) = Result.bind in
  let cur = ref 0 in
  let* () = Codec.read_magic s cur request_magic in
  let* id = Codec.read_int s cur in
  let* tag = Codec.read_int s cur in
  let* op = op_of_tag tag in
  let* seed = Codec.read_i64 s cur in
  let* t = Codec.read_int s cur in
  let* trials = Codec.read_int s cur in
  let* vertex = Codec.read_int s cur in
  let* deadline_ms = Codec.read_int s cur in
  let* graph = read_string s cur ~cap:max_spec_len in
  let* model = read_string s cur ~cap:max_spec_len in
  let* engine = read_string s cur ~cap:max_spec_len in
  if Codec.remaining s cur <> 0 then
    Error "Protocol: trailing bytes after request"
  else
    let r =
      { id; op; seed; graph; model; t; engine; trials; vertex; deadline_ms }
    in
    let* () = validate_request r in
    Ok r

let read_int_array s cur =
  let ( let* ) = Result.bind in
  let* len = Codec.read_int s cur in
  if len < 0 || len > max_vector then
    Error (Printf.sprintf "Protocol: vector length %d outside [0, %d]" len max_vector)
  else if len * 8 > Codec.remaining s cur then
    Error "Protocol: vector length exceeds the bytes present"
  else begin
    let out = Array.make (max len 1) 0 in
    let rec go i =
      if i = len then Ok (Array.sub out 0 len)
      else
        let* v = Codec.read_int s cur in
        out.(i) <- v;
        go (i + 1)
    in
    go 0
  end

let response_payload { rid; body } =
  let buf = Buffer.create 64 in
  Buffer.add_string buf response_magic;
  Codec.add_int buf rid;
  (match body with
  | Sample_r { trials; successes; distinct; first } ->
      Codec.add_int buf 0;
      Codec.add_int buf trials;
      Codec.add_int buf successes;
      Codec.add_int buf distinct;
      Codec.add_int buf (Array.length first);
      Array.iter (fun v -> Codec.add_int buf v) first
  | Infer_r { probs } ->
      Codec.add_int buf 1;
      Codec.add_int buf (Array.length probs);
      Array.iter (fun p -> Codec.add_i64 buf (Int64.bits_of_float p)) probs
  | Count_r { log_z } ->
      Codec.add_int buf 2;
      Codec.add_i64 buf (Int64.bits_of_float log_z)
  | Stats_r st ->
      Codec.add_int buf 3;
      List.iter
        (fun v -> Codec.add_int buf v)
        [
          st.st_requests;
          st.st_batches;
          st.st_coalesced;
          st.st_cache_hits;
          st.st_cache_misses;
          st.st_evictions;
          st.st_rejected;
          st.st_expired;
          st.st_snapshot_hits;
          st.st_restarts;
          st.st_max_queue;
          st.st_domains;
        ]
  | Health_r { reasons } ->
      Codec.add_int buf 5;
      Codec.add_int buf (List.length reasons);
      List.iter
        (fun (sub, reason) ->
          add_string buf sub;
          add_string buf reason)
        reasons
  | Error_r { code; message } ->
      Codec.add_int buf 4;
      Codec.add_int buf (err_tag code);
      add_string buf message);
  Buffer.contents buf

let response_of_payload s =
  let ( let* ) = Result.bind in
  let cur = ref 0 in
  let* () = Codec.read_magic s cur response_magic in
  let* rid = Codec.read_int s cur in
  let* tag = Codec.read_int s cur in
  let* body =
    match tag with
    | 0 ->
        let* trials = Codec.read_int s cur in
        let* successes = Codec.read_int s cur in
        let* distinct = Codec.read_int s cur in
        let* first = read_int_array s cur in
        if trials < 0 || successes < 0 || successes > trials || distinct < 0
        then Error "Protocol: inconsistent sample response counts"
        else Ok (Sample_r { trials; successes; distinct; first })
    | 1 ->
        let* len = Codec.read_int s cur in
        if len < 0 || len > max_vector then
          Error
            (Printf.sprintf "Protocol: vector length %d outside [0, %d]" len
               max_vector)
        else if len * 8 > Codec.remaining s cur then
          Error "Protocol: vector length exceeds the bytes present"
        else begin
          let out = Array.make (max len 1) 0. in
          let rec go i =
            if i = len then Ok (Infer_r { probs = Array.sub out 0 len })
            else
              let* bits = Codec.read_i64 s cur in
              out.(i) <- Int64.float_of_bits bits;
              go (i + 1)
          in
          go 0
        end
    | 2 ->
        let* bits = Codec.read_i64 s cur in
        Ok (Count_r { log_z = Int64.float_of_bits bits })
    | 3 ->
        let field () = Codec.read_int s cur in
        let* st_requests = field () in
        let* st_batches = field () in
        let* st_coalesced = field () in
        let* st_cache_hits = field () in
        let* st_cache_misses = field () in
        let* st_evictions = field () in
        let* st_rejected = field () in
        let* st_expired = field () in
        let* st_snapshot_hits = field () in
        let* st_restarts = field () in
        let* st_max_queue = field () in
        let* st_domains = field () in
        Ok
          (Stats_r
             {
               st_requests;
               st_batches;
               st_coalesced;
               st_cache_hits;
               st_cache_misses;
               st_evictions;
               st_rejected;
               st_expired;
               st_snapshot_hits;
               st_restarts;
               st_max_queue;
               st_domains;
             })
    | 4 ->
        let* code_tag = Codec.read_int s cur in
        let* code = err_of_tag code_tag in
        let* message = read_string s cur ~cap:4096 in
        Ok (Error_r { code; message })
    | 5 ->
        let* n = Codec.read_int s cur in
        if n < 0 || n > 64 then
          Error
            (Printf.sprintf "Protocol: health entry count %d outside [0, 64]" n)
        else
          let rec go i acc =
            if i = n then Ok (Health_r { reasons = List.rev acc })
            else
              let* sub = read_string s cur ~cap:64 in
              let* reason = read_string s cur ~cap:512 in
              go (i + 1) ((sub, reason) :: acc)
          in
          go 0 []
    | n -> Error (Printf.sprintf "Protocol: unknown response tag %d" n)
  in
  if Codec.remaining s cur <> 0 then
    Error "Protocol: trailing bytes after response"
  else Ok { rid; body }

(* --- frame layer ------------------------------------------------------ *)

let request_frame r =
  { Frame.kind = kind_request; a = r.id; b = 0; c = 0; payload = request_payload r }

let response_frame resp =
  {
    Frame.kind = kind_response;
    a = resp.rid;
    b = 0;
    c = 0;
    payload = response_payload resp;
  }

let request_of_frame (f : Frame.t) =
  if f.Frame.kind <> kind_request then
    Error (Printf.sprintf "Protocol: expected request kind, got 0x%02x" f.Frame.kind)
  else
    Result.bind (request_of_payload f.Frame.payload) (fun r ->
        if r.id <> f.Frame.a then
          Error "Protocol: frame/payload request id mismatch"
        else Ok r)

let response_of_frame (f : Frame.t) =
  if f.Frame.kind <> kind_response then
    Error
      (Printf.sprintf "Protocol: expected response kind, got 0x%02x" f.Frame.kind)
  else
    Result.bind (response_of_payload f.Frame.payload) (fun r ->
        if r.rid <> f.Frame.a then
          Error "Protocol: frame/payload response id mismatch"
        else Ok r)

(* Pure end-to-end codecs over raw bytes: the fuzz surface. *)

let encode_request r = Frame.encode (request_frame r)
let encode_response r = Frame.encode (response_frame r)

let decode_request_bytes s = Result.bind (Frame.decode s) request_of_frame
let decode_response_bytes s = Result.bind (Frame.decode s) response_of_frame

(* --- socket IO -------------------------------------------------------- *)

let write_request fd r = Frame.write_fd fd (request_frame r)
let write_response fd r = Frame.write_fd fd (response_frame r)

let read_response fd =
  match Frame.read_fd fd with
  | Error _ as e -> e
  | Ok f -> (
      match response_of_frame f with
      | Ok r -> Ok r
      | Error msg -> Error (Frame.Malformed msg))
