(* Length-prefixed binary frames: the only thing that crosses a
   parent/worker socketpair.  The codec is split in two layers so the
   dangerous half is pure and fuzzable: [encode]/[decode] work on
   strings and never touch a file descriptor, while [write_fd]/[read_fd]
   add EINTR-safe full-read/full-write IO on top.

   Wire layout (all integers little-endian 64-bit, via the sketch codec):

     "LSF1" | kind | a | b | c | payload length | payload digest | payload

   The header carries three generic integer fields so protocol layers
   (Exec, Sweep) can tag frames without inventing per-kind headers, and
   the payload digest so a corrupted or truncated stream surfaces as a
   named [Error] — never as a silently wrong payload handed to
   [Marshal].  The payload length is validated against [max_payload]
   {e before} any allocation: a crafted 60-byte header cannot make the
   reader allocate gigabytes. *)

module Codec = Ls_sketch.Codec
module Splitmix = Ls_rng.Splitmix

type t = { kind : int; a : int; b : int; c : int; payload : string }

let magic = "LSF1"

(* Generous for a broadcast batch, absurd for anything legitimate past
   that — the point is an upper bound that exists, not a tight one. *)
let max_payload = 1 lsl 30

let digest64 s =
  let h = ref 0x4c534631L in
  String.iter
    (fun ch -> h := Splitmix.mix64 (Int64.logxor !h (Int64.of_int (Char.code ch))))
    s;
  !h

let header_bytes = String.length magic + (6 * 8)

let encode f =
  if String.length f.payload > max_payload then
    invalid_arg "Frame.encode: payload exceeds max_payload";
  let buf = Buffer.create (header_bytes + String.length f.payload) in
  Buffer.add_string buf magic;
  Codec.add_int buf f.kind;
  Codec.add_int buf f.a;
  Codec.add_int buf f.b;
  Codec.add_int buf f.c;
  Codec.add_int buf (String.length f.payload);
  Codec.add_i64 buf (digest64 f.payload);
  Buffer.add_string buf f.payload;
  Buffer.contents buf

(* The 7-field header at the front of [s], the payload left empty: the
   one parse [decode], [decode_prefix] and [read_fd] share.  The length
   is checked against [cap] before anything is sized by it. *)
let header ~cap s =
  let ( let* ) = Result.bind in
  let cur = ref 0 in
  let* () = Codec.read_magic s cur magic in
  let* kind = Codec.read_int s cur in
  let* a = Codec.read_int s cur in
  let* b = Codec.read_int s cur in
  let* c = Codec.read_int s cur in
  let* len = Codec.read_int s cur in
  let* dg = Codec.read_i64 s cur in
  if len < 0 then Error "Frame: negative payload length"
  else if len > cap then Error "Frame: payload length exceeds maximum"
  else Ok ({ kind; a; b; c; payload = "" }, len, dg)

let with_payload (f, _, dg) payload =
  if not (Int64.equal (digest64 payload) dg) then
    Error "Frame: payload digest mismatch"
  else Ok { f with payload }

(* Decode exactly one frame spanning the whole string.  Every failure is
   a named [Error]; no allocation is sized by the length field until it
   has been checked against both [max_payload] and the bytes present. *)
let decode s =
  Result.bind (header ~cap:max_payload s) (fun ((_, len, _) as h) ->
      if len > String.length s - header_bytes then
        Error "Frame: payload length exceeds bytes present"
      else if header_bytes + len <> String.length s then
        Error "Frame: trailing bytes after payload"
      else with_payload h (String.sub s header_bytes len))

(* Decode one frame from the front of [s], for callers that accumulate
   bytes from a non-blocking stream.  [Ok None] means the bytes so far
   are a valid proper prefix — read more.  [Ok (Some (f, used))] decoded
   a frame spanning the first [used] bytes.  [Error] names a malformed
   header or digest: the stream has no frame boundary left to
   resynchronize on.  [max_frame_payload] lets a server cap hostile
   length claims below the generous default. *)
let decode_prefix ?(max_frame_payload = max_payload) s =
  if String.length s < header_bytes then Ok None
  else
    Result.bind (header ~cap:max_frame_payload s) (fun ((_, len, _) as h) ->
        if String.length s < header_bytes + len then Ok None
        else
          Result.map
            (fun f -> Some (f, header_bytes + len))
            (with_payload h (String.sub s header_bytes len)))

(* {1 File-descriptor IO}

   All loops retry EINTR and handle short reads/writes: a frame streamed
   one byte at a time (or interrupted by a signal mid-syscall) must
   arrive intact.  These helpers are also what the checkpoint writer
   uses, so there is exactly one partial-IO implementation to get
   right. *)

let rec write_all ?(site = "frame.write") fd buf off len =
  if len > 0 then begin
    let k =
      try Sysio.write ~site fd buf off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all ~site fd buf (off + k) (len - k)
  end

let write_string ?site fd s =
  write_all ?site fd (Bytes.unsafe_of_string s) 0 (String.length s)

(* Read exactly [len] bytes unless EOF strikes first; returns the count
   actually read (< [len] only at EOF). *)
let read_exact fd buf off len =
  let rec go off len got =
    if len = 0 then got
    else
      match Unix.read fd buf off len with
      | 0 -> got
      | k -> go (off + k) (len - k) (got + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off len got
  in
  go off len 0

type read_error =
  | Closed  (** Clean EOF at a frame boundary: the peer finished. *)
  | Truncated  (** EOF in the middle of a frame: the peer died mid-write. *)
  | Malformed of string  (** Header or digest invalid — named reason. *)

let write_fd fd f = write_string fd (encode f)

let read_fd fd =
  let hdr = Bytes.create header_bytes in
  let got = read_exact fd hdr 0 header_bytes in
  if got = 0 then Error Closed
  else if got < header_bytes then Error Truncated
  else
    match header ~cap:max_payload (Bytes.unsafe_to_string hdr) with
    | Error e -> Error (Malformed e)
    | Ok ((_, len, _) as h) ->
        let pay = Bytes.create len in
        if read_exact fd pay 0 len < len then Error Truncated
        else
          Result.map_error
            (fun e -> Malformed e)
            (with_payload h (Bytes.unsafe_to_string pay))
