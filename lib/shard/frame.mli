(** Length-prefixed binary frames for parent/worker socketpairs.

    Layout: ["LSF1"] magic, a [kind] byte for the protocol layer, three
    generic integer fields [a]/[b]/[c], the payload length, a payload
    digest, then the payload.  The pure codec ({!encode}/{!decode}) is
    what the fuzz tests hammer; {!write_fd}/{!read_fd} add EINTR-safe
    full-read/full-write IO.  A length prefix is validated against
    {!max_payload} {e and} the bytes actually present before any
    allocation is sized by it, and the digest turns stream corruption
    into a named [Error] instead of garbage handed to [Marshal]. *)

type t = { kind : int; a : int; b : int; c : int; payload : string }

val max_payload : int

val encode : t -> string
(** Raises [Invalid_argument] only if the payload exceeds
    {!max_payload}. *)

val decode : string -> (t, string) result
(** Decode exactly one frame spanning the whole string; every failure
    mode — bad magic, truncation, negative or oversized length, trailing
    bytes, digest mismatch — is a named [Error]. *)

val decode_prefix :
  ?max_frame_payload:int -> string -> ((t * int) option, string) result
(** Decode one frame from the front of a byte accumulation: [Ok None]
    when the bytes are a valid proper prefix (read more), [Ok (Some (f,
    used))] when a frame spans the first [used] bytes, and a named
    [Error] when the header or digest is malformed (no frame boundary
    left to resynchronize on).  [max_frame_payload] (default
    {!max_payload}) caps the accepted length claim, bounding what a
    hostile peer can make the caller buffer. *)

val digest64 : string -> int64
(** The payload digest (a SplitMix64 fold), exposed for tests. *)

val write_fd : Unix.file_descr -> t -> unit
(** Write one frame, retrying EINTR and short writes until complete. *)

type read_error =
  | Closed  (** Clean EOF at a frame boundary: the peer finished. *)
  | Truncated  (** EOF mid-frame: the peer died mid-write. *)
  | Malformed of string  (** Header or digest invalid — named reason. *)

val read_fd : Unix.file_descr -> (t, read_error) result
(** Read one frame, retrying EINTR and short reads; blocks until a full
    frame, EOF, or a malformed header. *)

(**/**)

(** Shared partial-IO loops, reused by the checkpoint writer.  [site]
    (default ["frame.write"]) names the call site for the {!Sysio}
    fault hook; disk writers pass their own so write faults can target
    files without touching sockets. *)

val write_string : ?site:string -> Unix.file_descr -> string -> unit

(**/**)
