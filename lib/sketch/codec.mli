(** Shared wire helpers for the sketch serializations.

    Every sketch serializes to a canonical byte string — little-endian
    64-bit fields behind a 4-byte magic — so that "two sketches are equal"
    can be checked (and CI-diffed) as byte equality.  The encoders write
    through a [Buffer]; the decoders read through a mutable cursor and
    raise [Invalid_argument] on malformed input, naming the magic they
    expected. *)

val add_i64 : Buffer.t -> int64 -> unit
(** Append one little-endian 64-bit field. *)

val add_int : Buffer.t -> int -> unit
(** Append an OCaml [int] as a 64-bit field. *)

val get_i64 : string -> int ref -> int64
(** Read one 64-bit field at the cursor and advance it. *)

val get_int : string -> int ref -> int
(** {!get_i64} narrowed to [int]; raises [Invalid_argument] if the field
    does not fit. *)

val check_magic : string -> int ref -> string -> unit
(** [check_magic s cur magic] consumes [magic] at the cursor or raises
    [Invalid_argument] naming the expected magic. *)

(** {1 Non-raising readers}

    The same wire format through [result]: what the hardened sketch
    [decode] functions and the {!Ls_shard} frame/checkpoint codecs build
    on, so malformed bytes from a socket or a torn file surface as a
    named [Error], never an exception — and never an allocation sized by
    an unvalidated length prefix (callers check {!remaining} first). *)

val read_i64 : string -> int ref -> (int64, string) result
val read_int : string -> int ref -> (int, string) result
val read_magic : string -> int ref -> string -> (unit, string) result
val remaining : string -> int ref -> int
(** Bytes left after the cursor — the bound every length-prefixed
    allocation must be validated against before it happens. *)

val add_string : Buffer.t -> string -> unit
(** Append a length-prefixed byte string. *)

val read_string :
  what:string -> string -> int ref -> cap:int -> (string, string) result
(** Read an {!add_string} field whose length must lie in [[0, cap]] and
    within the bytes present; errors start with [what] (e.g.
    ["Protocol: string"]). *)

val digest : string -> string
(** 16-hex-digit digest of a byte string (a SplitMix64 fold): the
    fingerprint the benches print so a stdout diff across domain counts
    certifies byte-identical sketches without dumping kilobytes. *)
