(** Syscall choke point with a pluggable fault hook.

    Checkpoint/snapshot writes, renames, closes, the serve accept loop
    and worker forks all call these wrappers instead of [Unix] directly.
    With no hook installed they are the raw syscalls plus the shared
    EINTR-retry discipline (one retry loop, the same loop the
    {!Frame} full-IO helpers model).  With a hook installed, each
    operation's fate is decided first from deterministic coordinates
    (operation, call-site name, per-site consultation count), which is
    how {!Ls_chaos.Sysfault} injects [ENOSPC]/[EMFILE]/[EAGAIN]/short
    writes/EINTR storms with bit-identical replay.

    Injected faults fire {e before} the real syscall, so they never
    leave a half-performed operation behind. *)

type op = Write | Rename | Close | Accept | Fork | Open

val op_name : op -> string

type outcome =
  | Pass  (** Run the real syscall. *)
  | Fail of Unix.error  (** Raise [Unix_error] before the syscall. *)
  | Short of int
      (** Writes only: write at most this many bytes (clamped to
          [1..len]); other operations treat it as {!Pass}. *)
  | Intr  (** Raise a synthetic [EINTR] before the syscall. *)

type hook = op:op -> site:string -> count:int -> outcome

val set_hook : hook option -> unit
(** Install (or clear) the process-global hook.  Inherited across
    [fork], so a daemon's worker keeps its parent's schedule. *)

val reset_counts : unit -> unit
(** Zero every per-(op, site) consultation count — required before
    replaying a schedule from the start. *)

(** {1 Wrapped syscalls}

    [site] names the call site and is part of the hook's verdict
    coordinates; distinct sites draw independent fates. *)

val write : site:string -> Unix.file_descr -> bytes -> int -> int -> int
(** Like [Unix.write]; no retry loop here — callers ({!Frame.write_string})
    own the short-write/EINTR loop. *)

val rename : site:string -> string -> string -> unit
val close : site:string -> Unix.file_descr -> unit
(** EINTR-retried.  A {e real} [EINTR] from
    [close(2)] is swallowed rather than retried (the descriptor is
    already gone on Linux); injected ones fire before the syscall and
    are retried safely. *)

val accept :
  site:string -> ?cloexec:bool -> Unix.file_descr ->
  Unix.file_descr * Unix.sockaddr

val fork : site:string -> unit -> int

val openfile :
  site:string -> string -> Unix.open_flag list -> Unix.file_perm ->
  Unix.file_descr
