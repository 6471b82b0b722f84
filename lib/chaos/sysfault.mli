(** Deterministic syscall fault injection.

    The plan behind the {!Ls_shard.Sysio} hook: each consultation's
    verdict is a pure hash of (seed, operation, site, per-site count,
    dimension), so installing the same spec and resetting the counts
    replays the same schedule bit for bit — the property the replay
    test asserts over the injected-fault log.

    Blast radius is bounded by site: [ENOSPC] fires only at disk sites
    (["ckpt.*"], ["pidfile.*"]); socket writes see at most transparent
    short writes and EINTR, so responses stay byte-identical under
    injection.  [ops_budget] silences the schedule after its first N
    consultations (0 = never), making recovery deterministic. *)

type spec = {
  seed : int64;
  write_fail : float;  (** ENOSPC probability on disk writes. *)
  rename_fail : float;  (** ENOSPC probability on disk renames. *)
  open_fail : float;  (** ENOSPC probability on disk opens. *)
  short_write : float;  (** Short-write probability (any write site). *)
  eintr : float;  (** Synthetic-EINTR probability (any retried site). *)
  accept_fail : float;  (** EMFILE/ENFILE probability on accept. *)
  fork_fail : float;  (** EAGAIN probability on fork. *)
  ops_budget : int;
      (** Consultations before the schedule goes quiet; 0 = never. *)
}

val quiet : int64 -> spec
(** All rates zero: bit-identical to no hook at all. *)

val is_quiet : spec -> bool

val to_string : spec -> string
(** Canonical ["seed=7,write=0.5,...,budget=64"] form — exactly what
    {!of_string}, [--sysfault] and [LOCSAMPLE_SYSFAULT] parse, and what
    reproducer lines print. *)

val of_string : string -> (spec, string) result
(** Parse the {!to_string} form.  Unknown keys, rates outside [0, 1]
    and negative budgets are named errors; omitted keys default to
    {!quiet}[ 1L]. *)

val describe : spec -> string

val disk_site : string -> bool
(** Is this site a disk path (eligible for ENOSPC)? *)

val decide :
  spec ->
  total:int ->
  op:Ls_shard.Sysio.op ->
  site:string ->
  count:int ->
  Ls_shard.Sysio.outcome
(** The pure verdict function ([total] is the process-wide consultation
    index driving the budget; [count] the per-(op, site) hash
    coordinate) — exposed for the replay test. *)

val install : spec -> unit
(** Reset the {!Ls_shard.Sysio} counts, the budget clock and the
    injected-fault log, then install the hook.  Inherited across fork:
    a supervised worker keeps its parent's schedule (and the counter
    state at fork time). *)

val uninstall : unit -> unit

val current : unit -> spec option

val injected : unit -> string list
(** The non-Pass verdicts applied since {!install}, oldest first, as
    ["op|site|count|verdict"] lines — the replay bit-identity witness. *)

val env_check : unit -> (unit, string) result
(** Validate [LOCSAMPLE_SYSFAULT] at CLI startup (unset or empty is
    fine). *)

val install_from_env : unit -> unit
(** {!install} the [LOCSAMPLE_SYSFAULT] schedule if the variable is set,
    non-empty and not quiet.  Raises [Invalid_argument] on a malformed
    value (callers run {!env_check} first). *)
