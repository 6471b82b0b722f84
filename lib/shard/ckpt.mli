(** Per-shard checkpoint files for kill -9 recovery.

    Written atomically (temp file + [rename]), so a reader observes the
    previous complete checkpoint or the new one — never a torn mix, even
    when the writer is SIGKILLed mid-write.  The format is
    self-validating (magic, version, run id, coordinates, payload
    digest); {!load} treats any invalidity as absence, so corruption can
    cost a replay from scratch but never poison recovery. *)

type meta = { run_id : int64; shard : int; phase : int; round : int }

val default_dir : unit -> string
(** [$LOCSAMPLE_SHARD_DIR] when set (a directory, or a path that does
    not exist yet), else a fixed subdirectory of the system temp dir; a
    path naming a file raises as {!Ls_obs.Env} states. *)

val path : dir:string -> run_id:int64 -> shard:int -> string

val save : dir:string -> meta -> string -> unit
(** Atomic write (creates [dir] if missing).  Any failure unlinks the
    [.tmp] sibling before re-raising, so the previous checkpoint is
    never flanked by a leaked temp file. *)

val save_best_effort : dir:string -> meta -> string -> unit
(** {!save}, but a write failure ([Unix_error] or [Sys_error]) is
    absorbed instead of raised: the last good checkpoint stays in
    place and execution continues checkpoint-free — a crash now replays
    more rounds, nothing else.  Skips bump the [ckpt_skips] metric and
    mark the ["checkpoint"] subsystem degraded in {!Ls_obs.Health};
    the next successful save clears the mark. *)

val load : dir:string -> run_id:int64 -> shard:int -> (meta * string) option
(** The shard's checkpoint, if present {e and} valid {e and} belonging
    to this [run_id]. *)

val remove : dir:string -> run_id:int64 -> shard:int -> unit
(** Best-effort removal of the checkpoint and any temp sibling. *)

val save_path : path:string -> meta -> string -> unit
(** {!save} to an explicit file path (creates the parent directory if
    missing) — the same atomic tmp+rename discipline keyed by the
    caller's own naming scheme (the serve cache snapshot uses this). *)

val load_path : path:string -> (meta * string) option
(** {!load} from an explicit file path; no run_id/shard cross-check —
    callers validate the returned [meta] themselves. *)

(**/**)

val encode : meta -> string -> string
val decode : string -> (meta * string, string) result
(** Pure codec, exposed for torn-file and fuzz tests. *)

(**/**)
