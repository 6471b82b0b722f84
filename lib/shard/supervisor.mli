(** Worker-process supervision: fork, watch, restart, classify.

    Owns the generic lifecycle — socketpairs, the select loop, liveness
    probes, SIGKILL-and-restart, budget accounting — while protocol
    layers (Exec, Sweep) own frame semantics via [on_frame].  Frames
    double as heartbeats: any frame resets the sender's silence clock.

    Failure classification mirrors
    {!Ls_local.Resilient.run_classified}: a single shard dying
    repeatedly burns its restart budget with deterministic exponential
    backoff and an exhausted budget raises {!Failed}[ (Transient, _)];
    the whole fleet dead inside one grace window raises
    {!Failed}[ (Permanent, _)] with the budgets unspent.  That fleet-wide
    rule needs at least two workers dying together: the one worker of
    a [~shards:1] fleet dying is an ordinary death and restarts.  A
    worker that hangs without dying (silent past [hang_probes]
    consecutive probes) is SIGKILLed and takes the normal restart path.

    Lifecycle is observable: incarnation 0 emits
    {!Ls_obs.Trace.Shard_spawn}, restarts emit
    {!Ls_obs.Trace.Shard_restart} (with the checkpointed round from
    [restored_round]), and probes bump the [shard_probes] metric. *)

type policy = {
  restart_budget : int;  (** Restarts per shard before giving up. *)
  backoff_base_ms : int;
  backoff_factor : int;  (** Delay before restart k is base·factorᵏ. *)
  hang_timeout_ms : int;  (** Silence before a liveness probe fires. *)
  hang_probes : int;  (** Consecutive probes before SIGKILL. *)
  all_dead_grace_ms : int;  (** Window for the all-dead scan. *)
}

val default_policy : policy
(** Budget 3 (matching {!Ls_local.Resilient.default_policy}), 20 ms
    base backoff doubling, 2 s probe timeout, 3 probes, 50 ms grace. *)

val sleep_ms : int -> unit
(** Sleep for the full [ms] milliseconds even under signal pressure: a
    bare [Unix.sleepf] can return early (or raise [EINTR]) when a SIGCHLD
    from a dying worker lands mid-sleep, which would shorten the
    deterministic restart backoff.  Loops on the remaining wall time.
    Also used by the serve accept-loop retry path. *)

type failure = Transient | Permanent

exception Failed of failure * string

val fork_with_retry :
  ?attempts:int -> ?backoff_ms:int -> site:string -> unit -> int
(** [Unix.fork] through {!Sysio.fork} with bounded EAGAIN retry: up to
    [attempts] (default 5) tries, sleeping [backoff_ms] (default 20)
    doubling between them.  EAGAIN is a resource fault, not a worker
    fault — retries burn this budget, never the caller's restart budget.
    The first EAGAIN marks the ["fork"] subsystem degraded in
    {!Ls_obs.Health} and bumps the [fork_retries] metric; a later
    successful fork clears the mark in the parent.  Exhaustion raises
    {!Failed}[ (Transient, _)].  Returns the child pid ([0] in the
    child, as [Unix.fork]). *)

type ctx = {
  send : shard:int -> Frame.t -> unit;
      (** Write a frame to a shard; a write to a freshly dead worker is
          dropped (its death surfaces via the select loop). *)
  mark_done : shard:int -> unit;
      (** Declare a shard's protocol complete: its channel closes and
          its exit is reaped; a later EOF is normal, not a death. *)
}

val run :
  ?policy:policy ->
  ?trace:Ls_obs.Trace.t ->
  ?restored_round:(shard:int -> int) ->
  shards:int ->
  body:(shard:int -> incarnation:int -> Unix.file_descr -> unit) ->
  on_frame:(ctx -> shard:int -> Frame.t -> unit) ->
  ?on_restart:(shard:int -> incarnation:int -> unit) ->
  unit ->
  unit
(** Fork [shards] workers and supervise until every one is marked done.
    [body] runs in the child with the transport cleared and the ambient
    trace sink uninstalled, and must communicate only through its
    descriptor (never stdout); it exits via [_exit].  [on_frame] runs in
    the parent for every received frame.  [on_restart] runs just before
    a replacement worker forks, so the protocol layer can reset its
    per-shard state; [restored_round] supplies the round recorded in the
    shard's checkpoint for the {!Ls_obs.Trace.Shard_restart} event.
    Raises {!Failed} on budget exhaustion (transient) or fleet-wide
    death (permanent).  An exception raised by [on_frame] or
    [on_restart] ends the run the same way: it propagates after every
    worker is SIGKILLed and reaped, so a protocol layer can stop a run
    by raising from [on_restart] instead of letting the replacement
    fork.  Always reaps and closes everything it opened. *)
