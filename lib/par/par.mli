(** Deterministic domain-parallel trial execution.

    Every experiment in this repository estimates a theorem's prediction
    from independent Monte-Carlo trials.  This module fans those trials
    out over a small pool of OCaml 5 domains while keeping the results
    {b bit-for-bit identical} for every domain count and every schedule.

    {2 Determinism contract}

    [run_trials ~n ~seed f] derives [n] SplitMix64 streams by seed
    splitting ({!Ls_rng.Rng.streams}): stream [i] is a pure function of
    [(seed, i)], never of which domain runs trial [i] or in what order.
    Trial [i] computes [f stream_i] and writes slot [i] of the result
    array.  As long as [f] draws randomness only from its argument and
    touches no shared mutable state, the output array is a pure function
    of [(n, seed, f)] — so [LOCSAMPLE_DOMAINS=1] and [LOCSAMPLE_DOMAINS=8]
    print identical tables, and a failing trial can be replayed alone
    from [(seed, i)].

    {2 Choosing the domain count}

    The default comes from the [LOCSAMPLE_DOMAINS] environment variable
    when set, else [Domain.recommended_domain_count ()] (the number of
    cores); {!Ls_obs.Env} owns the unset/empty/malformed rule.  More domains than cores buys nothing; fewer helps when the
    machine is shared.  [--domains] flags in [bench/main.exe] and
    [bin/locsample.exe] call {!set_domains}.  One global pool is reused
    across calls and torn down at exit; the per-call [?domains] override
    spins up (and tears down) an ephemeral pool, which is what the
    invariance tests use. *)

type timing = {
  wall : float;  (** Wall-clock seconds for the whole batch. *)
  per_trial : float array;  (** Wall-clock seconds of each trial, by index. *)
  domains : int;  (** Domains actually used for the batch. *)
}
(** Timings are measurements, not outputs: they vary run to run and are
    {e not} covered by the determinism contract. *)

val default_domains : unit -> int
(** [LOCSAMPLE_DOMAINS] (an integer ≥ 1) when set, otherwise
    [Domain.recommended_domain_count ()]; a malformed value raises as
    {!Ls_obs.Env} states. *)

val domains : unit -> int
(** The current effective domain count: {!set_domains} override when
    present, else {!default_domains}. *)

val set_domains : int -> unit
(** Override the domain count for the process-global pool (CLI flags call
    this).  Must be ≥ 1.  Takes effect on the next parallel call. *)

val quiesce : unit -> unit
(** Shut down the process-global pool and join its domains if it is
    idle (retire it otherwise).  Required before [Unix.fork]: the OCaml
    runtime refuses to fork while sibling domains are live.  The next
    parallel call transparently builds a fresh pool. *)

val run_trials : ?domains:int -> n:int -> seed:int64 -> (Ls_rng.Rng.t -> 'a) -> 'a array
(** [run_trials ~n ~seed f] is [[| f s_0; ...; f s_{n-1} |]] for the [n]
    seed-split streams of [seed], computed in parallel under the
    determinism contract above. *)

val fold_trials :
  ?domains:int ->
  ?chunk:int ->
  n:int ->
  seed:int64 ->
  init:(unit -> 'acc) ->
  add:('acc -> 'a -> unit) ->
  merge:('acc -> 'acc -> 'acc) ->
  (Ls_rng.Rng.t -> 'a) ->
  'acc
(** Chunked bounded-memory trial reduction: trial [i] still computes
    [f s_i] from its seed-split stream, but results are accumulated into
    one ['acc] per chunk of [chunk] consecutive trials (default 4096)
    and the per-chunk accumulators are folded with [merge], in chunk
    order, starting from a fresh [init ()].  Peak memory is
    [O(chunks · |acc|)] instead of [O(n · |result|)].

    Determinism: chunk boundaries derive from [chunk] alone — {e never}
    from the domain count — each chunk accumulates its trials in index
    order, and the final fold is sequential in chunk order, so the
    result is a pure function of [(n, seed, chunk, f)] when [add] and
    [merge] respect the accumulator's merge monoid (as
    {!Ls_sketch.Cms} / {!Ls_sketch.Bottomk} do).  With such a monoid
    the result is also [chunk]-invariant; accumulators that merely
    tolerate an arbitrary but fixed order (float sums) remain
    deterministic at fixed [chunk].  Raises [Invalid_argument] if
    [n < 0] or [chunk < 1]. *)

val run_trials_timed :
  ?domains:int -> n:int -> seed:int64 -> (Ls_rng.Rng.t -> 'a) -> 'a array * timing
(** {!run_trials} plus per-trial and whole-batch wall-clock capture. *)

val map : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map] (element order preserved).  [f] must be a pure
    function of its argument for the determinism contract to hold. *)

val map_list : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map] (element order preserved). *)

val map_seeded :
  ?domains:int -> seed:int64 -> ('a -> Ls_rng.Rng.t -> 'b) -> 'a list -> 'b list
(** Parallel [List.map] for randomized per-item work: item [i] receives
    the [i]-th seed-split stream of [seed], exactly as in
    {!run_trials}. *)

val map_reduce :
  ?domains:int -> map:('a -> 'b) -> reduce:('b -> 'b -> 'b) -> 'b -> 'a array -> 'b
(** [map_reduce ~map ~reduce init xs] maps in parallel, then folds the
    mapped array {e sequentially in index order} — so non-associative
    reductions (e.g. float sums) are still deterministic. *)
