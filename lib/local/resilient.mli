(** Bounded retry + exponential backoff supervision of Las Vegas phases.

    The samplers in this repository are Las Vegas: they may fail (a
    Linial–Saks cluster too large, a JVV rejection run out of budget) but
    never lie.  On a faulty network ({!Faults}) a new failure mode appears
    — messages lost, nodes crashed — and this module supervises it: retry
    a failed phase a bounded number of times with exponentially growing
    backoff, charge every backoff round honestly to the round meter, and
    when the budget is exhausted return a {e partial} result plus a
    structured {!report} instead of raising.  Determinism is preserved:
    retries rerun on the live network whose fault {!Network.clock} has
    advanced, so each attempt faces fresh but seed-reproducible faults. *)

type policy = {
  retry_budget : int;  (** Max retries after the first attempt (≥ 0). *)
  backoff_base : int;  (** Rounds of backoff before the first retry (≥ 1). *)
  backoff_factor : int;  (** Geometric growth of the backoff (≥ 1). *)
}

val policy :
  ?retry_budget:int -> ?backoff_base:int -> ?backoff_factor:int -> unit -> policy
(** Validated constructor (defaults: budget 3, base 1, factor 2); raises
    [Invalid_argument] naming the offending parameter — the CLI flag
    [--retry-budget] funnels through this check. *)

val default : policy

type report = {
  attempts : int;  (** Attempts actually executed (≥ 1). *)
  backoff_rounds : int;  (** Total backoff charged to the round meter. *)
  degraded : bool;  (** Budget exhausted before full success? *)
  reasons : string list;  (** One line per failed attempt. *)
}

val clean : report
(** The trivial report of an unsupervised (fault-free) run. *)

val describe : report -> string

type failure =
  | Transient of string
      (** Might succeed on retry: lost messages, a stalled flood, a node
          that is down but scheduled to recover.  Spends retry budget. *)
  | Permanent of string
      (** Cannot be waited out: every relevant node crash-stopped, or the
          phase is structurally impossible.  The supervisor stops
          immediately and keeps the remaining budget unspent. *)

val run :
  ?trace:Ls_obs.Trace.t ->
  ?label:string ->
  policy ->
  ?charge:(int -> unit) ->
  (attempt:int -> ('a, string) result) ->
  'a option * report
(** [run pol ~charge f] calls [f ~attempt:0], retrying on [Error] up to
    [pol.retry_budget] times with backoff [base], [base*factor], ...
    rounds charged through [charge] before each retry.  Returns the first
    [Ok] (with a non-degraded report) or [None] with a degraded report
    listing every failure reason.  Each attempt, backoff and degradation
    is emitted to [trace] (or the ambient sink) under [label].  Every
    [Error] is treated as {!Transient}; use {!run_classified} when the
    phase can tell permanent failures apart. *)

val run_classified :
  ?trace:Ls_obs.Trace.t ->
  ?label:string ->
  policy ->
  ?charge:(int -> unit) ->
  (attempt:int -> ('a, failure) result) ->
  'a option * report
(** Like {!run}, but the phase classifies its failures.  A {!Permanent}
    failure degrades immediately — no backoff is charged and no further
    attempt is made (retrying against a crash-stopped node only burns
    rounds); the [Degraded] trace event's detail is prefixed with
    ["permanent: "].  {!Transient} failures behave exactly as [Error]
    does under {!run}. *)

val collect_views :
  ?trace:Ls_obs.Trace.t ->
  ?async:Async.t ->
  ?label:string ->
  'i Network.t ->
  policy:policy ->
  radius:int ->
  'i Network.view array * bool array * report
(** Ball collection with stalled-view supervision: flood, detect nodes
    whose view misses part of their true ball ({!Network.view_is_complete}),
    and re-flood with backoff while any {e salvageable} node is stalled
    and budget remains.  Only {e permanently} crashed nodes
    ({!Network.permanently_crashed}) are hopeless and never burn retry
    budget; a node inside its crash-recovery interval is a transient
    failure — backoff plus re-flooding can complete its view after it
    restores its checkpoint.  Flooded knowledge is {e union-merged} across
    attempts ({!Network.merge_views}), so incomparable partial views
    compose.  Returns [(views, failed, report)]: [failed.(v)] is set iff
    [v] crashed or its final view is still incomplete; [report.degraded]
    iff any node failed.

    [async] floods over the event-driven executor instead of the
    synchronous one.  Under {!Async.Adaptive} a misfired timeout costs
    only completeness, so it lands here as an ordinary stall — a
    {e transient} failure to wait out and retry, never a wrong answer;
    the stall reasons then record the executor's give-up and late-copy
    counts. *)
