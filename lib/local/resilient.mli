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

val describe : report -> string

type failure =
  | Transient of string
      (** Might succeed on retry: lost messages, a stalled flood, a node
          that is down but scheduled to recover.  Spends retry budget. *)
  | Permanent of string
      (** Cannot be waited out: every relevant node crash-stopped, or the
          phase is structurally impossible.  The supervisor stops
          immediately and keeps the remaining budget unspent. *)

val run_classified :
  ?trace:Ls_obs.Trace.t ->
  ?label:string ->
  policy ->
  ?charge:(int -> unit) ->
  (attempt:int -> ('a, failure) result) ->
  'a option * report
(** [run_classified pol ~charge f] calls [f ~attempt:0], retrying on
    [Error] up to [pol.retry_budget] times with backoff [base],
    [base*factor], ... rounds charged through [charge] before each retry.
    Returns the first [Ok] (with a non-degraded report) or [None] with a
    degraded report listing every failure reason.  Each attempt, backoff
    and degradation is emitted to [trace] (or the ambient sink) under
    [label].  A {!Permanent} failure degrades immediately — no backoff is
    charged and no further attempt is made (retrying against a
    crash-stopped node only burns rounds); the [Degraded] trace event's
    detail is prefixed with ["permanent: "]. *)

type 'a supervised = {
  value : 'a;  (** The payload value of the attempt with fewest failures. *)
  failed : bool array;  (** That attempt's flags, communication failures OR-ed in. *)
  report : report;
  rounds : int;
      (** Every attempt's payload rounds + all flooding + all backoff. *)
}

val supervise :
  ?policy:policy ->
  ?faults:Faults.t ->
  ?trace:Ls_obs.Trace.t ->
  ?async:Async.t ->
  label:string ->
  blame:string ->
  radii:int list ->
  Ls_graph.Graph.t ->
  seed:int64 ->
  (seed:int64 -> 'a * bool array * int) ->
  'a supervised
(** The Las Vegas attempt loop of the LOCAL samplers, on a faulty network.
    [supervise ~radii g ~seed payload] builds one {!Network} over [g]
    carrying [faults] (default none) and runs {!run_classified} under
    [label] and [policy] (default {!default}).  Each attempt draws a fresh
    payload seed from [seed]'s stream, floods every node's ball once per
    radius in [radii] (over [async] when given), then runs
    [payload ~seed], which returns its value, its own failure flags and
    the rounds it charged.  A node that crashed or whose flooded view
    misses part of some ball is a communication failure, OR-ed into the
    payload's flags.  An attempt with no failed node succeeds; otherwise
    it fails as {!Permanent} when every failed node crash-stopped for
    good, as {!Transient} otherwise, with a reason naming [blame] as the
    payload's own failure cause.  The attempt with fewest failed nodes is
    returned (the first among equals); the network is
    {!Network.finish}ed before returning, so the conservation identity
    holds with no pending copies at teardown. *)

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
