(** The serving engine: request execution split out of the CLI harness.

    Spec parsing is Result-typed so the CLI (exit-2 path) and the daemon
    ([Error_r] response) reject exactly the same values with the same
    words.  {!submit_batch} multiplexes a batch of admitted requests onto
    the {!Ls_par} domain pool: same-model requests coalesce onto one
    compiled instance, all sample trials of the whole batch share one
    parallel fan-out, and compiled instances and Linial–Saks plans are
    LRU-cached keyed by the canonical (graph, model, params[, seed])
    string — see {!Lru}.

    Determinism: cache lookups, seed derivation and body assembly run
    sequentially on the submitting thread; the parallel stages are pure
    per-item maps over order-preserving {!Ls_par.Par.map}.  The bodies
    returned (and their hit/miss accounting) are a pure function of the
    request stream at any domain count.  A [Sample] request with seed [s]
    draws exactly the trials that [locsample sample --seed s --trials k]
    draws. *)

type model = {
  spec : Ls_gibbs.Spec.t;
  describe : string;
  render : int array -> string;
}

val parse_graph : Ls_rng.Rng.t -> string -> (Ls_graph.Graph.t, string) result
(** ["cycle:N"], ["path:N"], ["grid:RxC"], ["tree:BxD"], ["regular:NxD"],
    ["tree-rand:N"]; the rng feeds only the random families. *)

val parse_model : Ls_graph.Graph.t -> string -> (model, string) result
(** ["hardcore:L"], ["ising:B[:F]"], ["potts:Q:B"], ["coloring:Q"],
    ["matching:L"].  A named [Error] for a model whose weight tables
    would exceed {!Protocol.max_table} (decided from the graph's size and
    [q] before any spec is built) and for one a library constructor
    rejects ([q < 1], a negative or NaN weight). *)

val make_oracle :
  engine:string ->
  t:int ->
  Ls_core.Instance.t ->
  (Ls_core.Inference.oracle, string) result
(** ["ball"] (Theorem 5.1) or ["saw"] (Weitz, binary models only; any
    other is a named [Error]); [t] must pass {!Protocol.check_t}. *)

type error = Bad_request of string | Overloaded | Internal of string

val error_body : error -> Protocol.body
(** The [Error_r] a server sends for an engine (or admission) error. *)

type t

val create :
  ?instance_cache:int ->
  ?plan_cache:int ->
  ?max_vertices:int ->
  unit ->
  t
(** Defaults: 64 compiled instances, 1024 plans, 100k vertex cap per
    request graph. *)

val submit :
  t ->
  ?domains:int ->
  ?trace:Ls_obs.Trace.t ->
  Protocol.request ->
  (Protocol.body, error) result
(** One request — a singleton {!submit_batch}. *)

val submit_batch :
  t ->
  ?domains:int ->
  ?trace:Ls_obs.Trace.t ->
  Protocol.request list ->
  (Protocol.body, error) result list
(** Execute a batch; one result per request, in request order.  Never
    raises: a payload exception surfaces as [Error (Internal _)] for the
    whole batch.  Emits a {!Ls_obs.Trace.Serve_batch} event and the serve
    metrics counters per batch. *)

val stats : t -> Protocol.stats
(** Cumulative engine counters (plus the admission counters maintained by
    the server via {!note_rejection}/{!note_queue_depth}). *)

val note_rejection : t -> unit
(** The server records each [Overloaded] admission verdict here. *)

val note_expiry : t -> unit
(** The server records each [Expired] admission verdict here. *)

val set_restarts : t -> int -> unit
(** The supervised worker's incarnation number, surfaced in {!stats}. *)

val note_queue_depth : t -> int -> unit
(** The server reports its queue depth after each enqueue; {!stats}
    exposes the high-water mark. *)

(** {1 Warm-start snapshots} *)

val snapshot : t -> string
(** Serialize both LRU caches as pure data: plans field by field,
    compiled instances as the normalized spec that rebuilds them.  The
    result carries its own magic/version but no digest — the server
    wraps it in a {!Ls_shard.Ckpt} envelope for atomicity and
    self-validation on disk. *)

val restore : t -> string -> (int, string) result
(** Load a {!snapshot} payload into the engine's caches, recompiling
    each instance from its stored spec.  Returns the number of entries
    restored.  Entries the current configuration refuses to rebuild
    (e.g. a smaller [max_vertices]) are skipped, never fatal; a
    malformed payload is a named [Error] and the caches may hold a
    prefix of its entries (the caller treats this as a cold start).
    Subsequent cache hits on restored keys count as snapshot hits in
    {!stats} and {!Ls_obs.Metrics}. *)

(**/**)

val instance_key : Protocol.request -> string
val seed_sensitive : string -> bool
(** Canonical cache keying, exposed for tests. *)

(**/**)
