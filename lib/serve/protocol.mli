(** Wire protocol for the serving daemon.

    One request or response per {!Ls_shard.Frame} (which contributes the
    outer magic, length validation, payload digest and EINTR-safe IO);
    this module defines the payload layer behind its own 4-byte magic.
    The codec is pure and total: {!decode_request_bytes} /
    {!decode_response_bytes} map arbitrary bytes to a value or a named
    [Error], never an exception, and no allocation is sized by a length
    field that has not been validated against both a hard cap and the
    bytes actually present — the same discipline the Frame fuzz suite
    enforces, and the serve fuzz suite re-checks end to end.

    Determinism contract: a request carries its [seed]; the daemon's
    response body is a pure function of the request payload (admission
    verdicts aside), so the same request bytes produce the same response
    bytes at any domain count. *)

type op =
  | Sample  (** [trials] chain-rule samples; returns counts + first sample. *)
  | Infer  (** Marginal at [vertex]; returns the distribution. *)
  | Count  (** ln Z by self-reduction; returns one float. *)
  | Stats  (** Engine counters; like {!Health}, the reply is not
               request-deterministic (it reads server state). *)
  | Health
      (** The daemon's degraded-mode registry ({!Ls_obs.Health});
          answered by the server loop without queueing, so a degraded
          daemon still reports its own degradation promptly. *)

val op_name : op -> string

type request = {
  id : int;  (** Correlation id, echoed in the response ([>= 0]). *)
  op : op;
  seed : int64;  (** All randomness derives from this. *)
  graph : string;  (** Graph spec, e.g. ["cycle:64"] (≤ {!max_spec_len}). *)
  model : string;  (** Model spec, e.g. ["hardcore:1.0"]. *)
  t : int;  (** Oracle radius / SAW depth. *)
  engine : string;  (** ["ball"] or ["saw"]. *)
  trials : int;  (** Sample trials ([1 .. max_trials]); 1 for other ops. *)
  vertex : int;  (** Infer target ([>= 0]); ignored by other ops. *)
  deadline_ms : int;
      (** Maximum queue wait in milliseconds before the daemon answers
          {!Expired} instead of executing; [0] means no deadline
          ([0 .. 86_400_000], one day). *)
}

type err_code =
  | Bad_request
  | Overloaded
  | Unsupported
  | Internal
  | Expired
      (** The request out-waited its [deadline_ms] in the admission queue
          and was answered without executing. *)

val err_name : err_code -> string

type stats = {
  st_requests : int;
  st_batches : int;
  st_coalesced : int;
  st_cache_hits : int;
  st_cache_misses : int;
  st_evictions : int;
  st_rejected : int;
  st_expired : int;  (** Requests answered {!Expired} without executing. *)
  st_snapshot_hits : int;
      (** Cache hits on entries restored from a warm-start snapshot. *)
  st_restarts : int;
      (** Worker incarnation under [--supervised]; 0 = never restarted. *)
  st_max_queue : int;
  st_domains : int;
}

type body =
  | Sample_r of {
      trials : int;
      successes : int;
      distinct : int;  (** Distinct successful configurations. *)
      first : int array;  (** First successful configuration ([[||]] if none). *)
    }
  | Infer_r of { probs : float array }
  | Count_r of { log_z : float }
  | Stats_r of stats
  | Health_r of { reasons : (string * string) list }
      (** [(subsystem, reason)] pairs, sorted by subsystem; [[]] = ok. *)
  | Error_r of { code : err_code; message : string }

type response = { rid : int; body : body }

val max_spec_len : int
val max_trials : int
val max_t : int

val max_table : int
(** Cap on a model's weight tables, [n·q + 2m·q²] entries over the graph
    its spec lives on ({!Ls_gibbs.Spec.tables}): 2²⁴, about 134 MB of
    floats.  {!Engine.parse_model} refuses a model over it before any
    spec is built, so neither the daemon nor the CLI allocates tables
    whose size a client's [q] squares. *)

val check_t : int -> (unit, string) result
(** The radius rule, [t] in [\[0, max_t\]]: {!validate_request} applies
    it to every request and {!Engine.make_oracle} to every oracle, so the
    daemon and the CLI reject the same radii. *)

val validate_request : request -> (unit, string) result
(** The bounds {!decode_request_bytes} enforces, applied to an in-memory
    request — clients call it before encoding. *)

(** {1 Pure codec} — the fuzz surface *)

val encode_request : request -> string
val encode_response : response -> string
val decode_request_bytes : string -> (request, string) result
val decode_response_bytes : string -> (response, string) result

(** {1 Frame-level} (for callers that already hold a decoded frame) *)

val kind_request : int
val request_of_frame : Ls_shard.Frame.t -> (request, string) result
val response_of_frame : Ls_shard.Frame.t -> (response, string) result
val request_frame : request -> Ls_shard.Frame.t

(** {1 Socket IO} (EINTR-safe, via {!Ls_shard.Frame}) *)

val write_request : Unix.file_descr -> request -> unit
val write_response : Unix.file_descr -> response -> unit
val read_response : Unix.file_descr -> (response, Ls_shard.Frame.read_error) result
