(** The chaos core that {!Chaos} (the LOCAL runtime) and {!Serve_chaos}
    (the serving daemon) are instances of.

    An instance supplies a schedule type ['s], a generator, a [run]
    returning every invariant violation of one schedule, and one-step
    shrink candidates that each zero a fault dimension.  The core owns
    the generate → run → shrink loop, the shrink fixpoint, the failure
    record, the summary and the report ending in a one-line replay
    command.  Each schedule is run once: the loop hands the violations
    it has to the shrinker, which returns the fixpoint's with it. *)

type violation = { invariant : string; detail : string }

val violation : string -> ('a, unit, string, violation) format4 -> 'a
(** [violation invariant fmt args], the detail formatted. *)

type 's failure = {
  index : int;  (** Which generated schedule failed (0-based). *)
  f_spec : 's;
  f_violations : violation list;
  f_shrunk : 's;  (** The shrink fixpoint: a minimal reproducer. *)
  f_shrunk_violations : violation list;
}

type ('s, 'p) summary = {
  seed : int64;
  schedules : int;
  params : 'p;  (** The instance's own run parameters. *)
  zero_fault : violation option;  (** The once-per-run check. *)
  failures : 's failure list;
}

val ok : ('s, 'p) summary -> bool

val shrink :
  run:('s -> violation list) ->
  candidates:('s -> 's list) ->
  's ->
  violation list ->
  's * violation list
(** [shrink ~run ~candidates s (run s)]: repeatedly take the first
    candidate that still violates one of the invariants [s] violates
    (one failing only a different invariant is rejected), until none
    does.  Returns the fixpoint and its violations; a passing schedule
    is its own fixpoint. *)

type 's workload = {
  zero : violation option;  (** The once-per-run check's verdict. *)
  gen : Ls_rng.Rng.t -> 's;
  run_spec : 's -> violation list;  (** [[]] = the schedule passed. *)
  candidates : 's -> 's list;  (** Most structural first. *)
}

val run :
  who:string ->
  size:string * int ->
  seed:int64 ->
  schedules:int ->
  'p ->
  (unit -> 's workload) ->
  ('s, 'p) summary
(** [run ~who ~size:(name, k) ~seed ~schedules params setup] raises
    [Invalid_argument "<who>: schedules must be >= 1"] (likewise [name]
    for [k]) before any work, then calls [setup] — which validates the
    instance's own parameters and makes the once-per-run check — and
    runs [schedules] schedules drawn from [Rng.create seed]. *)

val report :
  command:string ->
  describe:('s -> string) ->
  header:('p -> string) ->
  flags:('p -> string) ->
  zero_fault:(violation -> string) ->
  ('s, 'p) summary ->
  string
(** The report: ["<command>: seed=… schedules=…"] and [header params];
    the [zero_fault] line; each failure with its shrunk form, or ["all
    invariants held"]; last ["replay: locsample <command> --seed …
    --schedules …"] and [flags params]. *)

val parse_replay :
  command:string ->
  schedules:int ->
  'p ->
  ('p -> string list -> ('p * string list) option) ->
  string ->
  (int64 * int * 'p) option
(** [parse_replay ~command ~schedules params step text] reads the
    replay line in [text] back into [(seed, schedules, params)], from
    these defaults; [step p tokens] consumes one instance flag off
    [tokens], or returns [None] to skip a token. *)
