(* Bounded retry with exponential backoff for Las Vegas phases running on
   a faulty network, the LOCAL samplers' flood-and-retry attempt loop on
   top of it, plus stalled-ball-collection supervision.

   The supervisor never hides cost: every backoff round is charged to the
   caller's round meter, and every retry re-runs the supervised phase on
   the live network (whose fault clock has advanced, so the retry faces
   fresh — but deterministic — fault verdicts).  When the budget runs out
   the caller gets a structured degradation report instead of an
   exception: graceful degradation is a result, not a crash. *)

module Graph = Ls_graph.Graph
module Trace = Ls_obs.Trace
module Metrics = Ls_obs.Metrics
module Rng = Ls_rng.Rng

type policy = {
  retry_budget : int;
  backoff_base : int;
  backoff_factor : int;
}

let policy ?(retry_budget = 3) ?(backoff_base = 1) ?(backoff_factor = 2) () =
  if retry_budget < 0 then
    invalid_arg
      (Printf.sprintf
         "Resilient.policy: retry_budget (--retry-budget) must be >= 0, got %d"
         retry_budget);
  if backoff_base < 1 then
    invalid_arg
      (Printf.sprintf "Resilient.policy: backoff_base must be >= 1, got %d"
         backoff_base);
  if backoff_factor < 1 then
    invalid_arg
      (Printf.sprintf "Resilient.policy: backoff_factor must be >= 1, got %d"
         backoff_factor);
  { retry_budget; backoff_base; backoff_factor }

let default = policy ()

type report = {
  attempts : int;
  backoff_rounds : int;
  degraded : bool;
  reasons : string list;
}

let describe r =
  if not r.degraded then
    Printf.sprintf "ok after %d attempt(s), %d backoff round(s)" r.attempts
      r.backoff_rounds
  else
    Printf.sprintf "degraded after %d attempt(s), %d backoff round(s): %s"
      r.attempts r.backoff_rounds
      (String.concat "; " r.reasons)

type failure = Transient of string | Permanent of string

let failure_reason = function Transient w | Permanent w -> w

let run_classified ?trace ?(label = "resilient") pol ?(charge = fun _ -> ()) f =
  let tr = Trace.resolve trace in
  let metrics () = Metrics.enabled () in
  let emit_attempt attempt ok detail =
    (match tr with
    | Some s -> Trace.emit s (Trace.Attempt { label; attempt; ok; detail })
    | None -> ());
    if metrics () then begin
      Metrics.bump Metrics.attempts;
      if attempt > 0 then Metrics.bump Metrics.retries
    end
  in
  let reasons = ref [] in
  let backoff = ref 0 in
  let rec go attempt delay =
    match f ~attempt with
    | Ok x ->
        emit_attempt attempt true "";
        ( Some x,
          {
            attempts = attempt + 1;
            backoff_rounds = !backoff;
            degraded = false;
            reasons = List.rev !reasons;
          } )
    | Error fl ->
        let why = failure_reason fl in
        let permanent = match fl with Permanent _ -> true | Transient _ -> false in
        emit_attempt attempt false why;
        reasons := Printf.sprintf "attempt %d: %s" (attempt + 1) why :: !reasons;
        (* A permanent failure cannot be waited out: stop immediately and
           keep the remaining budget (and its backoff rounds) unspent. *)
        if permanent || attempt >= pol.retry_budget then begin
          let detail =
            if permanent then Printf.sprintf "permanent: %s" why else why
          in
          (match tr with
          | Some s ->
              Trace.emit s
                (Trace.Degraded { label; attempts = attempt + 1; detail })
          | None -> ());
          if metrics () then Metrics.bump Metrics.degradations;
          ( None,
            {
              attempts = attempt + 1;
              backoff_rounds = !backoff;
              degraded = true;
              reasons = List.rev !reasons;
            } )
        end
        else begin
          (* Exponential backoff, honestly charged to the round meter. *)
          (match tr with
          | Some s ->
              Trace.emit s
                (Trace.Backoff { label; attempt = attempt + 1; rounds = delay })
          | None -> ());
          if metrics () then Metrics.add Metrics.backoff_rounds delay;
          charge delay;
          backoff := !backoff + delay;
          go (attempt + 1) (delay * pol.backoff_factor)
        end
  in
  go 0 pol.backoff_base

type 'a supervised = {
  value : 'a;
  failed : bool array;
  report : report;
  rounds : int;
}

let supervise ?(policy = default) ?(faults = Faults.none) ?trace ?async ~label
    ~blame ~radii g ~seed payload =
  let n = Graph.n g in
  (* The physical network carrying the fault plan.  Each attempt first runs
     genuine ball collection over it, one flood per radius: drops, delays
     and crashes hit the payload through the same message-passing layer
     the flood-vs-gather tests validate, and a node whose flooded view
     misses part of its true ball cannot evaluate its step — it is a
     communication failure, OR-ed into the payload's Las Vegas flags. *)
  let net = Network.create ~faults ?trace g ~inputs:(Array.make n ()) ~seed in
  let master = Rng.create seed in
  let best = ref None in
  let payload_rounds = ref 0 in
  let attempt ~attempt:_ =
    (* Fresh payload randomness per attempt, deterministically derived:
       attempts are sequential, so the draw order is reproducible. *)
    let payload_seed = Rng.bits64 master in
    let comm_failed = Array.make n false in
    List.iter
      (fun radius ->
        let views =
          match async with
          | None -> Network.flood_views net ~radius
          | Some cfg -> Async.flood_views cfg net ~radius
        in
        for v = 0 to n - 1 do
          if Network.crashed net v || not (Network.view_is_complete net views.(v))
          then comm_failed.(v) <- true
        done)
      radii;
    let value, failed, rounds = payload ~seed:payload_seed in
    payload_rounds := !payload_rounds + rounds;
    let failed = Array.mapi (fun v f -> f || comm_failed.(v)) failed in
    let n_failed = Array.fold_left (fun a f -> if f then a + 1 else a) 0 failed in
    (match !best with
    | Some (_, _, b) when b <= n_failed -> ()
    | _ -> best := Some (value, failed, n_failed));
    if n_failed = 0 then Ok ()
    else begin
      (* When every failed node has crash-stopped for good, no retry can
         ever succeed — stop spending budget.  Any salvageable failure
         (stalled view, payload failure, a node inside its recovery
         interval) is worth retrying. *)
      let salvageable = ref false in
      Array.iteri
        (fun v f ->
          if f && not (Network.permanently_crashed net v) then salvageable := true)
        failed;
      let why =
        Printf.sprintf "%d node(s) failed (crash, stalled view, or %s)" n_failed
          blame
      in
      Error (if !salvageable then Transient why else Permanent why)
    end
  in
  let _, report =
    run_classified ?trace ~label policy ~charge:(Network.charge net) attempt
  in
  (* A success is the first attempt with no failure, so the best attempt
     is the returned one whether or not the budget ran out. *)
  let value, failed, _ = Option.get !best in
  (* Teardown: the network runs no further phases, so copies still parked
     across a phase boundary settle as dead letters — conservation holds
     with pending = 0 when the supervisor hands the result back. *)
  Network.finish net;
  (* Honest meter: every attempt's payload rounds, every flood, every
     backoff round — nothing is charged to a discarded attempt for free. *)
  { value; failed; report; rounds = !payload_rounds + Network.rounds net }

let collect_views ?trace ?async ?(label = "collect_views") net ~policy:pol
    ~radius =
  let tr = Trace.resolve trace in
  let metrics = Metrics.enabled () in
  let n = Graph.n (Network.graph net) in
  (* Under the adaptive executor a misfired timeout surfaces here as an
     incomplete view — a transient failure like any other stall, waited
     out with backoff and re-flooded, never a wrong answer.  The stall
     reason records the executor's give-ups so degradation reports name
     the true culprit. *)
  let flood_note = ref "" in
  let flood () =
    match async with
    | None -> Network.flood_views ?trace net ~radius
    | Some cfg ->
        let s0 = Async.stats cfg in
        let vs = Async.flood_views cfg ?trace net ~radius in
        let s1 = Async.stats cfg in
        let dg = s1.Async.gave_up - s0.Async.gave_up
        and dl = s1.Async.late - s0.Async.late in
        flood_note :=
          if dg > 0 || dl > 0 then
            Printf.sprintf " (async: %d timeout give-up(s), %d late cop%s)" dg
              dl
              (if dl = 1 then "y" else "ies")
          else "";
        vs
  in
  let best = flood () in
  let stalled () =
    (* Only permanently crashed nodes are hopeless: no retry can help them,
       so they never justify burning budget.  A node that is down but has a
       recovery scheduled is a transient failure — waiting (backoff) and
       re-flooding can still complete its view. *)
    let count = ref 0 in
    for v = 0 to n - 1 do
      if
        (not (Network.permanently_crashed net v))
        && not (Network.view_is_complete net best.(v))
      then incr count
    done;
    !count
  in
  let emit_attempt attempt stalled_count =
    (match tr with
    | Some s ->
        Trace.emit s
          (Trace.Attempt
             {
               label;
               attempt;
               ok = stalled_count = 0;
               detail = Printf.sprintf "%d node(s) stalled" stalled_count;
             })
    | None -> ());
    if metrics then begin
      Metrics.bump Metrics.attempts;
      if attempt > 0 then Metrics.bump Metrics.retries
    end
  in
  let reasons = ref [] in
  let backoff = ref 0 in
  let attempts = ref 1 in
  let delay = ref pol.backoff_base in
  let retries = ref 0 in
  (* One stall census per iteration: it both gates the loop and feeds the
     report (the old code recounted inside the body). *)
  let stalled_now = ref (stalled ()) in
  emit_attempt 0 !stalled_now;
  while !stalled_now > 0 && !retries < pol.retry_budget do
    reasons :=
      Printf.sprintf "attempt %d: %d node(s) stalled on ball collection%s"
        !attempts !stalled_now !flood_note
      :: !reasons;
    (match tr with
    | Some s ->
        Trace.emit s (Trace.Backoff { label; attempt = !attempts; rounds = !delay })
    | None -> ());
    if metrics then Metrics.add Metrics.backoff_rounds !delay;
    Network.charge net !delay;
    backoff := !backoff + !delay;
    delay := !delay * pol.backoff_factor;
    incr retries;
    incr attempts;
    (* Re-flood on the live network: the fault clock has advanced, so this
       attempt draws fresh verdicts.  Union-merge each node's flooded
       knowledge across attempts: two incomparable partial views compose
       instead of the larger one shadowing the smaller. *)
    let again = flood () in
    Array.iteri (fun v w -> best.(v) <- Network.merge_views net best.(v) w) again;
    stalled_now := stalled ();
    emit_attempt (!attempts - 1) !stalled_now
  done;
  let failed =
    Array.init n (fun v ->
        Network.crashed net v || not (Network.view_is_complete net best.(v)))
  in
  let n_failed = Array.fold_left (fun a f -> if f then a + 1 else a) 0 failed in
  if n_failed > 0 then begin
    reasons :=
      Printf.sprintf
        "budget exhausted with %d node(s) failed (crashed or stalled)" n_failed
      :: !reasons;
    (match tr with
    | Some s ->
        Trace.emit s
          (Trace.Degraded
             {
               label;
               attempts = !attempts;
               detail = Printf.sprintf "%d node(s) failed" n_failed;
             })
    | None -> ());
    if metrics then Metrics.bump Metrics.degradations
  end;
  let report =
    {
      attempts = !attempts;
      backoff_rounds = !backoff;
      degraded = n_failed > 0;
      reasons = List.rev !reasons;
    }
  in
  (best, failed, report)
