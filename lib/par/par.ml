module Rng = Ls_rng.Rng

type timing = { wall : float; per_trial : float array; domains : int }

let domains_env =
  Ls_obs.Env.declare "LOCSAMPLE_DOMAINS"
    ~default:Domain.recommended_domain_count (Ls_obs.Env.int_at_least 1)

let default_domains () = Ls_obs.Env.get domains_env

let override = Atomic.make None

let domains () =
  match Atomic.get override with Some k -> k | None -> default_domains ()

let set_domains k =
  if k < 1 then invalid_arg "Par.set_domains: domain count must be >= 1";
  Atomic.set override (Some k)

(* The process-global pool, (re)created lazily whenever the requested
   size changes, and torn down at exit so the runtime can join all
   domains cleanly.  Callers hold a refcount on the slot they acquired:
   a concurrent [set_domains] retires the slot but its pool is only shut
   down once the last holder releases it, so a pool can never be torn
   down under a caller mid-[Pool.run]. *)
type slot = { pool : Pool.t; mutable refs : int; mutable retired : bool }

let global_lock = Mutex.create ()
let global : slot option ref = ref None

let acquire () =
  Mutex.lock global_lock;
  let want = domains () in
  let to_kill = ref None in
  let s =
    match !global with
    | Some s when (not s.retired) && Pool.size s.pool = want ->
        s.refs <- s.refs + 1;
        s
    | prev ->
        (match prev with
        | Some s ->
            s.retired <- true;
            if s.refs = 0 then to_kill := Some s.pool
        | None -> ());
        let s = { pool = Pool.create want; refs = 1; retired = false } in
        global := Some s;
        s
  in
  Mutex.unlock global_lock;
  (match !to_kill with Some p -> Pool.shutdown p | None -> ());
  s

let release s =
  Mutex.lock global_lock;
  s.refs <- s.refs - 1;
  let dead = s.retired && s.refs = 0 in
  Mutex.unlock global_lock;
  if dead then Pool.shutdown s.pool

(* Join the global pool's domains when idle — required before Unix.fork
   (the runtime refuses to fork alongside live sibling domains).  A pool
   mid-batch can only be retired; it dies on release. *)
let quiesce () =
  Mutex.lock global_lock;
  let p =
    match !global with
    | Some s when s.refs = 0 ->
        global := None;
        Some s.pool
    | Some s ->
        s.retired <- true;
        None
    | None -> None
  in
  Mutex.unlock global_lock;
  match p with Some p -> Pool.shutdown p | None -> ()

let () =
  at_exit (fun () ->
      Mutex.lock global_lock;
      let p =
        match !global with
        | Some s ->
            s.retired <- true;
            Some s.pool
        | None -> None
      in
      global := None;
      Mutex.unlock global_lock;
      match p with Some p -> Pool.shutdown p | None -> ())

let with_pool ?domains f =
  match domains with
  | None ->
      let s = acquire () in
      Fun.protect ~finally:(fun () -> release s) (fun () -> f s.pool)
  | Some k ->
      let p = Pool.create k in
      Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

module Trace = Ls_obs.Trace

let collect ?domains n body =
  let out = Array.make n None in
  let used = ref 1 in
  with_pool ?domains (fun pool ->
      used := Pool.size pool;
      if Trace.buffering_needed () then begin
        (* Deterministic tracing: buffer each trial's events and flush in
           trial-index order, so the trace stream never depends on how
           trials interleaved across domains. *)
        let recs = Array.make n Trace.empty_recording in
        Pool.run pool ~n (fun i ->
            let r, evs = Trace.capture (fun () -> body i) in
            out.(i) <- Some r;
            recs.(i) <- evs);
        Array.iter Trace.replay recs;
        Trace.to_ambient (Trace.Batch { items = n })
      end
      else Pool.run pool ~n (fun i -> out.(i) <- Some (body i)));
  (Array.map (function Some x -> x | None -> assert false) out, !used)

let run_trials ?domains ~n ~seed f =
  if n < 0 then invalid_arg "Par.run_trials: n must be non-negative";
  let rngs = Rng.streams seed n in
  fst (collect ?domains n (fun i -> f rngs.(i)))

let fold_trials ?domains ?(chunk = 4096) ~n ~seed ~init ~add ~merge f =
  if n < 0 then invalid_arg "Par.fold_trials: n must be non-negative";
  if chunk < 1 then invalid_arg "Par.fold_trials: chunk must be >= 1";
  let rngs = Rng.streams seed n in
  (* Chunk boundaries are fixed by [chunk] alone — never by the domain
     count — and the final fold walks chunks in index order, so the
     result is a pure function of (n, seed, chunk, f) provided
     [add]/[merge] form the advertised commutative monoid. *)
  let chunks = (n + chunk - 1) / chunk in
  let accs, _ =
    collect ?domains chunks (fun c ->
        let acc = init () in
        let hi = min n ((c + 1) * chunk) in
        for i = c * chunk to hi - 1 do
          add acc (f rngs.(i))
        done;
        acc)
  in
  Array.fold_left merge (init ()) accs

let run_trials_timed ?domains ~n ~seed f =
  if n < 0 then invalid_arg "Par.run_trials_timed: n must be non-negative";
  let rngs = Rng.streams seed n in
  let per_trial = Array.make n 0. in
  let t0 = Unix.gettimeofday () in
  let results, used =
    collect ?domains n (fun i ->
        let s = Unix.gettimeofday () in
        let r = f rngs.(i) in
        per_trial.(i) <- Unix.gettimeofday () -. s;
        r)
  in
  (results, { wall = Unix.gettimeofday () -. t0; per_trial; domains = used })

let map ?domains f xs =
  fst (collect ?domains (Array.length xs) (fun i -> f xs.(i)))

let map_list ?domains f xs = Array.to_list (map ?domains f (Array.of_list xs))

let map_seeded ?domains ~seed f xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  let rngs = Rng.streams seed n in
  Array.to_list (fst (collect ?domains n (fun i -> f arr.(i) rngs.(i))))

let map_reduce ?domains ~map:fm ~reduce init xs =
  Array.fold_left reduce init (map ?domains fm xs)
