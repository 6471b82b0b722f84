(* sample-*: the `locsample sample` path without faults.  Trials fan out
   through Par.run_trials in groups of [Defs.fan_out], on one domain; each
   trial is [Local_sampler.plan] then [sample_planned] on a seed drawn
   from its stream, exactly what [Local_sampler.sample] does in one call,
   and its cost is the CPU time it took. *)

module P = Ls_serve.Protocol
module Par = Ls_par.Par
module Rng = Ls_rng.Rng
open Ls_core

let now = Unix.gettimeofday

type outcome = {
  setup_s : float;
  trials : int;
  checks : int;
  failed : int;
  problems : string list;
  wall : float;  (* of the measured phase *)
  cpu_ms : float array;  (* per trial *)
  wall_ms : float array;  (* per trial *)
  digest : string;
  rss_mb : float;
  occupancy : (float * float) option;  (* pooled, exact *)
}

let derive seed k =
  Ls_rng.Splitmix.mix64 (Int64.add (Int64.of_int seed) (Int64.of_int (k * 0x9E37)))

let request (s : Defs.sample) =
  Traffic.request ~op:P.Sample ~seed:0L ~graph:s.Defs.graph ~model:s.Defs.model
    ~engine:s.Defs.engine ~t:s.Defs.t ()

(* Compile, run one warm-up trial, then start the pool; returns the
   instance and the CPU time set-up took.  The warm-up trial's seed is
   fixed: a trial's cost depends on its draws (a SAW trial's by up to
   half), and set-up should do the same work whatever --seed asks for. *)
let setup s =
  let t0 = Cpu.self () in
  let c = Layers.compile (request s) in
  ignore (Layers.trial c c.Layers.oracle ~seed:0L);
  Par.set_domains Defs.domains;
  ignore (Par.run_trials ~n:Defs.domains ~seed:0L ignore);
  (c, Cpu.self () -. t0)

let render sigma = String.concat "" (Array.to_list (Array.map string_of_int sigma))

let measure (s : Defs.sample) c ~seed ~seconds ~setup_s =
  let start = now () in
  let last = ref 0. in
  let cpu = ref [] and wall = ref [] and trials = ref 0 and failed = ref 0 in
  let problems = ref [] in
  let problem msg =
    incr failed;
    if List.length !problems < 5 then problems := msg :: !problems
  in
  let first_outputs = ref [] and ends = ref [] in
  let occupied = ref 0 and sites = ref 0 in
  let k = ref 0 in
  while now () -. start +. (!last /. 2.) < seconds do
    let results, timing =
      Par.run_trials_timed ~n:Defs.fan_out ~seed:(derive seed !k) (fun rng ->
          let sseed = Rng.bits64 rng in
          let c0 = Cpu.self () in
          let r = Layers.trial c c.Layers.oracle ~seed:sseed in
          (sseed, r, Cpu.self () -. c0))
    in
    incr k;
    last := timing.Par.wall;
    Array.iter (fun t -> wall := (t *. 1000.) :: !wall) timing.Par.per_trial;
    Array.iter
      (fun (sseed, (r : Local_sampler.result), t) ->
        cpu := (t *. 1000.) :: !cpu;
        if not (Layers.sound c r) then
          problem (Printf.sprintf "trial seed %Lx: unsound sample" sseed);
        if !trials < Defs.digest_outputs then
          first_outputs := render r.Local_sampler.sigma :: !first_outputs;
        (match !ends with
        | [] -> ends := [ (sseed, r) ]
        | first :: _ -> ends := [ first; (sseed, r) ]);
        Array.iter (fun v -> if v = 1 then incr occupied) r.Local_sampler.sigma;
        sites := !sites + Array.length r.Local_sampler.sigma;
        incr trials)
      results
  done;
  let wall_s = now () -. start in
  (* The first and last trials again, through the one-call entry point. *)
  List.iter
    (fun (sseed, (r : Local_sampler.result)) ->
      let again = Local_sampler.sample c.Layers.oracle c.Layers.inst ~seed:sseed in
      if
        again.Local_sampler.sigma <> r.Local_sampler.sigma
        || again.Local_sampler.failed <> r.Local_sampler.failed
      then problem (Printf.sprintf "trial seed %Lx: one-call sample differs" sseed))
    !ends;
  let occupancy =
    if not s.Defs.exact_check then None
    else
      let pooled = float_of_int !occupied /. float_of_int (max 1 !sites) in
      let exact =
        match
          Ls_gibbs.Chain_dp.marginal c.Layers.spec
            (Ls_gibbs.Config.empty (Instance.n c.Layers.inst))
            0
        with
        | Some d -> Ls_dist.Dist.prob d 1
        | None -> nan
      in
      if not (Float.abs (pooled -. exact) <= Defs.occupancy_tolerance) then
        problem
          (Printf.sprintf "pooled occupancy %.4f vs exact %.4f (tolerance %g)"
             pooled exact Defs.occupancy_tolerance);
      Some (pooled, exact)
  in
  {
    setup_s;
    trials = !trials;
    checks = List.length !ends + Option.fold ~none:0 ~some:(fun _ -> 1) occupancy;
    failed = !failed;
    problems = List.rev !problems;
    wall = wall_s;
    cpu_ms = Array.of_list !cpu;
    wall_ms = Array.of_list !wall;
    digest =
      String.sub
        (Digest.to_hex (Digest.string (String.concat "\n" (List.rev !first_outputs))))
        0 16;
    rss_mb = Option.value ~default:nan (Child.peak_rss_mb "self");
    occupancy;
  }

(* [Defs.setup_reps] fresh children set up: one measures, half the others
   set up before it and half after, so that their median spans the run's
   host conditions rather than one moment's. *)
let run (s : Defs.sample) ~seed ~seconds =
  let setups () =
    List.init (Defs.setup_reps / 2) (fun _ -> Child.run (fun () -> snd (setup s)))
  in
  let before = setups () in
  let o =
    Child.run (fun () ->
        let c, setup_s = setup s in
        measure s c ~seed ~seconds:(float_of_int seconds) ~setup_s)
  in
  let setup_all = Array.of_list ((o.setup_s :: before) @ setups ()) in
  let n = Array.length o.cpu_ms in
  let pct xs p = if n = 0 then nan else Stats.percentile xs p in
  let metrics =
    [
      ("op_cpu_ms_p90", pct o.cpu_ms 0.9);
      ("setup_s", Stats.median setup_all);
      ("peak_rss_mb", o.rss_mb);
    ]
  in
  let info =
    [
      Printf.sprintf "trials %d in %.2f s at %d domain(s)" o.trials o.wall Defs.domains;
      Printf.sprintf "per-trial CPU over %d trials: p50 %.3f ms, p99 %.3f ms (highest \
                      supported percentile: %s)" n (pct o.cpu_ms 0.5) (pct o.cpu_ms 0.99)
        (Option.fold ~none:"none" ~some:Stats.level_name (Stats.supported_level n));
      Printf.sprintf "wall clock (not gated): %.3f trials/s, trial p50 %.3f ms, p90 %.3f ms"
        (float_of_int o.trials /. o.wall) (pct o.wall_ms 0.5) (pct o.wall_ms 0.9);
      Printf.sprintf "output_digest %s (first %d samples)" o.digest Defs.digest_outputs;
    ]
    @ (match o.occupancy with
      | Some (pooled, exact) ->
          [ Printf.sprintf "occupancy pooled %.5f exact %.5f" pooled exact ]
      | None -> [])
  in
  {
    Report.attempted = o.trials + o.checks;
    failed = o.failed;
    problems = o.problems;
    metrics;
    info;
    digest = o.digest;
  }
