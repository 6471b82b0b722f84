(* Benchmark harness entry point.

   `dune exec bench/main.exe` prints every experiment table (E1-E19, the
   paper-shape reproduction indexed in DESIGN.md / EXPERIMENTS.md) followed
   by the Bechamel micro-benchmarks.  Pass experiment ids (e1 ... e19,
   e11-scale, micro, or micro/GROUP for one row group of micro, e.g.
   micro/kernel) to run a subset; `--domains K` pins the parallel
   engine's domain count (default: LOCSAMPLE_DOMAINS or the core count).

   Tables go to stdout; timing lines go to stderr, so stdout is bit-for-bit
   identical at every domain count and can be diffed to check the engine's
   determinism contract.  `--trace FILE` records the runtime's event
   stream as JSONL (deterministic modulo the leading "ts" field — strip it
   and the file diffs clean across domain counts too); `--metrics` prints
   an aggregate counter table after each section. *)

let sections =
  [
    ("e1", Experiments.e1);
    ("e2", Experiments.e2);
    ("e3", Experiments.e3);
    ("e4", Experiments.e4);
    ("e5", Experiments.e5);
    ("e6", Experiments.e6);
    ("e7", Experiments.e7);
    ("e8", Experiments.e8);
    ("e9", Experiments.e9);
    ("e10", Experiments.e10);
    ("e11", Experiments.e11);
    ("e11-scale", Experiments.e11_scale);
    ("e12", Experiments.e12);
    ("e13", Experiments.e13);
    ("e14", Experiments.e14);
    ("e15", Experiments.e15);
    ("e16", Experiments.e16);
    ("e17", Experiments.e17);
    ("e18", Experiments.e18);
    ("e19", Experiments.e19);
    ("decomp", Experiments.decomp_ablation);
    ("micro", fun () -> Micro.run ());
  ]
  (* [micro/GROUP] times one row group of [micro] alone. *)
  @ List.map (fun (g, _) -> ("micro/" ^ g, fun () -> Micro.run ~only:g ())) Micro.groups

let usage () =
  Printf.eprintf
    "usage: main.exe [--domains K] [--fault-rate P] [--crash-rate P] \
     [--retry-budget R] [--max-delay K] [--corrupt-rate P] \
     [--fault-profile lossy|flaky|partitioned] \
     [--async synchronizer|adaptive] [--sketch W,D] [--sketch-k K] \
     [--trace FILE] [--metrics] [section ...]\n\
     (known sections: %s)\n"
    (String.concat ", " (List.map fst sections));
  exit 2

let metrics_on = ref false

let parse_args argv =
  (* Each flag also accepts --flag=VALUE, like --domains. *)
  let split_eq prefix arg =
    let p = prefix ^ "=" in
    let lp = String.length p in
    if String.length arg > lp && String.sub arg 0 lp = p then
      Some (String.sub arg lp (String.length arg - lp))
    else None
  in
  let rec go acc = function
    | [] -> List.rev acc
    | "--domains" :: k :: rest -> set_domains k; go acc rest
    | "--fault-rate" :: p :: rest -> set_fault_rate p; go acc rest
    | "--crash-rate" :: p :: rest -> set_crash_rate p; go acc rest
    | "--retry-budget" :: r :: rest -> set_retry_budget r; go acc rest
    | "--max-delay" :: k :: rest -> set_max_delay k; go acc rest
    | "--corrupt-rate" :: p :: rest -> set_corrupt_rate p; go acc rest
    | "--fault-profile" :: name :: rest -> set_fault_profile name; go acc rest
    | "--async" :: mode :: rest -> set_async mode; go acc rest
    | "--sketch" :: wd :: rest -> set_sketch wd; go acc rest
    | "--sketch-k" :: k :: rest -> set_sketch_k k; go acc rest
    | "--trace" :: f :: rest -> set_trace f; go acc rest
    | "--metrics" :: rest ->
        metrics_on := true;
        Ls_obs.Metrics.set_enabled true;
        go acc rest
    | "--help" :: _ -> usage ()
    | arg :: rest ->
        let eq_flags =
          [
            ("--domains", set_domains);
            ("--fault-rate", set_fault_rate);
            ("--crash-rate", set_crash_rate);
            ("--retry-budget", set_retry_budget);
            ("--max-delay", set_max_delay);
            ("--corrupt-rate", set_corrupt_rate);
            ("--fault-profile", set_fault_profile);
            ("--async", set_async);
            ("--sketch", set_sketch);
            ("--sketch-k", set_sketch_k);
            ("--trace", set_trace);
          ]
        in
        let rec try_eq = function
          | [] -> go (arg :: acc) rest
          | (p, set) :: more -> (
              match split_eq p arg with
              | Some v -> set v; go acc rest
              | None -> try_eq more)
        in
        try_eq eq_flags
  and set_domains k =
    match int_of_string_opt k with
    | Some k when k >= 1 -> Ls_par.Par.set_domains k
    | _ ->
        Printf.eprintf "--domains expects an integer >= 1, got %S\n" k;
        exit 2
  and set_fault_rate p =
    match float_of_string_opt p with
    | Some x when x >= 0. && x <= 1. -> Experiments.e12_rates := [ x ]
    | _ ->
        Printf.eprintf "--fault-rate expects a probability in [0,1], got %S\n" p;
        exit 2
  and set_crash_rate p =
    match float_of_string_opt p with
    | Some x when x >= 0. && x <= 1. -> Experiments.e12_crash_rate := x
    | _ ->
        Printf.eprintf "--crash-rate expects a probability in [0,1], got %S\n" p;
        exit 2
  and set_retry_budget r =
    match int_of_string_opt r with
    | Some x when x >= 0 -> Experiments.e12_retry_budget := x
    | _ ->
        Printf.eprintf "--retry-budget expects an integer >= 0, got %S\n" r;
        exit 2
  and set_max_delay k =
    (* Validation lives in Faults.make, so the error text matches the
       locsample CLI's exactly. *)
    match int_of_string_opt k with
    | Some x -> (
        try
          ignore (Ls_local.Faults.make ~max_delay:x ());
          Experiments.e12_max_delay := x
        with Invalid_argument msg -> Printf.eprintf "%s\n" msg; exit 2)
    | None ->
        Printf.eprintf "--max-delay expects an integer >= 1, got %S\n" k;
        exit 2
  and set_corrupt_rate p =
    match float_of_string_opt p with
    | Some x -> (
        try
          ignore (Ls_local.Faults.make ~corrupt:x ());
          Experiments.e12_corrupt_rate := x
        with Invalid_argument msg -> Printf.eprintf "%s\n" msg; exit 2)
    | None ->
        Printf.eprintf "--corrupt-rate expects a probability in [0,1], got %S\n"
          p;
        exit 2
  and set_fault_profile name =
    (try ignore (Ls_local.Faults.preset name)
     with Invalid_argument msg -> Printf.eprintf "%s\n" msg; exit 2);
    Experiments.e12_profile := Some name
  and set_async mode =
    (* Validation lives in Async.mode_of_string, so the error text matches
       the locsample CLI's exactly.  E12/E13's supervised runs then flood
       over the event-driven executor; in synchronizer mode stdout stays
       byte-identical to the synchronous run. *)
    (try ignore (Ls_local.Async.mode_of_string mode)
     with Invalid_argument msg -> Printf.eprintf "%s\n" msg; exit 2);
    Experiments.async_mode := Some mode
  and set_sketch wd =
    (* Pin E15's grid to a single width,depth point.  Validation lives in
       Cms.create, so the error text matches the locsample CLI's. *)
    let parts = String.split_on_char ',' wd in
    match List.map int_of_string_opt parts with
    | [ Some w; Some d ] -> (
        try
          ignore (Ls_sketch.Cms.create ~width:w ~depth:d ~seed:0L);
          Experiments.e15_grid := [ (w, d) ]
        with Invalid_argument msg -> Printf.eprintf "%s\n" msg; exit 2)
    | _ ->
        Printf.eprintf "--sketch expects WIDTH,DEPTH (two integers), got %S\n"
          wd;
        exit 2
  and set_sketch_k k =
    match int_of_string_opt k with
    | Some x -> (
        try
          ignore (Ls_sketch.Bottomk.create ~k:x ~seed:0L);
          Experiments.e15_k := x
        with Invalid_argument msg -> Printf.eprintf "%s\n" msg; exit 2)
    | None ->
        Printf.eprintf "--sketch-k expects an integer >= 1, got %S\n" k;
        exit 2
  and set_trace f =
    let t = Ls_obs.Trace.make ~path:f () in
    Ls_obs.Trace.install t;
    at_exit (fun () -> Ls_obs.Trace.close t)
  in
  go [] (List.tl (Array.to_list argv))

let () =
  (* Same env contract as bin/locsample: malformed LOCSAMPLE_* values are
     named errors at startup, not backtraces from the first parallel call. *)
  List.iter
    (fun check ->
      match check () with
      | Ok () -> ()
      | Error msg -> Printf.eprintf "%s\n" msg; exit 2)
    [ Ls_par.Par.env_check; Ls_shard.Ckpt.env_check ];
  let requested =
    match parse_args Sys.argv with
    | [] -> List.filter (fun id -> not (String.contains id '/')) (List.map fst sections)
    | ids -> ids
  in
  print_endline
    "locsample benchmark harness -- reproduction of Feng & Yin, PODC 2018";
  List.iter
    (fun id ->
      match List.assoc_opt id sections with
      | Some run ->
          let w0 = Unix.gettimeofday () and t0 = Sys.time () in
          run ();
          if !metrics_on then begin
            (* Per-section counters, reset between sections so each row
               stands alone. *)
            Printf.printf "[%s] " id;
            Ls_obs.Metrics.print stdout (Ls_obs.Metrics.snapshot ());
            Ls_obs.Metrics.reset ()
          end;
          Printf.printf "%!";
          Printf.eprintf "[%s finished in %.1fs wall, %.1fs cpu, %d domains]\n%!"
            id
            (Unix.gettimeofday () -. w0)
            (Sys.time () -. t0)
            (Ls_par.Par.domains ())
      | None ->
          Printf.eprintf "unknown section %S (known: %s)\n" id
            (String.concat ", " (List.map fst sections));
          exit 2)
    requested
