(* The locsample benchmark: one workload per invocation.

     perf.exe --workload NAME --seed N --seconds S --trace 0|1
              [--out FILE] [--spans FILE]

   Prints each metric as `name value unit`, then, as the last line, one
   JSON object {correct, attempted, failed, metrics}.  With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 they are the per-layer
   ones from the traced run.  --out writes the same result with its
   environment block, for perf/compare.exe; --spans writes the traced
   run's spans as JSON lines.  Exits 1 when any output check fails and 2
   on a usage error. *)

open Perf_lib

let usage () =
  Printf.sprintf
    "perf.exe --workload {%s} --seed N --seconds S --trace 0|1 [--out FILE] \
     [--spans FILE]"
    (String.concat "|" (List.map (fun (w : Defs.workload) -> w.Defs.name) Defs.workloads))

let die msg =
  Printf.eprintf "perf: %s\nusage: %s\n" msg (usage ());
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref Defs.run_seconds in
  let trace = ref 0 in
  let out = ref None and spans = ref None in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--out", Arg.String (fun f -> out := Some f), "FILE result record");
      ("--spans", Arg.String (fun f -> spans := Some f), "FILE traced spans (JSONL)");
    ]
  in
  (try Arg.parse_argv Sys.argv specs (fun a -> die ("unexpected argument " ^ a)) (usage ())
   with Arg.Bad msg | Arg.Help msg -> die (List.hd (String.split_on_char '\n' msg)));
  let w =
    match Defs.find_workload !workload with
    | Some w -> w
    | None -> die (Printf.sprintf "unknown workload %S" !workload)
  in
  if !seconds < 1 then die "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if Report.nproc () < 2 then
    prerr_endline
      "perf: warning: fewer than 2 cores; the daemon and the load generator, \
       and the traced run's 2-domain pass, will contend";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  let r =
    try
      if !trace = 1 then Traced.run w ~seed:!seed ~seconds:!seconds ~spans_file:!spans
      else
        match w.Defs.kind with
        | Defs.Sample s -> Sampling.run s ~seed:!seed ~seconds:!seconds
        | Defs.Serve s -> Serving.run w s ~seed:!seed ~seconds:!seconds
    with Failure msg ->
      Printf.eprintf "perf: %s\n" msg;
      exit 1
  in
  let r =
    match List.filter (fun (_, v) -> not (Float.is_finite v)) r.Report.metrics with
    | [] -> r
    | bad ->
        {
          r with
          Report.failed = r.Report.failed + List.length bad;
          problems =
            r.Report.problems
            @ List.map (fun (n, _) -> Printf.sprintf "metric %s was not measured" n) bad;
        }
  in
  Option.iter
    (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc
            (Json.to_string
               (Report.record r ~workload:w.Defs.name ~seed:!seed ~seconds:!seconds
                  ~trace:(!trace = 1))
            ^ "\n")))
    !out;
  Report.print r;
  exit (if Report.correct r then 0 else 1)
