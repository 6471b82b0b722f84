(* One run's result: the human lines, the --out record with its
   environment block, and the final one-line JSON object. *)

type t = {
  attempted : int;
  failed : int;
  problems : string list;
  metrics : (string * float) list;
  info : string list;
  digest : string;
}

let correct r = r.failed = 0

(* --- environment block ------------------------------------------------- *)

let nproc () = Domain.recommended_domain_count ()

let read_first_line path =
  match In_channel.with_open_text path In_channel.input_line with
  | Some l -> Some (String.trim l)
  | None | (exception Sys_error _) -> None

let os () =
  match
    ( read_first_line "/proc/sys/kernel/ostype",
      read_first_line "/proc/sys/kernel/osrelease" )
  with
  | Some t, Some r -> t ^ " " ^ r
  | _ -> Sys.os_type

(* The commit of the tree the benchmark runs in; "unknown" outside a git
   checkout or without git. *)
let git_commit () =
  if not (Sys.file_exists ".git") then "unknown"
  else
    match
      Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |]
    with
    | exception Unix.Unix_error _ -> "unknown"
    | ic -> (
        let line = In_channel.input_line ic in
        match (Unix.close_process_in ic, line) with
        | Unix.WEXITED 0, Some l -> String.trim l
        | _ -> "unknown")

let env ~seed =
  [
    ("nproc", Json.Num (float_of_int (nproc ())));
    ("ocaml_version", Json.Str Sys.ocaml_version);
    ("domains", Json.Num (float_of_int Defs.domains));
    ("os", Json.Str (os ()));
    ("git_commit", Json.Str (git_commit ()));
    ("seed", Json.Num (float_of_int seed));
    ("benchmark_version", Json.Str Defs.version);
  ]

(* Fields two result sets must share to be compared. *)
let comparable_env = [ "nproc"; "ocaml_version"; "domains"; "os"; "benchmark_version" ]

(* --- output ------------------------------------------------------------- *)

let unit_of name =
  match Defs.find_metric name with Some m -> m.Defs.unit | None -> "?"

let metrics_json r =
  Json.Obj
    (List.map
       (fun (name, v) ->
         (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str (unit_of name)) ]))
       r.metrics)

let result_line r =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (correct r));
         ("attempted", Json.Num (float_of_int r.attempted));
         ("failed", Json.Num (float_of_int r.failed));
         ("metrics", metrics_json r);
       ])

let record r ~workload ~seed ~seconds ~trace =
  let metric (name, v) =
    let m = Defs.find_metric name in
    ( name,
      Json.Obj
        [
          ("value", Json.Num v);
          ("unit", Json.Str (unit_of name));
          ( "better",
            Json.Str
              (match m with
              | Some { Defs.better = Verdict.Higher; _ } -> "higher"
              | _ -> "lower") );
          ( "bound",
            match m with
            | Some { Defs.bound = Some b; _ } -> Json.Num b
            | _ -> Json.Null );
        ] )
  in
  Json.Obj
    [
      ("workload", Json.Str workload);
      ("trace", Json.Bool trace);
      ("seconds", Json.Num (float_of_int seconds));
      ("env", Json.Obj (env ~seed));
      ("correct", Json.Bool (correct r));
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("output_digest", Json.Str r.digest);
      ("metrics", Json.Obj (List.map metric r.metrics));
    ]

let print r =
  List.iter (fun l -> Printf.printf "# %s\n" l) r.info;
  List.iter (fun p -> Printf.printf "! check failed: %s\n" p) r.problems;
  Printf.printf "# %d attempted, %d failed\n" r.attempted r.failed;
  List.iter
    (fun (name, v) -> Printf.printf "%s %.6g %s\n" name v (unit_of name))
    r.metrics;
  print_endline (result_line r)
