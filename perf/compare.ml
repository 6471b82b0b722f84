(* Compare two sets of perf.exe --out records:

     compare.exe A1.json A2.json ... -- B1.json B2.json ...

   A is the parent, B the change; pass each side's files in run order, so
   A.(i) and B.(i) form a pair.  For each (workload, metric) it prints each
   side's median and quartiles, the change in the median and a verdict
   (see Verdict).  Exits 1 when any metric regressed, and 2 when the
   environment blocks differ (seed and commit excepted) or on bad input. *)

open Perf_lib

let die code msg =
  Printf.eprintf "compare: %s\n" msg;
  exit code

type run = {
  file : string;
  workload : string;
  env : (string * string) list;
  metrics : (string * (float * string * Verdict.better * float option)) list;
}

let load file =
  let bad what = die 2 (Printf.sprintf "%s: %s" file what) in
  let j = match Json.read_file file with Ok j -> j | Error e -> bad e in
  let str k o = Option.bind (Json.member k o) Json.to_str in
  let workload = match str "workload" j with Some w -> w | None -> bad "no workload" in
  let env =
    List.map
      (fun k ->
        ( k,
          match Option.bind (Json.member "env" j) (Json.member k) with
          | Some v -> Json.to_string v
          | None -> bad ("env has no " ^ k) ))
      Report.comparable_env
  in
  let metrics =
    match Json.member "metrics" j with
    | Some (Json.Obj l) ->
        List.map
          (fun (name, m) ->
            let value =
              match Option.bind (Json.member "value" m) Json.to_num with
              | Some v -> v
              | None -> bad (name ^ " has no value")
            in
            let better =
              match Option.bind (str "better" m) Verdict.better_of_string with
              | Some b -> b
              | None -> bad (name ^ " has no direction")
            in
            let bound = Option.bind (Json.member "bound" m) Json.to_num in
            (name, (value, Option.value ~default:"" (str "unit" m), better, bound)))
          l
    | _ -> bad "no metrics"
  in
  { file; workload; env; metrics }

let check_env runs =
  match runs with
  | [] -> ()
  | first :: rest ->
      List.iter
        (fun r ->
          List.iter2
            (fun (k, a) (_, b) ->
              if a <> b then
                die 2
                  (Printf.sprintf "environment mismatch: %s is %s in %s but %s in %s" k
                     a first.file b r.file))
            first.env r.env)
        rest

let summary xs =
  if Array.length xs = 0 then "-"
  else
    let q1, _, q3 = if Array.length xs < 2 then (xs.(0), xs.(0), xs.(0)) else Stats.quartiles xs in
    Printf.sprintf "%.4g [%.4g, %.4g]" (Stats.median xs) q1 q3

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> die 2 "usage: compare.exe A1.json ... -- B1.json ..."
  in
  let a_files, b_files = split [] args in
  if a_files = [] || b_files = [] then die 2 "each side needs at least one record";
  let a = List.map load a_files and b = List.map load b_files in
  check_env (a @ b);
  let keys =
    List.concat_map (fun r -> List.map (fun (m, _) -> (r.workload, m)) r.metrics) a
    |> List.fold_left (fun acc k -> if List.mem k acc then acc else k :: acc) []
    |> List.rev
  in
  let values side (w, m) =
    Array.of_list
      (List.filter_map
         (fun r ->
           if r.workload <> w then None
           else Option.map (fun (v, _, _, _) -> v) (List.assoc_opt m r.metrics))
         side)
  in
  let regressed = ref false in
  Printf.printf "%-12s %-32s %-6s %-28s %-28s %8s  %s\n" "workload" "metric" "unit"
    "A median [q1, q3]" "B median [q1, q3]" "delta" "verdict";
  List.iter
    (fun ((w, m) as key) ->
      let va = values a key and vb = values b key in
      let _, unit, better, bound =
        List.assoc m (List.find (fun r -> r.workload = w) a).metrics
      in
      let verdict =
        if Array.length vb = 0 then "missing in B"
        else begin
          let v = Verdict.decide ~better ~bound va vb in
          if v = Verdict.Regressed then regressed := true;
          Verdict.name v
        end
      in
      let delta =
        if Array.length vb = 0 then "-"
        else
          Printf.sprintf "%+.1f%%"
            (100. *. (Stats.median vb -. Stats.median va) /. Float.abs (Stats.median va))
      in
      Printf.printf "%-12s %-32s %-6s %-28s %-28s %8s  %s\n" w m unit (summary va)
        (summary vb) delta verdict)
    keys;
  exit (if !regressed then 1 else 0)
