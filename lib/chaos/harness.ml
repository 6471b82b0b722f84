(* The chaos core: generate schedules from a seed, run each, shrink every
   failure to a minimal reproducer, and print a report ending in the one
   line that replays the run.  Chaos and Serve_chaos supply only their
   schedule type, workload, invariants and replay flags. *)

type violation = { invariant : string; detail : string }

let violation invariant fmt =
  Printf.ksprintf (fun detail -> { invariant; detail }) fmt

type 's failure = {
  index : int;
  f_spec : 's;
  f_violations : violation list;
  f_shrunk : 's;
  f_shrunk_violations : violation list;
}

type ('s, 'p) summary = {
  seed : int64;
  schedules : int;
  params : 'p;
  zero_fault : violation option;
  failures : 's failure list;
}

let ok summary = summary.zero_fault = None && summary.failures = []

(* Greedy minimization.  Candidates zero whole dimensions rather than
   halving rates: a minimal reproducer should name the fault DIMENSIONS
   that matter, not a fine-tuned magnitude.  A candidate failing only
   some other invariant would trade the failure being shrunk for a
   different one.  Every accepted step strictly shrinks the schedule, so
   this terminates. *)
let shrink ~run ~candidates s0 v0 =
  let original = List.map (fun v -> v.invariant) v0 in
  let keeps vs = List.exists (fun v -> List.mem v.invariant original) vs in
  let rec go s vs =
    let rec first = function
      | [] -> (s, vs)
      | c :: rest ->
          let vc = run c in
          if keeps vc then go c vc else first rest
    in
    first (candidates s)
  in
  go s0 v0

type 's workload = {
  zero : violation option;
  gen : Ls_rng.Rng.t -> 's;
  run_spec : 's -> violation list;
  candidates : 's -> 's list;
}

let run ~who ~size:(name, k) ~seed ~schedules params setup =
  if schedules < 1 then invalid_arg (who ^ ": schedules must be >= 1");
  if k < 1 then invalid_arg (Printf.sprintf "%s: %s must be >= 1" who name);
  let w = setup () in
  let rng = Ls_rng.Rng.create seed in
  let failures =
    List.filter_map
      (fun index ->
        let s = w.gen rng in
        match w.run_spec s with
        | [] -> None
        | f_violations ->
            let f_shrunk, f_shrunk_violations =
              shrink ~run:w.run_spec ~candidates:w.candidates s f_violations
            in
            Some
              { index; f_spec = s; f_violations; f_shrunk; f_shrunk_violations })
      (List.init schedules Fun.id)
  in
  { seed; schedules; params; zero_fault = w.zero; failures }

let replay_prefix command = "replay: locsample " ^ command

let report ~command ~describe ~header ~flags ~zero_fault summary =
  let b = Buffer.create 256 in
  let p fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  p "%s: seed=%Ld schedules=%d%s\n" command summary.seed summary.schedules
    (header summary.params);
  Option.iter (fun v -> p "%s\n" (zero_fault v)) summary.zero_fault;
  List.iter
    (fun f ->
      p "schedule %d FAILED: %s\n" f.index (describe f.f_spec);
      List.iter (fun v -> p "  %s: %s\n" v.invariant v.detail) f.f_violations;
      p "  shrunk to: %s\n" (describe f.f_shrunk);
      List.iter
        (fun v -> p "  (shrunk) %s: %s\n" v.invariant v.detail)
        f.f_shrunk_violations)
    summary.failures;
  if ok summary then p "all invariants held\n";
  p "%s --seed %Ld --schedules %d%s\n" (replay_prefix command) summary.seed
    summary.schedules (flags summary.params);
  Buffer.contents b

let parse_replay ~command ~schedules params step text =
  let prefix = replay_prefix command in
  let rec go seed n p = function
    | [] -> (seed, n, p)
    | "--seed" :: v :: rest -> go (Int64.of_string v) n p rest
    | "--schedules" :: v :: rest -> go seed (int_of_string v) p rest
    | _ :: skip as toks -> (
        match step p toks with
        | Some (p, rest) -> go seed n p rest
        | None -> go seed n p skip)
  in
  match
    List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' text)
  with
  | None -> None
  | Some line -> (
      let toks = List.filter (( <> ) "") (String.split_on_char ' ' line) in
      try Some (go 0L schedules params toks) with Failure _ -> None)
