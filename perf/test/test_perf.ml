(* Pure helpers of the benchmark, and BENCHMARK.json against Defs. *)

open Perf_lib

let close = Alcotest.float 1e-9

let test_supported_level () =
  let level n = Stats.supported_level n in
  Alcotest.(check (option (float 0.))) "19 samples: none" None (level 19);
  Alcotest.(check (option (float 0.))) "20 samples: p50" (Some 0.5) (level 20);
  Alcotest.(check (option (float 0.))) "100 samples: p90" (Some 0.9) (level 100);
  Alcotest.(check (option (float 0.))) "999 samples: p90" (Some 0.9) (level 999);
  Alcotest.(check (option (float 0.))) "1000 samples: p99" (Some 0.99) (level 1000);
  Alcotest.(check (option (float 0.))) "10000 samples: p99.9" (Some 0.999) (level 10000)

let test_percentile () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check close "p50 of 1..100" 50. (Stats.percentile xs 0.5);
  Alcotest.check close "p90 of 1..100" 90. (Stats.percentile xs 0.9);
  Alcotest.check close "p99 of 1..100" 99. (Stats.percentile xs 0.99);
  Alcotest.check close "p100 is the max" 100. (Stats.percentile xs 1.)

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q xs = Stats.quartiles (Array.of_list xs) in
  let triple = Alcotest.(triple close close close) in
  Alcotest.check triple "1..10" (2.75, 5.5, 8.25)
    (q (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check triple "three values" (1., 2., 3.) (q [ 3.; 1.; 2. ]);
  Alcotest.check triple "two values" (4.5, 6., 7.5) (q [ 5.; 7. ]);
  Alcotest.check close "iqr of 1..10" 5.5
    (Stats.iqr (Array.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check close "median of even count" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |])

let verdict =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Verdict.name v))
    ( = )

let test_verdicts () =
  let a = Array.init 10 (fun i -> 100. +. float_of_int (i mod 3)) in
  let shift d = Array.map (fun x -> x +. d) a in
  let decide ?(better = Verdict.Lower) ?(bound = Some 0.1) b =
    Verdict.decide ~better ~bound a b
  in
  Alcotest.check verdict "same runs" Verdict.Within_bound (decide a);
  Alcotest.check verdict "5% slower, bound 10%" Verdict.Within_bound (decide (shift 5.));
  Alcotest.check verdict "20% slower" Verdict.Regressed (decide (shift 20.));
  Alcotest.check verdict "20% lower is better" Verdict.Improved (decide (shift (-20.)));
  Alcotest.check verdict "20% lower, higher is better" Verdict.Regressed
    (decide ~better:Verdict.Higher (shift (-20.)));
  Alcotest.check verdict "no bound" Verdict.Diagnostic (decide ~bound:None (shift 50.));
  (* Wins 9 of 10 pairs but the gap is inside the parent's IQR. *)
  let b = Array.mapi (fun i x -> if i = 0 then x +. 1. else x -. 0.5) a in
  Alcotest.check verdict "gain inside the IQR" Verdict.Within_bound (decide b);
  let noisy = Array.init 10 (fun i -> if i mod 2 = 0 then 60. else 140.) in
  Alcotest.check verdict "spread over the bound" Verdict.Unresolved (decide noisy);
  let better_but_noisy = Array.init 10 (fun i -> if i mod 2 = 0 then 10. else 90.) in
  Alcotest.check verdict "noisy but every run better" Verdict.Improved
    (decide better_but_noisy)

let span ~id ~parent s e =
  {
    Spans.id;
    parent;
    workload = "w";
    name = "s";
    start_ns = s;
    end_ns = e;
    minor_words = 0.;
  }

let test_self_time () =
  let spans =
    [
      span ~id:0 ~parent:(-1) 0 100;
      (* back-to-back children *)
      span ~id:1 ~parent:0 10 30;
      span ~id:2 ~parent:0 30 50;
      (* a grandchild counts against its parent only *)
      span ~id:3 ~parent:2 35 45;
      span ~id:4 ~parent:0 60 70;
    ]
  in
  let self = Spans.self_ns spans in
  Alcotest.(check int) "root" 50 (Hashtbl.find self 0);
  Alcotest.(check int) "leaf" 20 (Hashtbl.find self 1);
  Alcotest.(check int) "nested" 10 (Hashtbl.find self 2);
  Alcotest.(check int) "grandchild" 10 (Hashtbl.find self 3);
  Alcotest.(check int) "overlap and clipping" 35
    (Spans.covered ~lo:0 ~hi:50 [ (10, 30); (20, 40); (45, 90) ])

let test_recorder () =
  let r = Spans.create "w" in
  Spans.span r "outer" (fun () ->
      Spans.span r "a" ignore;
      Spans.span r "b" (fun () -> Spans.span r "c" ignore));
  let by_name n = List.find (fun s -> s.Spans.name = n) (Spans.spans r) in
  Alcotest.(check int) "outer is a root" (-1) (by_name "outer").Spans.parent;
  Alcotest.(check int) "a under outer" (by_name "outer").Spans.id (by_name "a").Spans.parent;
  Alcotest.(check int) "c under b" (by_name "b").Spans.id (by_name "c").Spans.parent

let test_json () =
  let v =
    Json.Obj
      [
        ("a", Json.Num 0.1);
        ("b", Json.Arr [ Json.Bool true; Json.Null; Json.Str "q\"\\\n" ]);
        ("c", Json.Num 12.);
      ]
  in
  Alcotest.(check bool) "round trip" true (Json.of_string (Json.to_string v) = Ok v);
  Alcotest.(check bool) "trailing bytes rejected" true
    (Result.is_error (Json.of_string "{} x"))

(* BENCHMARK.json is what the benchmark promises; Defs is what it runs. *)
let test_benchmark_json () =
  let j =
    match Json.read_file "../../BENCHMARK.json" with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let field k o = match Json.member k o with Some v -> v | None -> Alcotest.fail k in
  let str k o = Option.get (Json.to_str (field k o)) in
  Alcotest.(check (float 0.)) "run_seconds" (float_of_int Defs.run_seconds)
    (Option.get (Json.to_num (field "run_seconds" j)));
  Alcotest.(check (list (pair string string)))
    "workloads"
    (List.map (fun (w : Defs.workload) -> (w.Defs.name, w.Defs.why)) Defs.workloads)
    (List.map (fun w -> (str "name" w, str "why" w)) (Json.to_list (field "workloads" j)));
  let metrics key (defs : Defs.metric list) =
    Alcotest.(check (list (pair string (pair string (pair string (option (float 0.)))))))
      key
      (List.map
         (fun (m : Defs.metric) ->
           ( m.Defs.name,
             ( m.Defs.unit,
               ( (if m.Defs.better = Verdict.Higher then "higher" else "lower"),
                 m.Defs.bound ) ) ))
         defs)
      (List.map
         (fun m ->
           ( str "name" m,
             (str "unit" m, (str "better" m, Option.bind (Json.member "bound" m) Json.to_num))
           ))
         (Json.to_list (field key j)))
  in
  metrics "end_to_end" Defs.end_to_end;
  metrics "per_layer" Defs.per_layer

let () =
  Alcotest.run "perf"
    [
      ( "stats",
        [
          Alcotest.test_case "supported percentile level" `Quick test_supported_level;
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
        ] );
      ("compare", [ Alcotest.test_case "verdict table" `Quick test_verdicts ]);
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "recorder nesting" `Quick test_recorder;
        ] );
      ( "files",
        [
          Alcotest.test_case "json round trip" `Quick test_json;
          Alcotest.test_case "BENCHMARK.json matches Defs" `Quick test_benchmark_json;
        ] );
    ]
