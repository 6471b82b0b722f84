(* Request streams.  Every workload is also a stream of Protocol requests:
   serve-* send theirs to the daemon, and sample-* become Sample requests
   of one trial each on the workload's instance, which is what the traced
   run replays through the engine and the daemon.  A stream is a pure
   function of (--seed, workload name). *)

module P = Ls_serve.Protocol
module Rng = Ls_rng.Rng

type t = {
  warmup : P.request list;  (* sent before any timed operation *)
  next : unit -> P.request;  (* ids are assigned by the sender *)
}

let rng ~seed ~salt =
  Rng.create
    (Ls_rng.Splitmix.mix64
       (Int64.logxor (Int64.of_int seed) (Int64.of_int (Hashtbl.hash salt))))

let request ?(trials = 1) ?(vertex = 0) ~op ~seed ~graph ~model ~engine ~t () =
  {
    P.id = 0;
    op;
    seed;
    graph;
    model;
    t;
    engine;
    trials;
    vertex;
    deadline_ms = 0;
  }

let stats_request =
  request ~op:P.Stats ~seed:0L ~graph:"-" ~model:"-" ~engine:"-" ~t:0 ()

let rec chunks k = function
  | [] -> []
  | l ->
      List.filteri (fun i _ -> i < k) l :: chunks k (List.filteri (fun i _ -> i >= k) l)

let models = [| "hardcore:0.8"; "ising:0.3"; "coloring:5" |]

(* The E17 mix: 60% Sample (1-4 trials), 20% Infer, 20% Count, ball
   engine at t=1.  Ops, graphs, models and trial counts follow a fixed
   interleaving, so every seed sends the same composition and only the
   seeds and vertices are random: with independent draws, which requests
   land in a run moved a percentile by as much as 20% from seed to seed. *)
let ops = P.[| Sample; Sample; Infer; Sample; Count; Sample; Sample; Infer; Sample; Count |]

let serve (s : Defs.serve) rng =
  let pool = Array.init 4 (fun _ -> Rng.bits64 rng) in
  let cycle a i = a.(i mod Array.length a) in
  let i = ref 0 in
  let draw () =
    let k = !i in
    incr i;
    let op = cycle ops k in
    let seed = pool.(Rng.int rng 4) in
    let trials = if op = P.Sample then 1 + (k / Array.length ops mod 4) else 1 in
    request ~op ~seed ~graph:(cycle s.graphs k) ~model:(cycle models k)
      ~engine:"ball" ~t:1 ~trials ~vertex:(Rng.int rng 8) ()
  in
  (* Every instance with every pooled seed at the largest trial count
     compiles every plan the stream can ask for. *)
  let warmup =
    List.concat_map
      (fun graph ->
        List.concat_map
          (fun model ->
            List.map
              (fun seed ->
                request ~op:P.Sample ~seed ~graph ~model ~engine:"ball" ~t:1
                  ~trials:4 ())
              (Array.to_list pool))
          (Array.to_list models))
      (Array.to_list s.graphs)
  in
  { warmup; next = draw }

let sample (s : Defs.sample) rng =
  let draw () =
    request ~op:P.Sample ~seed:(Rng.bits64 rng) ~graph:s.graph ~model:s.model
      ~engine:s.engine ~t:s.t ()
  in
  { warmup = [ draw () ]; next = draw }

let of_workload (w : Defs.workload) ~seed =
  let rng = rng ~seed ~salt:w.name in
  match w.kind with
  | Defs.Sample s -> sample s rng
  | Defs.Serve s -> serve s rng
