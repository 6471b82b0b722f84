module Graph = Ls_graph.Graph
module Rng = Ls_rng.Rng

type 's t = {
  graph : Graph.t;
  states : 's array;
  rngs : Rng.t array;
  mutable current_pass_radius : int;
  mutable closed_passes : int list;  (* reversed *)
}

let create graph ~seed ~init =
  {
    graph;
    states = Array.init (Graph.n graph) init;
    rngs = Rng.streams seed (Graph.n graph);
    current_pass_radius = 0;
    closed_passes = [];
  }

let graph t = t.graph
let state t v = t.states.(v)
let states t = Array.copy t.states

type 's ctx = {
  runtime : 's t;
  v : int;
  radius : int;
  ball : int array;  (* B_radius(v), sorted *)
  ball_dist : int array;  (* distance from [v] of each [ball] vertex *)
}

let center ctx = ctx.v
let rng ctx = ctx.runtime.rngs.(ctx.v)
let ball ctx = ctx.ball

(* Position of [u] in [ctx.ball], or [-1]. *)
let find ctx u =
  let rec bin lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      let w = ctx.ball.(mid) in
      if w = u then mid else if w < u then bin (mid + 1) hi else bin lo mid
  in
  bin 0 (Array.length ctx.ball)

let dist ctx u =
  let i = find ctx u in
  if i < 0 then max_int else ctx.ball_dist.(i)

let check ctx u op =
  if find ctx u < 0 then begin
    (* Off the ball: only the error message needs the true distance. *)
    let d = Graph.dist ctx.runtime.graph ctx.v u in
    invalid_arg
      (Printf.sprintf "Slocal.%s: node %d is at distance %d > radius %d from %d"
         op u
         (if d = max_int then -1 else d)
         ctx.radius ctx.v)
  end

let read ctx u =
  check ctx u "read";
  ctx.runtime.states.(u)

let write ctx u s =
  check ctx u "write";
  ctx.runtime.states.(u) <- s

let process t ~v ~radius f =
  if radius < 0 then invalid_arg "Slocal.process: negative radius";
  t.current_pass_radius <- max t.current_pass_radius radius;
  (* The ball is built before [f] runs, so no search is in flight while
     the step (an oracle, say) takes balls of its own. *)
  let ball, ball_dist = Graph.ball_dist t.graph v radius in
  f { runtime = t; v; radius; ball; ball_dist }

let new_pass t =
  t.closed_passes <- t.current_pass_radius :: t.closed_passes;
  t.current_pass_radius <- 0

let run_pass t ~order ~radius f =
  Array.iter (fun v -> process t ~v ~radius (fun ctx -> f ctx)) order;
  new_pass t

let pass_localities t =
  let closed = List.rev t.closed_passes in
  if t.current_pass_radius > 0 then closed @ [ t.current_pass_radius ] else closed

let single_pass_locality t =
  match pass_localities t with
  | [] -> 0
  | r1 :: rest -> r1 + (2 * List.fold_left ( + ) 0 rest)
