(* Tests for ball-local geometry: every ball query — [Graph.ball],
   [sphere] and [ball_dist], [Inference.annulus] and [ssm_infer],
   [Network.gather] and [view_is_complete], the SLOCAL step context — is
   one radius-bounded search.  Each is diffed against a copy of the
   whole-graph version it replaced (one [Graph.bfs_distances] plus an
   n-length scan per query), bit for bit, and [Graph.ball] is checked to
   allocate a number of words that does not grow with n.  The per-domain
   scratch under the search, [Stamp], has its unit test here, and
   [scratch_hygiene], the check that each of its clients runs. *)

module Graph = Ls_graph.Graph
module Generators = Ls_graph.Generators
module Dist = Ls_dist.Dist
module Rng = Ls_rng.Rng
module Config = Ls_gibbs.Config
module Spec = Ls_gibbs.Spec
module Models = Ls_gibbs.Models
module Network = Ls_local.Network
module Slocal = Ls_local.Slocal
module Stamp = Ls_graph.Stamp
module Forest_dp = Ls_gibbs.Forest_dp
module Par = Ls_par.Par

open Ls_core

let checkb = Alcotest.check Alcotest.bool

(* --- reference: the whole-graph ball queries as they stood --- *)

module Reference = struct
  let ball g v r =
    let d = Graph.bfs_distances g v in
    let acc = ref [] in
    for u = Graph.n g - 1 downto 0 do
      if d.(u) <= r then acc := u :: !acc
    done;
    Array.of_list !acc

  let sphere g v r =
    let d = Graph.bfs_distances g v in
    let acc = ref [] in
    for u = Graph.n g - 1 downto 0 do
      if d.(u) = r then acc := u :: !acc
    done;
    Array.of_list !acc

  let annulus inst ~v ~t =
    let g = Instance.graph inst in
    let ell = Instance.locality inst in
    let d = Graph.bfs_distances g v in
    let acc = ref [] in
    for u = Graph.n g - 1 downto 0 do
      if d.(u) > t && d.(u) <= t + ell && not (Instance.is_pinned inst u) then
        acc := u :: !acc
    done;
    Array.of_list !acc

  let ssm_infer ~t inst v =
    let q = Instance.q inst in
    if Instance.is_pinned inst v then Dist.point q inst.Instance.pinned.(v)
    else begin
      let g = Instance.graph inst in
      let ell = Instance.locality inst in
      let ball = ball g v (t + ell) in
      let gamma = annulus inst ~v ~t in
      let pinned =
        match Inference.locally_feasible_extension inst ~vertices:gamma with
        | Some sigma -> sigma
        | None -> inst.Instance.pinned
      in
      let inst' = Instance.create inst.Instance.spec ~pinned in
      match Exact.ball_marginal inst' ~ball v with
      | Some d -> d
      | None -> (
          let found = ref None in
          let chain = Chain.start inst in
          let live = Chain.instance chain in
          let rec search i =
            if !found <> None then ()
            else if i = Array.length gamma then begin
              match Exact.ball_marginal live ~ball v with
              | Some d -> found := Some d
              | None -> ()
            end
            else
              for c = 0 to q - 1 do
                if !found = None then begin
                  let m = Chain.mark chain in
                  Chain.pin chain gamma.(i) c;
                  if Spec.locally_feasible live.Instance.spec live.Instance.pinned then
                    search (i + 1);
                  Chain.undo chain m
                end
              done
          in
          search 0;
          match !found with Some d -> d | None -> Dist.uniform q)
    end

  (* Network.gather: the view's vertices, inputs and distances from two
     whole-graph passes. *)
  let gather g inputs ~v ~radius =
    if radius < 0 then invalid_arg "Network.gather: negative radius";
    let dist = Graph.bfs_distances g v in
    let ball = ball g v radius in
    (ball, Array.map (fun o -> inputs.(o)) ball, Array.map (Array.get dist) ball)

  let view_is_complete g (view : _ Network.view) =
    Array.length view.Network.vertices
    = Array.length (ball g view.Network.center view.Network.radius)

  (* Slocal's step context: an n-length distance array, and an access
     past the radius raising with the true distance. *)
  let check distances ~v ~radius u op =
    if distances.(u) > radius then
      invalid_arg
        (Printf.sprintf "Slocal.%s: node %d is at distance %d > radius %d from %d" op u
           (if distances.(u) = max_int then -1 else distances.(u))
           radius v)
end

(* --- random graphs and instances --- *)

(* A cycle, path, tree, grid or sparse Erdős–Rényi graph (often
   disconnected), with up to [isolated] isolated vertices appended. *)
let random_graph rng ~max_n ~isolated =
  let size lo = lo + Rng.int rng (max_n - isolated - lo + 1) in
  let g =
    match Rng.int rng 5 with
    | 0 -> Generators.cycle (size 3)
    | 1 -> Generators.path (size 1)
    | 2 -> Generators.random_tree rng (size 1)
    | 3 ->
        let rows = 1 + Rng.int rng 4 in
        Generators.grid rows (max 1 (size 1 / rows))
    | _ -> Generators.erdos_renyi rng ~n:(size 1) ~p:(0.4 *. Rng.float rng)
  in
  Graph.create ~n:(Graph.n g + Rng.int rng (isolated + 1)) ~edges:(Graph.edges g)

(* −1, 0, 1, …, (largest finite distance) + 1, and [max_int], at which
   the ball is every vertex, unreachable ones included. *)
let radii g =
  let ecc = ref 0 in
  for v = 0 to Graph.n g - 1 do
    ecc := max !ecc (Graph.eccentricity g v)
  done;
  List.init (!ecc + 3) (fun r -> r - 1) @ [ max_int ]

(* Hardcore, Ising or 3-colouring on [g] with a random feasible pinning
   of about half the vertices. *)
let random_instance rng g =
  let n = Graph.n g in
  let pinned = Config.empty n in
  let no_neighbour_at v c = Array.for_all (fun u -> pinned.(u) <> c) (Graph.neighbors g v) in
  let spec, q, allowed =
    match Rng.int rng 3 with
    | 0 ->
        ( Models.hardcore g ~lambda:(0.3 +. (1.5 *. Rng.float rng)),
          2,
          fun v c -> c = 0 || no_neighbour_at v 1 )
    | 1 ->
        ( Models.ising g ~beta:(0.8 *. Rng.float rng) ~field:(0.5 +. Rng.float rng),
          2,
          fun _ _ -> true )
    | _ -> (Models.coloring g ~q:3, 3, no_neighbour_at)
  in
  for v = 0 to n - 1 do
    let c = Rng.int rng q in
    if Rng.bool rng && allowed v c then pinned.(v) <- c
  done;
  Instance.create spec ~pinned

let seeded name ~count f =
  QCheck.Test.make ~name ~count
    QCheck.(int_bound 1_000_000)
    (fun seed -> f (Rng.of_int seed))

let for_all_vertices g f = List.for_all f (List.init (Graph.n g) Fun.id)

let outcome f = match f () with x -> Ok x | exception Invalid_argument m -> Error m

let dist_bits d = Array.init (Dist.size d) (fun c -> Int64.bits_of_float (Dist.prob d c))

(* --- differentials --- *)

let qcheck_graph =
  seeded "ball, ball_dist, sphere = whole-graph BFS" ~count:150 (fun rng ->
      let g = random_graph rng ~max_n:40 ~isolated:8 in
      let radii = radii g in
      for_all_vertices g (fun v ->
          let d = Graph.bfs_distances g v in
          List.for_all
            (fun r ->
              let ball = Reference.ball g v r in
              Graph.ball g v r = ball
              && Graph.ball_dist g v r = (ball, Array.map (Array.get d) ball)
              && Graph.sphere g v r = Reference.sphere g v r)
            radii))

let qcheck_annulus =
  seeded "annulus = whole-graph annulus" ~count:100 (fun rng ->
      let g = random_graph rng ~max_n:40 ~isolated:8 in
      let inst = random_instance rng g in
      let ell = Instance.locality inst in
      let ts = radii g @ [ max_int - ell ] in
      for_all_vertices g (fun v ->
          List.for_all
            (fun t -> Inference.annulus inst ~v ~t = Reference.annulus inst ~v ~t)
            ts))

let qcheck_ssm_infer =
  seeded "ssm_infer = whole-graph ssm_infer, bit for bit" ~count:60 (fun rng ->
      let g = random_graph rng ~max_n:12 ~isolated:2 in
      let inst = random_instance rng g in
      let ell = Instance.locality inst in
      (* [max_int - ℓ] takes the ball at radius [max_int]. *)
      let ts = List.filter (fun t -> t <> max_int) (radii g) @ [ max_int - ell ] in
      for_all_vertices g (fun v ->
          List.for_all
            (fun t ->
              outcome (fun () -> dist_bits (Inference.ssm_infer ~t inst v))
              = outcome (fun () -> dist_bits (Reference.ssm_infer ~t inst v)))
            ts))

let qcheck_gather =
  seeded "gather views = whole-graph views, field by field" ~count:100 (fun rng ->
      let g = random_graph rng ~max_n:40 ~isolated:8 in
      let inputs = Array.init (Graph.n g) (fun v -> (7 * v) + 3) in
      let net = Network.create g ~inputs ~seed:(Rng.bits64 rng) in
      for_all_vertices g (fun v ->
          List.for_all
            (fun radius ->
              let expected = outcome (fun () -> Reference.gather g inputs ~v ~radius) in
              match outcome (fun () -> Network.gather net ~v ~radius) with
              | Error m -> expected = Error m
              | Ok view ->
                  let k = Array.length view.Network.vertices in
                  (* A view missing its last vertex is partial. *)
                  let partial =
                    {
                      view with
                      Network.vertices = Array.sub view.Network.vertices 0 (k - 1);
                    }
                  in
                  expected
                  = Ok
                      ( view.Network.vertices,
                        view.Network.view_inputs,
                        view.Network.dist_center )
                  && view.Network.center = v
                  && view.Network.radius = radius
                  && Network.view_is_complete net view
                     = Reference.view_is_complete g view
                  && Network.view_is_complete net partial
                     = Reference.view_is_complete g partial)
            (radii g)))

let qcheck_slocal =
  seeded "Slocal reads, writes, dist and ball = whole-graph context" ~count:100
    (fun rng ->
      let g = random_graph rng ~max_n:40 ~isolated:8 in
      let n = Graph.n g in
      let rt = Slocal.create g ~seed:(Rng.bits64 rng) ~init:(fun v -> 10 * v) in
      for_all_vertices g (fun v ->
          List.for_all
            (fun radius ->
              let step ctx =
                let d = Graph.bfs_distances g v in
                let access op f u =
                  outcome (fun () -> f u)
                  = outcome (fun () ->
                        Reference.check d ~v ~radius u op;
                        10 * u)
                in
                Slocal.ball ctx = Reference.ball g v radius
                && for_all_vertices g (fun u ->
                       access "read" (Slocal.read ctx) u
                       && access "write"
                            (fun u ->
                              Slocal.write ctx u (10 * u);
                              10 * u)
                            u
                       && Slocal.dist ctx u = if d.(u) <= radius then d.(u) else max_int)
              in
              match outcome (fun () -> Slocal.process rt ~v ~radius step) with
              | Ok ok -> ok
              | Error m -> radius < 0 && m = "Slocal.process: negative radius")
            (radii g))
      && Slocal.states rt = Array.init n (fun v -> 10 * v))

(* --- allocation --- *)

(* Minor words and words allocated straight into the major heap by [f]
   (arrays over 256 words skip the minor heap), each the least over five
   calls: the runtime can fold another domain's counters (one that just
   terminated, say) into a [Gc.counters] window, which only ever adds
   words, so the least delta is the call's own. *)
let words f =
  let once () =
    Gc.minor ();
    let minor0, promoted0, major0 = Gc.counters () in
    let r = f () in
    let minor1, promoted1, major1 = Gc.counters () in
    (r, minor1 -. minor0, major1 -. major0 -. (promoted1 -. promoted0))
  in
  let r, minor, major = once () in
  let minor = ref minor and major = ref major in
  for _ = 2 to 5 do
    let _, mi, ma = once () in
    minor := Float.min !minor mi;
    major := Float.min !major ma
  done;
  (r, !minor, !major)

let test_ball_allocation () =
  let g = Generators.cycle 16384 in
  ignore (Graph.ball g 0 3);
  let check name expected f =
    let r, minor, major = words f in
    Alcotest.(check (array int)) name expected r;
    checkb (Printf.sprintf "%s: %.0f minor words < 200" name minor) true (minor < 200.);
    checkb (Printf.sprintf "%s: %.0f major words < 200" name major) true (major < 200.)
  in
  check "ball r=3" [| 8197; 8198; 8199; 8200; 8201; 8202; 8203 |] (fun () ->
      Graph.ball g 8200 3);
  check "sphere r=3" [| 8197; 8203 |] (fun () -> Graph.sphere g 8200 3);
  check "ball_dist r=3" [| 3; 2; 1; 0; 1; 2; 3 |] (fun () -> snd (Graph.ball_dist g 8200 3));
  (* An out-of-range centre raises without leaving the scratch in use:
     the next search still allocates nothing of length n. *)
  Alcotest.check_raises "centre out of range" (Invalid_argument "index out of bounds")
    (fun () -> ignore (Graph.ball g 16384 1));
  check "ball after a raise" [| 0; 1; 16383 |] (fun () -> Graph.ball g 0 1)

(* The search itself allocates nothing per visited vertex: a
   radius-1000 ball visits 2001 vertices of [cycle:16384].  Before it, a
   smaller graph's out-of-range centre raises on a scratch that a bigger
   graph grew, and must not leave that scratch in use. *)
let test_wide_ball_allocation () =
  let g = Generators.cycle 16384 in
  ignore (Graph.ball g 0 1);
  Alcotest.check_raises "centre out of a smaller graph" (Invalid_argument "index out of bounds")
    (fun () -> Graph.iter_ball (Generators.cycle 8) 8 1 (fun _ _ -> ()));
  let sum, minor, major =
    words (fun () ->
        let sum = ref 0 in
        Graph.iter_ball g 8200 1000 (fun _ d -> sum := !sum + d);
        !sum)
  in
  Alcotest.(check int) "distance sum" (1000 * 1001) sum;
  checkb (Printf.sprintf "r=1000: %.0f minor words < 200" minor) true (minor < 200.);
  checkb (Printf.sprintf "r=1000: %.0f major words < 200" major) true (major < 200.)

(* A ball query made inside another one's callback gets its own scratch. *)
let test_nested_ball () =
  let g = Generators.path 9 in
  let inner = ref [] in
  Graph.iter_ball g 4 1 (fun u _ -> inner := (u, Graph.ball g u 1) :: !inner);
  Alcotest.(check (list int)) "outer ball visited" [ 3; 4; 5 ]
    (List.sort compare (List.map fst !inner));
  checkb "inner balls correct" true
    (List.for_all (fun (u, b) -> b = Reference.ball g u 1) !inner);
  checkb "outer scratch intact" true (Graph.ball g 4 2 = [| 2; 3; 4; 5; 6 |])

(* --- the shared stamp scratch --- *)

let test_stamp () =
  let a = Stamp.key ~ints:1 (fun () -> ()) and b = Stamp.key ~ints:2 (fun () -> ()) in
  let mark (s : _ Stamp.t) u = s.stamp.(u) <- s.epoch in
  let current (s : _ Stamp.t) u = s.stamp.(u) = s.epoch in
  (* Two keys on one domain, one use live inside the other. *)
  Stamp.use a 16 (fun sa ->
      Stamp.use b 16 (fun sb ->
          checkb "two keys never share arrays" true
            (sa.stamp != sb.stamp && sa.ints.(0) != sb.ints.(0) && sa.ints.(0) != sb.ints.(1))));
  (* A nested use gets a fresh scratch, and the outer marks survive. *)
  Stamp.use a 16 (fun outer ->
      mark outer 3;
      outer.ints.(0).(3) <- 42;
      Stamp.use a 16 (fun inner ->
          checkb "nested use: a fresh scratch" true (inner.stamp != outer.stamp);
          checkb "nested use: no current mark" true
            (List.for_all (fun u -> not (current inner u)) (List.init 16 Fun.id));
          mark inner 3;
          inner.ints.(0).(3) <- 7);
      checkb "outer marks survive" true (current outer 3 && outer.ints.(0).(3) = 42));
  (* A raise releases the scratch: the next use gets the same arrays. *)
  let held = Stamp.use a 16 Fun.id in
  (match Stamp.use a 16 (fun s -> mark s 5; failwith "boom") with
  | () -> Alcotest.fail "the use did not raise"
  | exception Failure _ -> ());
  checkb "busy is clear after a raise" false held.busy;
  Stamp.use a 16 (fun s ->
      checkb "the same scratch after a raise" true (s == held);
      checkb "the raising use's mark is stale" false (current s 5));
  (* Growing from 16 to 4096: no stale mark reads as current, at either
     size afterwards. *)
  Stamp.use a 16 (fun s -> List.iter (mark s) (List.init 16 Fun.id));
  Stamp.use a 4096 (fun s ->
      checkb "grown to 4096" true (Array.length s.stamp >= 4096 && Array.length s.ints.(0) >= 4096);
      checkb "no current mark after growing" true
        (Array.for_all (fun x -> x <> s.epoch) s.stamp);
      List.iter (mark s) [ 0; 4095 ]);
  Stamp.use a 16 (fun s ->
      checkb "no current mark back at 16" true (Array.for_all (fun x -> x <> s.epoch) s.stamp))

(* One check for every client of {!Stamp}: each query's answer must
   equal [reference q] bit for bit, with [queries] alternating between a
   graph on 16 vertices and one on 4096, so one domain's scratch serves
   both sizes, and every third query made right after [raising q], a
   call that raises [Invalid_argument] inside the client's scratch.  The
   same sequence then runs through [Par.map ~domains:2], where each
   domain's scratch is its own. *)
let scratch_hygiene ~raising ~answer ~reference queries =
  let want = Array.map reference queries in
  let run (i, q) =
    let raised =
      i mod 3 <> 0 || match raising q with () -> false | exception Invalid_argument _ -> true
    in
    (raised, answer q)
  in
  let queries = Array.mapi (fun i q -> (i, q)) queries in
  Array.iter
    (fun ((i, _) as q) ->
      checkb (Printf.sprintf "query %d: raised, then = reference" i) true
        (run q = (true, want.(i))))
    queries;
  checkb "2 domains: raised, then = reference" true
    (Par.map ~domains:2 run queries = Array.map (fun w -> (true, w)) want)

(* Radius-r balls, r in 0..6, alternating between grid:4x4 and a random
   tree on 4096 vertices. *)
let test_ball_hygiene () =
  let rng = Rng.of_int 23 in
  let small = Generators.grid 4 4 and large = Generators.random_tree rng 4096 in
  let queries =
    Array.init 24 (fun i ->
        let g = if i mod 2 = 0 then small else large in
        (g, Rng.int rng (Graph.n g), Rng.int rng 7))
  in
  scratch_hygiene queries
    ~raising:(fun (g, _, _) -> ignore (Graph.ball g (Graph.n g) 1))
    ~answer:(fun (g, v, r) -> (Graph.ball g v r, Graph.sphere g v r))
    ~reference:(fun (g, v, r) -> (Reference.ball g v r, Reference.sphere g v r))

(* The forest kernel on radius-r balls, r in 0..5, alternating between
   cycle:16 and a random tree on 4096 vertices, each under a random
   instance's spec and pinning.  It has no frozen reference: the same
   call on a freshly spawned domain, whose scratch no other call has
   touched, is the reference. *)
let test_forest_hygiene () =
  let rng = Rng.of_int 29 in
  let small = random_instance rng (Generators.cycle 16)
  and large = random_instance rng (Generators.random_tree rng 4096) in
  let queries =
    Array.init 24 (fun i ->
        let inst = if i mod 2 = 0 then small else large in
        let g = Instance.graph inst in
        let v = Rng.int rng (Graph.n g) in
        (inst.Instance.spec, Graph.ball g v (Rng.int rng 6), inst.Instance.pinned, v))
  in
  let answer (spec, ball, tau, v) =
    match Forest_dp.ball_marginal spec ~ball tau v with
    | Forest_dp.Marginal m -> Some (Option.map dist_bits m)
    | Forest_dp.Not_forest -> None
  in
  scratch_hygiene queries
    ~raising:(fun (spec, ball, tau, v) ->
      ignore (Forest_dp.ball_marginal spec ~ball:(Array.append ball [| v |]) tau v))
    ~answer
    ~reference:(fun q -> Domain.join (Domain.spawn (fun () -> answer q)))

let suite =
  [
    Alcotest.test_case "ball allocates O(1) words at any n" `Quick test_ball_allocation;
    Alcotest.test_case "a radius-1000 ball allocates O(1) words" `Quick
      test_wide_ball_allocation;
    Alcotest.test_case "nested ball queries" `Quick test_nested_ball;
    QCheck_alcotest.to_alcotest qcheck_graph;
    QCheck_alcotest.to_alcotest qcheck_annulus;
    QCheck_alcotest.to_alcotest qcheck_ssm_infer;
    QCheck_alcotest.to_alcotest qcheck_gather;
    QCheck_alcotest.to_alcotest qcheck_slocal;
    Alcotest.test_case "Stamp: keys, nesting, raises and growth" `Quick test_stamp;
    Alcotest.test_case "ball scratch: after a raise, n=16/4096, 2 domains" `Quick
      test_ball_hygiene;
    Alcotest.test_case "forest DP scratch: after a raise, n=16/4096, 2 domains" `Quick
      test_forest_hygiene;
  ]
