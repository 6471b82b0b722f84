(* Tests for graphs, generators, line graphs and hypergraphs. *)

module Graph = Ls_graph.Graph
module Generators = Ls_graph.Generators
module Line_graph = Ls_graph.Line_graph
module Hypergraph = Ls_graph.Hypergraph
module Rng = Ls_rng.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* Frozen reference code the library no longer carries. *)
module Reference = struct
  (* G^k, materialised from one whole-graph BFS per vertex: what the
     Linial–Saks plan decomposed before the power graph became implicit. *)
  let power g k =
    let n = Graph.n g in
    let edges = ref [] in
    for v = 0 to n - 1 do
      let d = Graph.bfs_distances g v in
      for u = v + 1 to n - 1 do
        if d.(u) <= k then edges := (v, u) :: !edges
      done
    done;
    Graph.create ~n ~edges:!edges
end

(* [(u, d)] pairs of [Graph.iter_power_ball g ~k v r], in visit order. *)
let power_ball g k v r =
  let seen = ref [] in
  Graph.iter_power_ball g ~k v r (fun u d -> seen := (u, d) :: !seen);
  List.rev !seen

let test_create_basic () =
  let g = Graph.create ~n:4 ~edges:[ (0, 1); (1, 2); (1, 2); (2, 1) ] in
  checki "n" 4 (Graph.n g);
  checki "duplicates collapsed" 2 (Graph.m g);
  checkb "edge" true (Graph.mem_edge g 0 1);
  checkb "symmetric" true (Graph.mem_edge g 1 0);
  checkb "non-edge" false (Graph.mem_edge g 0 3)

let test_create_invalid () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.create: self-loop")
    (fun () -> ignore (Graph.create ~n:2 ~edges:[ (1, 1) ]));
  Alcotest.check_raises "range" (Invalid_argument "Graph.create: endpoint out of range")
    (fun () -> ignore (Graph.create ~n:2 ~edges:[ (0, 2) ]))

let test_path () =
  let g = Generators.path 5 in
  checki "m" 4 (Graph.m g);
  checki "deg end" 1 (Graph.degree g 0);
  checki "deg mid" 2 (Graph.degree g 2);
  checki "diameter" 4 (Graph.diameter g);
  checki "dist" 3 (Graph.dist g 0 3);
  checkb "forest" true (Graph.is_forest g);
  checkb "connected" true (Graph.connected g)

let test_cycle () =
  let g = Generators.cycle 6 in
  checki "m" 6 (Graph.m g);
  checki "max degree" 2 (Graph.max_degree g);
  checki "diameter" 3 (Graph.diameter g);
  checki "dist wraps" 1 (Graph.dist g 0 5);
  checkb "not forest" false (Graph.is_forest g);
  checkb "triangle-free" true (Graph.is_triangle_free g)

let test_triangle () =
  let g = Generators.cycle 3 in
  checkb "has triangle" false (Graph.is_triangle_free g)

let test_complete () =
  let g = Generators.complete 5 in
  checki "m" 10 (Graph.m g);
  checki "diameter" 1 (Graph.diameter g);
  checkb "not triangle free" false (Graph.is_triangle_free g)

let test_grid_torus () =
  let g = Generators.grid 3 4 in
  checki "n" 12 (Graph.n g);
  checki "m" ((3 * 3) + (2 * 4)) (Graph.m g);
  checki "corner degree" 2 (Graph.degree g 0);
  let t = Generators.torus 3 4 in
  checki "torus regular" 4 (Graph.max_degree t);
  Array.iter (fun v -> checki "4-regular" 4 (Graph.degree t v))
    (Array.init (Graph.n t) (fun i -> i))

let test_star_bipartite () =
  let s = Generators.star 6 in
  checki "hub degree" 5 (Graph.degree s 0);
  checki "diameter" 2 (Graph.diameter s);
  let kb = Generators.complete_bipartite 2 3 in
  checki "m" 6 (Graph.m kb);
  checkb "triangle-free" true (Graph.is_triangle_free kb)

let test_hypercube () =
  let g = Generators.hypercube 4 in
  checki "n" 16 (Graph.n g);
  checki "regular" 4 (Graph.max_degree g);
  checki "diameter" 4 (Graph.diameter g)

let test_complete_tree () =
  let g = Generators.complete_tree ~branching:3 ~depth:2 in
  checki "n" 13 (Graph.n g);
  checkb "forest" true (Graph.is_forest g);
  checki "root degree" 3 (Graph.degree g 0);
  checki "depth = eccentricity of root" 2 (Graph.eccentricity g 0)

let test_ball_sphere () =
  let g = Generators.path 7 in
  Alcotest.check (Alcotest.array Alcotest.int) "ball" [| 1; 2; 3; 4; 5 |]
    (Graph.ball g 3 2);
  Alcotest.check (Alcotest.array Alcotest.int) "sphere" [| 1; 5 |]
    (Graph.sphere g 3 2);
  Alcotest.check (Alcotest.array Alcotest.int) "radius 0" [| 3 |] (Graph.ball g 3 0)

let test_distances_from_set () =
  let g = Generators.path 5 in
  let d = Graph.distances_from_set g [ 0; 4 ] in
  Alcotest.check (Alcotest.array Alcotest.int) "multi-source" [| 0; 1; 2; 1; 0 |] d

let test_induced () =
  let g = Generators.cycle 6 in
  let sub, orig = Graph.induced g [| 0; 1; 2; 4 |] in
  checki "n" 4 (Graph.n sub);
  checki "m" 2 (Graph.m sub);
  Alcotest.check (Alcotest.array Alcotest.int) "orig map" [| 0; 1; 2; 4 |] orig;
  checkb "0-1 kept" true (Graph.mem_edge sub 0 1);
  checkb "4 isolated" true (Graph.degree sub 3 = 0)

let test_power () =
  let g = Generators.path 5 in
  let pairs = Alcotest.(list (pair int int)) in
  Alcotest.check pairs "B_1(0) in P5^2" [ (0, 0); (1, 1); (2, 1) ] (power_ball g 2 0 1);
  Alcotest.check pairs "B_2(0) in P5^2" [ (0, 0); (1, 1); (2, 1); (3, 2); (4, 2) ]
    (power_ball g 2 0 2);
  Alcotest.check pairs "negative radius: empty" [] (power_ball g 2 0 (-1));
  (* Each G^2 edge is seen from both ends: 2·m of P5^2, as materialised. *)
  let degree_sum =
    List.fold_left (fun acc v -> acc + List.length (power_ball g 2 v 1) - 1) 0 [ 0; 1; 2; 3; 4 ]
  in
  checki "m of P5^2" (Graph.m (Reference.power g 2)) (degree_sum / 2);
  Alcotest.check_raises "exponent 0" (Invalid_argument "Graph.iter_power_ball: exponent must be >= 1")
    (fun () -> Graph.iter_power_ball g ~k:0 0 1 (fun _ _ -> ()))

let test_components () =
  let g = Graph.create ~n:5 ~edges:[ (0, 1); (3, 4) ] in
  let comp = Graph.components g in
  checkb "0~1" true (comp.(0) = comp.(1));
  checkb "3~4" true (comp.(3) = comp.(4));
  checkb "0!~3" true (comp.(0) <> comp.(3));
  checkb "disconnected" false (Graph.connected g);
  checki "diameter of disconnected" max_int (Graph.diameter g)

let test_complement_union () =
  let g = Generators.path 3 in
  let c = Graph.complement g in
  checki "complement m" 1 (Graph.m c);
  checkb "0-2" true (Graph.mem_edge c 0 2);
  let u = Graph.union g c in
  checki "union is complete" 3 (Graph.m u)

let test_erdos_renyi () =
  let rng = Rng.create 4L in
  let g = Generators.erdos_renyi rng ~n:50 ~p:0.5 in
  let expected = 0.5 *. float_of_int (50 * 49 / 2) in
  checkb "edge count plausible" true
    (Float.abs (float_of_int (Graph.m g) -. expected) < 120.);
  let g0 = Generators.erdos_renyi rng ~n:20 ~p:0. in
  checki "p=0" 0 (Graph.m g0);
  let g1 = Generators.erdos_renyi rng ~n:20 ~p:1. in
  checki "p=1" 190 (Graph.m g1)

let test_random_tree () =
  let rng = Rng.create 8L in
  for n = 1 to 20 do
    let g = Generators.random_tree rng n in
    checki "n" n (Graph.n g);
    checki "edges" (max 0 (n - 1)) (Graph.m g);
    checkb "forest" true (Graph.is_forest g);
    checkb "connected" true (Graph.connected g)
  done

let test_random_regular () =
  let rng = Rng.create 15L in
  List.iter
    (fun (n, d) ->
      let g = Generators.random_regular rng ~n ~d in
      checki "n" n (Graph.n g);
      for v = 0 to n - 1 do
        checki "degree" d (Graph.degree g v)
      done)
    [ (10, 3); (12, 4); (8, 2); (6, 5) ]

let test_random_regular_invalid () =
  let rng = Rng.create 1L in
  Alcotest.check_raises "odd nd"
    (Invalid_argument "Generators.random_regular: n*d must be even") (fun () ->
      ignore (Generators.random_regular rng ~n:5 ~d:3))

let test_random_bipartite_regular () =
  let rng = Rng.create 77L in
  let g = Generators.random_bipartite_regular rng ~n:8 ~d:3 in
  checki "n" 16 (Graph.n g);
  for v = 0 to 15 do
    checki "degree" 3 (Graph.degree g v)
  done;
  (* Bipartite: all edges cross the parts. *)
  Graph.iter_edges g (fun u v -> checkb "crossing" true ((u < 8) <> (v < 8)))

let test_line_graph_path () =
  let lg = Line_graph.make (Generators.path 4) in
  checki "3 edges -> 3 vertices" 3 (Graph.n lg.Line_graph.line);
  checki "line of path is path" 2 (Graph.m lg.Line_graph.line);
  checki "vertex of edge" 0 (Line_graph.vertex_of_edge lg 1 0)

let test_line_graph_star () =
  let lg = Line_graph.make (Generators.star 5) in
  (* Line graph of a star is a complete graph. *)
  checki "K4" 6 (Graph.m lg.Line_graph.line)

let test_line_graph_cycle () =
  let lg = Line_graph.make (Generators.cycle 5) in
  checki "line of C5 is C5" 5 (Graph.m lg.Line_graph.line);
  checki "5 vertices" 5 (Graph.n lg.Line_graph.line)

let test_hypergraph_basic () =
  let h = Hypergraph.create ~n:6 ~hyperedges:[ [ 0; 1; 2 ]; [ 2; 3; 4 ]; [ 4; 5; 0 ] ] in
  checki "rank" 3 (Hypergraph.rank h);
  checki "deg of 2" 2 (Hypergraph.vertex_degree h 2);
  checki "max degree" 2 (Hypergraph.max_vertex_degree h);
  let ig = Hypergraph.intersection_graph h in
  checki "intersection graph is a triangle" 3 (Graph.m ig)

let test_hypergraph_invalid () =
  Alcotest.check_raises "dup vertex"
    (Invalid_argument "Hypergraph.create: duplicate vertex in hyperedge")
    (fun () -> ignore (Hypergraph.create ~n:3 ~hyperedges:[ [ 0; 0 ] ]))

let test_random_linear_hypergraph () =
  let rng = Rng.create 33L in
  let h = Hypergraph.random_linear rng ~n:30 ~k:10 ~rank:3 in
  checki "k hyperedges" 10 (Hypergraph.num_hyperedges h);
  checki "rank" 3 (Hypergraph.rank h);
  (* Linearity: any two hyperedges share at most one vertex. *)
  for i = 0 to 9 do
    for j = i + 1 to 9 do
      let ei = Hypergraph.hyperedge h i and ej = Hypergraph.hyperedge h j in
      let common =
        Array.fold_left
          (fun acc v -> if Array.exists (( = ) v) ej then acc + 1 else acc)
          0 ei
      in
      checkb "linear" true (common <= 1)
    done
  done

let qcheck_bfs_triangle_inequality =
  QCheck.Test.make ~name:"graph distances satisfy the triangle inequality"
    ~count:100
    QCheck.(pair small_int (int_range 4 12))
    (fun (seed, n) ->
      let rng = Rng.of_int seed in
      let g = Generators.erdos_renyi rng ~n ~p:0.4 in
      let ok = ref true in
      for u = 0 to n - 1 do
        let du = Graph.bfs_distances g u in
        for v = 0 to n - 1 do
          let dv = Graph.bfs_distances g v in
          for w = 0 to n - 1 do
            if du.(v) < max_int && dv.(w) < max_int then
              if du.(w) > du.(v) + dv.(w) then ok := false
          done
        done
      done;
      !ok)

let qcheck_power_distances =
  QCheck.Test.make ~name:"G^k edges are exactly the distance<=k pairs" ~count:60
    QCheck.(triple small_int (int_range 3 10) (int_range 1 3))
    (fun (seed, n, k) ->
      let rng = Rng.of_int seed in
      let g = Generators.erdos_renyi rng ~n ~p:0.3 in
      let gk = Reference.power g k in
      (* Every radius matches a BFS of the materialised G^k: [max_int]
         also lists the unreachable vertices, and [max_int / 2] (a host
         radius past [max_int] for k ≥ 3) must not. *)
      List.for_all
        (fun r ->
          List.for_all
            (fun v ->
              let d = Graph.bfs_distances gk v in
              let seen = power_ball g k v r in
              let dists = List.map snd seen in
              List.for_all (fun (u, du) -> d.(u) = du) seen
              && List.sort compare (List.map fst seen)
                 = List.filter (fun u -> d.(u) <= r) (List.init n Fun.id)
              && dists = List.sort compare dists)
            (List.init n Fun.id))
        [ -1; 0; 1; 2; 3; max_int / 2; max_int ])

let qcheck_iter_ball_matches_bfs =
  QCheck.Test.make ~name:"iter_ball visits B_r(v) with BFS distances, in BFS order"
    ~count:100
    QCheck.(quad small_int (int_range 1 20) (int_range 0 19) (int_range (-1) 5))
    (fun (seed, n, v, r) ->
      let g = Generators.erdos_renyi (Rng.of_int seed) ~n ~p:0.2 in
      let v = v mod n in
      let d = Graph.bfs_distances g v in
      let seen = ref [] in
      Graph.iter_ball g v r (fun u du -> seen := (u, du) :: !seen);
      let seen = List.rev !seen in
      let dists = List.map snd seen in
      List.for_all (fun (u, du) -> d.(u) = du) seen
      && List.sort compare (List.map fst seen)
         = List.filter (fun u -> d.(u) <= r) (List.init n Fun.id)
      && dists = List.sort compare dists)

let qcheck_line_graph_degrees =
  QCheck.Test.make ~name:"line-graph degree = deg(u)+deg(v)-2" ~count:80
    QCheck.(pair small_int (int_range 4 10))
    (fun (seed, n) ->
      let rng = Rng.of_int seed in
      let g = Generators.erdos_renyi rng ~n ~p:0.5 in
      QCheck.assume (Graph.m g > 0);
      let lg = Line_graph.make g in
      let ok = ref true in
      Array.iteri
        (fun i (u, v) ->
          let expected = Graph.degree g u + Graph.degree g v - 2 in
          if Graph.degree lg.Line_graph.line i <> expected then ok := false)
        lg.Line_graph.edge_of_vertex;
      !ok)

let suite =
  [
    Alcotest.test_case "create basics" `Quick test_create_basic;
    Alcotest.test_case "create invalid" `Quick test_create_invalid;
    Alcotest.test_case "path" `Quick test_path;
    Alcotest.test_case "cycle" `Quick test_cycle;
    Alcotest.test_case "triangle" `Quick test_triangle;
    Alcotest.test_case "complete" `Quick test_complete;
    Alcotest.test_case "grid and torus" `Quick test_grid_torus;
    Alcotest.test_case "star and bipartite" `Quick test_star_bipartite;
    Alcotest.test_case "hypercube" `Quick test_hypercube;
    Alcotest.test_case "complete tree" `Quick test_complete_tree;
    Alcotest.test_case "ball and sphere" `Quick test_ball_sphere;
    Alcotest.test_case "multi-source BFS" `Quick test_distances_from_set;
    Alcotest.test_case "induced subgraph" `Quick test_induced;
    Alcotest.test_case "power graph" `Quick test_power;
    Alcotest.test_case "components" `Quick test_components;
    Alcotest.test_case "complement and union" `Quick test_complement_union;
    Alcotest.test_case "erdos-renyi" `Quick test_erdos_renyi;
    Alcotest.test_case "random tree (Prufer)" `Quick test_random_tree;
    Alcotest.test_case "random regular" `Quick test_random_regular;
    Alcotest.test_case "random regular invalid" `Quick test_random_regular_invalid;
    Alcotest.test_case "random bipartite regular" `Quick test_random_bipartite_regular;
    Alcotest.test_case "line graph of path" `Quick test_line_graph_path;
    Alcotest.test_case "line graph of star" `Quick test_line_graph_star;
    Alcotest.test_case "line graph of cycle" `Quick test_line_graph_cycle;
    Alcotest.test_case "hypergraph basics" `Quick test_hypergraph_basic;
    Alcotest.test_case "hypergraph invalid" `Quick test_hypergraph_invalid;
    Alcotest.test_case "random linear hypergraph" `Quick test_random_linear_hypergraph;
    QCheck_alcotest.to_alcotest qcheck_bfs_triangle_inequality;
    QCheck_alcotest.to_alcotest qcheck_power_distances;
    QCheck_alcotest.to_alcotest qcheck_iter_ball_matches_bfs;
    QCheck_alcotest.to_alcotest qcheck_line_graph_degrees;
  ]
