(* Tests for the LOCAL/SLOCAL runtimes, network decomposition and the
   SLOCAL->LOCAL scheduler. *)

module Graph = Ls_graph.Graph
module Generators = Ls_graph.Generators
module Rng = Ls_rng.Rng
module Network = Ls_local.Network
module Slocal = Ls_local.Slocal
module Decomposition = Ls_local.Decomposition
module Scheduler = Ls_local.Scheduler

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* --- Network: gather --- *)

let test_gather_basic () =
  let g = Generators.path 5 in
  let net = Network.create g ~inputs:[| 10; 11; 12; 13; 14 |] ~seed:1L in
  let view = Network.gather net ~v:2 ~radius:1 in
  Alcotest.check (Alcotest.array Alcotest.int) "vertices" [| 1; 2; 3 |]
    view.Network.vertices;
  Alcotest.check (Alcotest.array Alcotest.int) "inputs by position"
    [| 11; 12; 13 |] view.Network.view_inputs;
  Alcotest.check (Alcotest.array Alcotest.int) "distances by position"
    [| 1; 0; 1 |] view.Network.dist_center

let test_gather_radius_zero () =
  let g = Generators.cycle 4 in
  let net = Network.create g ~inputs:(Array.make 4 ()) ~seed:2L in
  let view = Network.gather net ~v:0 ~radius:0 in
  checki "only self" 1 (Array.length view.Network.vertices)

let test_rounds_accounting () =
  let g = Generators.cycle 4 in
  let net = Network.create g ~inputs:(Array.make 4 ()) ~seed:3L in
  checki "zero initially" 0 (Network.rounds net);
  Network.charge net 3;
  Network.charge net 2;
  checki "accumulates" 5 (Network.rounds net);
  Network.reset_rounds net;
  checki "reset" 0 (Network.rounds net)

let test_node_rngs_independent () =
  let g = Generators.path 3 in
  let net = Network.create g ~inputs:(Array.make 3 ()) ~seed:4L in
  let a = Rng.float (Network.rng net 0) and b = Rng.float (Network.rng net 1) in
  checkb "different streams" true (a <> b)

(* --- Network: genuine message passing vs gather --- *)

let views_equal (a : 'i Network.view) (b : 'i Network.view) =
  a.Network.vertices = b.Network.vertices
  && a.Network.view_inputs = b.Network.view_inputs
  && a.Network.dist_center = b.Network.dist_center

let test_flood_matches_gather () =
  let rng = Rng.create 5L in
  List.iter
    (fun g ->
      let n = Graph.n g in
      let inputs = Array.init n (fun v -> v * 7) in
      let net = Network.create g ~inputs ~seed:6L in
      List.iter
        (fun radius ->
          let flooded = Network.flood_views net ~radius in
          for v = 0 to n - 1 do
            let direct = Network.gather net ~v ~radius in
            checkb "flooded view equals direct gather" true
              (views_equal flooded.(v) direct)
          done)
        [ 0; 1; 2; 3 ])
    [
      Generators.path 6;
      Generators.cycle 7;
      Generators.grid 3 3;
      Generators.erdos_renyi rng ~n:10 ~p:0.3;
    ]

let test_broadcast_counts_rounds () =
  let g = Generators.cycle 5 in
  let net = Network.create g ~inputs:(Array.make 5 ()) ~seed:7L in
  let (_ : int array) =
    Network.run_broadcast net ~rounds:4
      ~size:(fun _ -> 64)
      ~init:(fun v -> v)
      ~emit:(fun _ s -> s)
      ~merge:(fun _ s inbox -> List.fold_left min s inbox)
      ()
  in
  checki "charged" 4 (Network.rounds net);
  (* 5 nodes x degree 2 x 64 bits x 4 rounds. *)
  checki "bits metered" (5 * 2 * 64 * 4) (Network.bits net)

let test_broadcast_min_propagation () =
  (* After r rounds, each node knows the min id within distance r. *)
  let g = Generators.path 6 in
  let net = Network.create g ~inputs:(Array.make 6 ()) ~seed:8L in
  let states =
    Network.run_broadcast net ~rounds:2
      ~init:(fun v -> v)
      ~emit:(fun _ s -> s)
      ~merge:(fun _ s inbox -> List.fold_left min s inbox)
      ()
  in
  Alcotest.check (Alcotest.array Alcotest.int) "min within distance 2"
    [| 0; 0; 0; 1; 2; 3 |] states

(* --- SLOCAL --- *)

let test_slocal_locality_enforced () =
  let g = Generators.path 5 in
  let rt = Slocal.create g ~seed:9L ~init:(fun _ -> 0) in
  Slocal.process rt ~v:0 ~radius:1 (fun ctx ->
      ignore (Slocal.read ctx 1);
      Alcotest.check_raises "read beyond radius"
        (Invalid_argument
           "Slocal.read: node 2 is at distance 2 > radius 1 from 0") (fun () ->
          ignore (Slocal.read ctx 2)))

let test_slocal_write_and_passes () =
  let g = Generators.path 4 in
  let rt = Slocal.create g ~seed:10L ~init:(fun _ -> 0) in
  Slocal.run_pass rt ~order:[| 0; 1; 2; 3 |] ~radius:1 (fun ctx ->
      Slocal.write ctx (Slocal.center ctx) (Slocal.center ctx * 2));
  Alcotest.check (Alcotest.array Alcotest.int) "writes" [| 0; 2; 4; 6 |]
    (Slocal.states rt);
  Slocal.run_pass rt ~order:[| 3; 2; 1; 0 |] ~radius:2 (fun ctx ->
      ignore (Slocal.read ctx (Slocal.center ctx)));
  Alcotest.check (Alcotest.list Alcotest.int) "pass localities" [ 1; 2 ]
    (Slocal.pass_localities rt);
  checki "single-pass bound (Lemma 4.4)" (1 + (2 * 2)) (Slocal.single_pass_locality rt)

let test_slocal_sequential_dependency () =
  (* Each node copies its predecessor's value + 1: order matters and reads
     must see earlier writes. *)
  let g = Generators.path 4 in
  let rt = Slocal.create g ~seed:11L ~init:(fun _ -> 0) in
  Slocal.run_pass rt ~order:[| 0; 1; 2; 3 |] ~radius:1 (fun ctx ->
      let v = Slocal.center ctx in
      let prev = if v = 0 then 0 else Slocal.read ctx (v - 1) in
      Slocal.write ctx v (prev + 1));
  Alcotest.check (Alcotest.array Alcotest.int) "prefix sums" [| 1; 2; 3; 4 |]
    (Slocal.states rt)

(* --- decomposition --- *)

let test_decomposition_valid_many () =
  let rng = Rng.create 12L in
  List.iter
    (fun g ->
      for _trial = 1 to 5 do
        let d = Decomposition.linial_saks g rng in
        checkb "valid decomposition" true (Decomposition.is_valid g d)
      done)
    [
      Generators.path 20;
      Generators.cycle 25;
      Generators.grid 5 6;
      Generators.erdos_renyi rng ~n:30 ~p:0.15;
      Generators.complete 8;
      Generators.random_tree rng 40;
    ]

let test_decomposition_covers_whp () =
  (* With default caps, failures should be rare; over several runs on a
     40-vertex graph, demand at least one full cover. *)
  let rng = Rng.create 13L in
  let g = Generators.cycle 40 in
  let full_covers = ref 0 in
  for _trial = 1 to 10 do
    let d = Decomposition.linial_saks g rng in
    if Array.for_all not d.Decomposition.failed then incr full_covers
  done;
  checkb "mostly full covers" true (!full_covers >= 8)

let test_decomposition_tiny_caps_fail () =
  (* phase_cap 0 clusters nothing: all vertices must be flagged, never
     silently dropped. *)
  let rng = Rng.create 14L in
  let g = Generators.path 10 in
  let d = Decomposition.linial_saks ~phase_cap:0 g rng in
  checki "all failed" 10
    (Array.fold_left (fun acc f -> if f then acc + 1 else acc) 0 d.Decomposition.failed)

let test_decomposition_colors_logarithmic () =
  let rng = Rng.create 15L in
  let g = Generators.cycle 64 in
  let d = Decomposition.linial_saks g rng in
  checkb "colors within cap" true
    (d.Decomposition.num_colors <= Decomposition.default_phase_cap 64)

(* --- scheduler --- *)

let test_scheduler_order_is_permutation () =
  let rng = Rng.create 16L in
  let g = Generators.cycle 15 in
  let seen_order = ref [||] in
  let stats =
    Scheduler.compile ~graph:g ~locality:1 ~rng
      ~run:(fun ~order -> seen_order := Array.copy order)
      ()
  in
  let sorted = Array.copy !seen_order in
  Array.sort compare sorted;
  Alcotest.check (Alcotest.array Alcotest.int) "order is a permutation"
    (Array.init 15 (fun i -> i))
    sorted;
  checkb "rounds positive" true (stats.Scheduler.rounds > 0);
  checkb "stats order matches" true (stats.Scheduler.order = !seen_order)

let test_scheduler_same_color_clusters_separated () =
  (* Clusters of one color must be > locality apart in G, so parallel
     simulation of SLOCAL steps with that read radius is safe. *)
  let rng = Rng.create 17L in
  let locality = 2 in
  let g = Generators.grid 4 6 in
  let hop = locality + 1 in
  let d = Decomposition.linial_saks ~hop g rng in
  checkb "decomposition of the power graph is valid" true
    (Decomposition.is_valid ~hop g d);
  checkb "radii are in G^hop hops, not G's" false (Decomposition.is_valid g d);
  (* Non-adjacency in G^{locality+1} == distance > locality+1 in G. *)
  Array.iteri
    (fun i ci ->
      Array.iteri
        (fun j cj ->
          if i < j && ci >= 0 && cj >= 0 && ci <> cj then
            if d.Decomposition.color_of.(i) = d.Decomposition.color_of.(j) then
              checkb "separated" true (Graph.dist g i j > locality + 1))
        d.Decomposition.cluster_of)
    d.Decomposition.cluster_of

let test_scheduler_rounds_scale () =
  (* Rounds should grow with locality (both decomposition and simulation
     parts are multiplied by r+1). *)
  let g = Generators.cycle 20 in
  let run ~order:_ = () in
  let r1 =
    (Scheduler.compile ~graph:g ~locality:1 ~rng:(Rng.create 18L) ~run ()).Scheduler.rounds
  in
  let r4 =
    (Scheduler.compile ~graph:g ~locality:4 ~rng:(Rng.create 18L) ~run ()).Scheduler.rounds
  in
  checkb "more locality, more rounds" true (r4 > r1)

let test_scheduler_failure_path () =
  (* With a zero phase budget nothing gets clustered: every node must be
     flagged, yet the order still covers every vertex (failed vertices are
     appended, their outputs gated by the flags). *)
  let rng = Rng.create 23L in
  let g = Generators.cycle 10 in
  let stats =
    Scheduler.compile ~graph:g ~locality:1 ~rng ~phase_cap:0
      ~run:(fun ~order ->
        let sorted = Array.copy order in
        Array.sort compare sorted;
        Alcotest.check (Alcotest.array Alcotest.int) "order still total"
          (Array.init 10 (fun i -> i))
          sorted)
      ()
  in
  checki "all failed" 10 stats.Scheduler.failures;
  checkb "flags set" true (Array.for_all (fun f -> f) stats.Scheduler.failed)

(* The plan never builds G^{locality+1}: at locality 400 the power graph
   would hold 800 neighbours per vertex, so a plan that allocates a
   small constant times n words cannot have materialised it. *)
let test_scheduler_plan_memory () =
  let n = 65536 and locality = 400 in
  let g = Generators.cycle n in
  ignore (Graph.ball g 0 1);
  let plan, minor, major =
    Test_ball.words (fun () ->
        Scheduler.compile_plan ~graph:g ~locality ~rng:(Rng.create 31L) ())
  in
  checki "every vertex scheduled" n (Array.length plan.Scheduler.p_order);
  let words = minor +. major in
  checkb
    (Printf.sprintf "%.0f words < 128 n" words)
    true
    (words < 128. *. float_of_int n)

let test_flood_views_meter_bits () =
  let g = Generators.cycle 6 in
  let net = Network.create g ~inputs:(Array.make 6 ()) ~seed:29L in
  let (_ : unit Network.view array) = Network.flood_views net ~radius:2 in
  checkb "bits metered on flooding" true (Network.bits net > 0)

let test_reset_bits () =
  (* Repeated trials over one network must not accumulate stale counts:
     reset_bits re-zeroes the meter, and a fault-free re-flood then meters
     exactly the first trial's bits again. *)
  let g = Generators.cycle 6 in
  let net = Network.create g ~inputs:(Array.make 6 ()) ~seed:30L in
  let (_ : unit Network.view array) = Network.flood_views net ~radius:2 in
  let first = Network.bits net in
  checkb "bits metered" true (first > 0);
  Network.reset_bits net;
  checki "meter re-zeroed" 0 (Network.bits net);
  let (_ : unit Network.view array) = Network.flood_views net ~radius:2 in
  checki "fresh trial meters the same bits, not 2x" first (Network.bits net)

let qcheck_decomposition_valid =
  QCheck.Test.make ~name:"Linial-Saks is always a valid decomposition" ~count:30
    QCheck.(pair small_int (int_range 4 25))
    (fun (seed, n) ->
      let rng = Rng.of_int seed in
      let g = Generators.erdos_renyi rng ~n ~p:0.2 in
      let d = Decomposition.linial_saks g rng in
      Decomposition.is_valid g d)

(* --- Differential check: ball-local plan vs whole-graph BFS --- *)

(* The plan path as it stood when every BFS swept the whole graph: the
   power graph materialised from one full BFS per vertex
   ([Test_graph.Reference.power]), candidate election from one full BFS
   per candidate, member ordering from one full BFS per cluster center.
   The ball-local code over the implicit power graph must reproduce it
   exactly. *)
module Reference = struct
  let power = Test_graph.Reference.power

  let linial_saks ?radius_cap ?phase_cap g rng =
    let n = Graph.n g in
    let radius_cap =
      Option.value radius_cap ~default:(Decomposition.default_radius_cap n)
    in
    let phase_cap =
      Option.value phase_cap ~default:(Decomposition.default_phase_cap n)
    in
    let cluster_of = Array.make n (-1) in
    let color_of = Array.make n (-1) in
    let clusters = ref [] in
    let num_clusters = ref 0 in
    let unclustered v = cluster_of.(v) = -1 in
    let phase = ref 0 in
    while !phase < phase_cap && Array.exists (fun c -> c = -1) cluster_of do
      let radii = Array.make n (-1) in
      for v = 0 to n - 1 do
        if unclustered v then radii.(v) <- min (Rng.geometric rng 0.5) radius_cap
      done;
      let best_key = Array.make n (-1, -1) in
      let best_dist = Array.make n max_int in
      for u = 0 to n - 1 do
        if unclustered u then begin
          let key = (radii.(u), u) in
          let d = Graph.bfs_distances g u in
          for v = 0 to n - 1 do
            if unclustered v && d.(v) <= radii.(u) && key > best_key.(v) then begin
              best_key.(v) <- key;
              best_dist.(v) <- d.(v)
            end
          done
        end
      done;
      let members_of = Hashtbl.create 16 in
      for v = 0 to n - 1 do
        if unclustered v then begin
          let r_u, u = best_key.(v) in
          if u >= 0 && best_dist.(v) < r_u then begin
            let prev = try Hashtbl.find members_of u with Not_found -> [] in
            Hashtbl.replace members_of u ((v, best_dist.(v)) :: prev)
          end
        end
      done;
      Hashtbl.iter
        (fun u members ->
          let id = !num_clusters in
          incr num_clusters;
          let vs = Array.of_list (List.map fst members) in
          Array.sort compare vs;
          let radius = List.fold_left (fun acc (_, d) -> max acc d) 0 members in
          Array.iter
            (fun v ->
              cluster_of.(v) <- id;
              color_of.(v) <- !phase)
            vs;
          clusters :=
            { Decomposition.center = u; color = !phase; members = vs; radius }
            :: !clusters)
        members_of;
      incr phase
    done;
    {
      Decomposition.clusters = Array.of_list (List.rev !clusters);
      cluster_of;
      color_of;
      num_colors = !phase;
      failed = Array.map (fun c -> c = -1) cluster_of;
      radius_cap;
      phase_cap;
    }

  let compile_plan ~graph ~locality ~rng ?radius_cap ?phase_cap () =
    let power = power graph (locality + 1) in
    let d = linial_saks ?radius_cap ?phase_cap power rng in
    let order = ref [] in
    let by_color = Array.make d.Decomposition.num_colors [] in
    Array.iteri
      (fun idx cl ->
        let c = cl.Decomposition.color in
        by_color.(c) <- idx :: by_color.(c))
      d.Decomposition.clusters;
    Array.iter
      (fun idxs ->
        List.iter
          (fun idx ->
            let cl = d.Decomposition.clusters.(idx) in
            let dist = Graph.bfs_distances power cl.Decomposition.center in
            let members = Array.copy cl.Decomposition.members in
            Array.sort (fun a b -> compare (dist.(a), a) (dist.(b), b)) members;
            Array.iter (fun v -> order := v :: !order) members)
          (List.rev idxs))
      by_color;
    let failed_vertices = ref [] in
    Array.iteri
      (fun v f -> if f then failed_vertices := v :: !failed_vertices)
      d.Decomposition.failed;
    let decomposition_rounds =
      d.Decomposition.phase_cap * d.Decomposition.radius_cap * (locality + 1)
    in
    let sim_rounds = ref 0 in
    for c = 0 to d.Decomposition.num_colors - 1 do
      let r_c = Decomposition.max_radius_of_color d c in
      sim_rounds := !sim_rounds + (2 * ((r_c * (locality + 1)) + locality))
    done;
    let count f = Array.fold_left (fun acc x -> if f x then acc + 1 else acc) 0 in
    {
      Scheduler.p_locality = locality;
      p_order = Array.of_list (List.rev_append !order (List.rev !failed_vertices));
      p_failed = Array.copy d.Decomposition.failed;
      p_rounds = decomposition_rounds + !sim_rounds;
      p_decomposition_rounds = decomposition_rounds;
      p_colors = d.Decomposition.num_colors;
      p_clusters = Array.length d.Decomposition.clusters;
      p_max_cluster_radius =
        Array.fold_left
          (fun acc cl -> max acc cl.Decomposition.radius)
          0 d.Decomposition.clusters;
      p_failures = count Fun.id d.Decomposition.failed;
    }
end

let qcheck_plan_matches_whole_graph_bfs =
  QCheck.Test.make ~name:"ball-local plan = whole-graph-BFS plan" ~count:150
    QCheck.(
      pair
        (triple (int_range 0 2) (int_range 1 48) small_int)
        (triple (int_range 0 3) (option (int_range (-1) 6)) (option (int_range 1 8))))
    (fun ((family, size, seed), (locality, radius_cap, phase_cap)) ->
      let g =
        match family with
        | 0 ->
            let rng = Rng.of_int (seed + 1000) in
            Generators.erdos_renyi rng ~n:size ~p:(0.3 *. Rng.float rng)
        | 1 -> Generators.cycle (max 3 size)
        | _ -> Generators.grid (1 + (size mod 7)) (1 + (size / 7))
      in
      let k = locality + 1 in
      let same_power =
        Decomposition.linial_saks ?radius_cap ?phase_cap ~hop:k g (Rng.of_int seed)
        = Reference.linial_saks ?radius_cap ?phase_cap (Reference.power g k)
            (Rng.of_int seed)
      in
      let same_decomposition =
        Decomposition.linial_saks ?radius_cap ?phase_cap g (Rng.of_int seed)
        = Reference.linial_saks ?radius_cap ?phase_cap g (Rng.of_int seed)
      in
      let same_plan =
        Scheduler.compile_plan ~graph:g ~locality ~rng:(Rng.of_int seed)
          ?radius_cap ?phase_cap ()
        = Reference.compile_plan ~graph:g ~locality ~rng:(Rng.of_int seed)
            ?radius_cap ?phase_cap ()
      in
      same_power && same_decomposition && same_plan)

let suite =
  [
    Alcotest.test_case "gather basic" `Quick test_gather_basic;
    Alcotest.test_case "gather radius 0" `Quick test_gather_radius_zero;
    Alcotest.test_case "round accounting" `Quick test_rounds_accounting;
    Alcotest.test_case "node rngs independent" `Quick test_node_rngs_independent;
    Alcotest.test_case "flooding = gather" `Quick test_flood_matches_gather;
    Alcotest.test_case "broadcast charges rounds" `Quick test_broadcast_counts_rounds;
    Alcotest.test_case "broadcast min propagation" `Quick test_broadcast_min_propagation;
    Alcotest.test_case "slocal locality enforced" `Quick test_slocal_locality_enforced;
    Alcotest.test_case "slocal passes (Lemma 4.4)" `Quick test_slocal_write_and_passes;
    Alcotest.test_case "slocal sequential dependency" `Quick
      test_slocal_sequential_dependency;
    Alcotest.test_case "decomposition validity" `Quick test_decomposition_valid_many;
    Alcotest.test_case "decomposition covers whp" `Quick test_decomposition_covers_whp;
    Alcotest.test_case "decomposition certifiable failures" `Quick
      test_decomposition_tiny_caps_fail;
    Alcotest.test_case "decomposition color count" `Quick
      test_decomposition_colors_logarithmic;
    Alcotest.test_case "scheduler order" `Quick test_scheduler_order_is_permutation;
    Alcotest.test_case "scheduler separation" `Quick
      test_scheduler_same_color_clusters_separated;
    Alcotest.test_case "scheduler rounds scale" `Quick test_scheduler_rounds_scale;
    Alcotest.test_case "scheduler failure path" `Quick test_scheduler_failure_path;
    Alcotest.test_case "scheduler plan memory is O(n)" `Slow test_scheduler_plan_memory;
    Alcotest.test_case "flooding meters bits" `Quick test_flood_views_meter_bits;
    Alcotest.test_case "reset_bits re-zeroes the meter" `Quick test_reset_bits;
    QCheck_alcotest.to_alcotest qcheck_decomposition_valid;
    QCheck_alcotest.to_alcotest qcheck_plan_matches_whole_graph_bfs;
  ]
