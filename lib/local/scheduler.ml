module Graph = Ls_graph.Graph

let src = Logs.Src.create "locsample.scheduler" ~doc:"SLOCAL-to-LOCAL compiler (Lemma 3.1)"

module Log = (val Logs.src_log src : Logs.LOG)

type stats = {
  rounds : int;
  decomposition_rounds : int;
  colors : int;
  clusters : int;
  max_cluster_radius : int;
  failures : int;
  order : int array;
  failed : bool array;
}

type plan = {
  p_locality : int;
  p_order : int array;
  p_failed : bool array;
  p_rounds : int;
  p_decomposition_rounds : int;
  p_colors : int;
  p_clusters : int;
  p_max_cluster_radius : int;
  p_failures : int;
}

(* The expensive, cacheable half: Linial–Saks decomposition of the
   implicit power graph G^{locality+1}, the realized global ordering, and
   the round bill.  A plan is a pure function of (graph, locality, the
   rng's draw sequence, caps) and holds no reference to the graph or the
   decomposition, so it can sit in an LRU cache for as long as the keying
   seed stays meaningful. *)
let compile_plan ~graph ~locality ~rng ?radius_cap ?phase_cap () =
  let hop = locality + 1 in
  let d = Decomposition.linial_saks ?radius_cap ?phase_cap ~hop graph rng in
  (* Global order: colors in increasing order; within a color, clusters in
     index order; within a cluster, members by G^hop distance from the
     center, ties by id — any fixed rule yields a valid adversarial
     ordering pi.  Every member lies within the cluster radius of its
     center, so a G^hop ball of that radius reaches them all; a member
     [v] at distance [dist] sorts by the key [dist * n + v]. *)
  let n = Graph.n graph in
  let order = ref [] in
  let by_color = Array.make d.Decomposition.num_colors [] in
  Array.iteri
    (fun idx cl ->
      by_color.(cl.Decomposition.color) <- idx :: by_color.(cl.Decomposition.color))
    d.Decomposition.clusters;
  Array.iter
    (fun idxs ->
      List.iter
        (fun idx ->
          let cl = d.Decomposition.clusters.(idx) in
          let keys = Array.make (Array.length cl.Decomposition.members) 0 in
          let k = ref 0 in
          Graph.iter_power_ball graph ~k:hop cl.Decomposition.center
            cl.Decomposition.radius
            (fun v dist ->
              if d.Decomposition.cluster_of.(v) = idx then begin
                keys.(!k) <- (dist * n) + v;
                incr k
              end);
          Array.sort Int.compare keys;
          Array.iter (fun key -> order := (key mod n) :: !order) keys)
        (List.rev idxs))
    by_color;
  let failed_vertices = ref [] in
  Array.iteri
    (fun v is_failed -> if is_failed then failed_vertices := v :: !failed_vertices)
    d.Decomposition.failed;
  let order =
    Array.of_list (List.rev_append !order (List.rev !failed_vertices))
  in
  (* Round accounting (documented in the interface). *)
  let decomposition_rounds =
    d.Decomposition.phase_cap * d.Decomposition.radius_cap * hop
  in
  let sim_rounds = ref 0 in
  for c = 0 to d.Decomposition.num_colors - 1 do
    let r_c = Decomposition.max_radius_of_color d c in
    sim_rounds := !sim_rounds + (2 * ((r_c * hop) + locality))
  done;
  let max_cluster_radius =
    Array.fold_left
      (fun acc cl -> max acc cl.Decomposition.radius)
      0 d.Decomposition.clusters
  in
  let failures =
    Array.fold_left
      (fun acc f -> if f then acc + 1 else acc)
      0 d.Decomposition.failed
  in
  {
    p_locality = locality;
    p_order = order;
    p_failed = Array.copy d.Decomposition.failed;
    p_rounds = decomposition_rounds + !sim_rounds;
    p_decomposition_rounds = decomposition_rounds;
    p_colors = d.Decomposition.num_colors;
    p_clusters = Array.length d.Decomposition.clusters;
    p_max_cluster_radius = max_cluster_radius;
    p_failures = failures;
  }

(* Execute a payload on a (possibly cached) plan.  Emission order matches
   the historical [compile]: payload first, then the debug line, the
   Decomposition trace event and the metrics bump — so a cache hit is
   observationally identical to a fresh compilation, trace included. *)
let run_plan plan ?trace ~run () =
  run ~order:plan.p_order;
  Log.debug (fun m ->
      m "compile: locality=%d colors=%d clusters=%d rounds=%d (decomposition %d)"
        plan.p_locality plan.p_colors plan.p_clusters plan.p_rounds
        plan.p_decomposition_rounds);
  (match Ls_obs.Trace.resolve trace with
  | Some s ->
      Ls_obs.Trace.emit s
        (Ls_obs.Trace.Decomposition
           {
             locality = plan.p_locality;
             colors = plan.p_colors;
             clusters = plan.p_clusters;
             failures = plan.p_failures;
             max_cluster_radius = plan.p_max_cluster_radius;
             rounds = plan.p_rounds;
             decomposition_rounds = plan.p_decomposition_rounds;
           })
  | None -> ());
  Ls_obs.Metrics.(bump decompositions);
  Ls_obs.Metrics.(add decomposition_failures) plan.p_failures;
  {
    rounds = plan.p_rounds;
    decomposition_rounds = plan.p_decomposition_rounds;
    colors = plan.p_colors;
    clusters = plan.p_clusters;
    max_cluster_radius = plan.p_max_cluster_radius;
    failures = plan.p_failures;
    order = plan.p_order;
    failed = plan.p_failed;
  }

let compile ~graph ~locality ~rng ?radius_cap ?phase_cap ?trace ~run () =
  let plan = compile_plan ~graph ~locality ~rng ?radius_cap ?phase_cap () in
  run_plan plan ?trace ~run ()
