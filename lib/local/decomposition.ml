module Graph = Ls_graph.Graph
module Rng = Ls_rng.Rng

let src = Logs.Src.create "locsample.decomposition" ~doc:"Linial-Saks network decomposition"

module Log = (val Logs.src_log src : Logs.LOG)

type cluster = { center : int; color : int; members : int array; radius : int }

type t = {
  clusters : cluster array;
  cluster_of : int array;
  color_of : int array;
  num_colors : int;
  failed : bool array;
  radius_cap : int;
  phase_cap : int;
}

let log2_ceil n =
  let rec go acc p = if p >= n then acc else go (acc + 1) (2 * p) in
  go 0 1

let default_radius_cap n = (2 * log2_ceil (max 2 n)) + 2
let default_phase_cap n = (4 * log2_ceil (max 2 n)) + 4

let linial_saks ?radius_cap ?phase_cap ?(hop = 1) g rng =
  if hop < 1 then invalid_arg "Decomposition.linial_saks: hop must be >= 1";
  let n = Graph.n g in
  let radius_cap = Option.value radius_cap ~default:(default_radius_cap n) in
  let phase_cap = Option.value phase_cap ~default:(default_phase_cap n) in
  let cluster_of = Array.make n (-1) in
  let color_of = Array.make n (-1) in
  let clusters = ref [] in
  let num_clusters = ref 0 in
  let unclustered v = cluster_of.(v) = -1 in
  let phases_used = ref 0 in
  let phase = ref 0 in
  (* The still-unclustered vertices in increasing id are
     [pending.(0 .. live-1)].  Every per-phase loop runs over them alone,
     in the order a sweep of 0..n-1 would, so a phase costs its
     candidates' balls rather than n. *)
  let pending = Array.init n Fun.id and live = ref n in
  let radii = Array.make n 0 in
  let best_r = Array.make n (-1) in
  let best_u = Array.make n (-1) in
  let best_dist = Array.make n max_int in
  while !phase < phase_cap && !live > 0 do
    incr phases_used;
    (* Draw truncated geometric radii for the still-unclustered vertices. *)
    for i = 0 to !live - 1 do
      let v = pending.(i) in
      radii.(v) <- min (Rng.geometric rng 0.5) radius_cap;
      best_r.(v) <- -1;
      best_u.(v) <- -1;
      best_dist.(v) <- max_int
    done;
    (* Candidate election: per vertex, the best (r_u, u) with d(u,v) <= r_u
       among unclustered u, d measured in G^hop.  One host search from
       each candidate center u, cut at hop·r_u.  Candidates are visited in
       increasing id, so a later u wins a tie on r_u exactly as the
       lexicographic key (r_u, u) says; the order of visits inside a ball
       does not matter, as each v is visited once per candidate. *)
    for i = 0 to !live - 1 do
      let u = pending.(i) in
      let r_u = radii.(u) in
      Graph.iter_power_ball g ~k:hop u r_u (fun v d ->
          if unclustered v && r_u >= best_r.(v) then begin
            best_r.(v) <- r_u;
            best_u.(v) <- u;
            best_dist.(v) <- d
          end)
    done;
    (* Strict-interior vertices join their winner's cluster this phase. *)
    let members_of = Hashtbl.create 16 in
    for i = 0 to !live - 1 do
      let v = pending.(i) in
      let r_u = best_r.(v) and u = best_u.(v) in
      if u >= 0 && best_dist.(v) < r_u then begin
        let prev = try Hashtbl.find members_of u with Not_found -> [] in
        Hashtbl.replace members_of u ((v, best_dist.(v)) :: prev)
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
        clusters := { center = u; color = !phase; members = vs; radius } :: !clusters)
      members_of;
    (* Keep the still-unclustered prefix, in order, in place. *)
    let kept = ref 0 in
    for i = 0 to !live - 1 do
      let v = pending.(i) in
      if unclustered v then begin
        pending.(!kept) <- v;
        incr kept
      end
    done;
    live := !kept;
    incr phase
  done;
  let failed = Array.map (fun c -> c = -1) cluster_of in
  Log.debug (fun m ->
      m "linial-saks: n=%d phases=%d clusters=%d failed=%d (caps: radius=%d phases=%d)"
        n !phases_used !num_clusters
        (Array.fold_left (fun a f -> if f then a + 1 else a) 0 failed)
        radius_cap phase_cap);
  {
    clusters = Array.of_list (List.rev !clusters);
    cluster_of;
    color_of;
    num_colors = !phases_used;
    failed;
    radius_cap;
    phase_cap;
  }

let is_valid ?(hop = 1) g d =
  let n = Graph.n g in
  let ok = ref true in
  (* Membership consistency. *)
  let seen = Array.make n false and reached = Array.make n (-1) in
  Array.iteri
    (fun idx cl ->
      Array.iter
        (fun v ->
          if seen.(v) then ok := false;
          seen.(v) <- true;
          if d.cluster_of.(v) <> idx then ok := false;
          if d.color_of.(v) <> cl.color then ok := false)
        cl.members;
      if cl.radius > d.radius_cap then ok := false;
      (* Weak radius: one G^hop ball of the cluster's radius around its
         center must reach every member. *)
      Graph.iter_power_ball g ~k:hop cl.center cl.radius (fun v _ -> reached.(v) <- idx);
      Array.iter (fun v -> if reached.(v) <> idx then ok := false) cl.members)
    d.clusters;
  for v = 0 to n - 1 do
    if d.failed.(v) then begin
      if seen.(v) then ok := false
    end
    else if not seen.(v) then ok := false
  done;
  (* Same-color clusters must be non-adjacent in G^hop: no two of them
     within host distance [hop]. *)
  for u = 0 to n - 1 do
    let cu = d.cluster_of.(u) in
    if cu >= 0 then
      Graph.iter_ball g u hop (fun v _ ->
          let cv = d.cluster_of.(v) in
          if cv >= 0 && cv <> cu && d.color_of.(u) = d.color_of.(v) then ok := false)
  done;
  !ok

let max_radius_of_color d color =
  Array.fold_left
    (fun acc cl -> if cl.color = color then max acc cl.radius else acc)
    0 d.clusters
