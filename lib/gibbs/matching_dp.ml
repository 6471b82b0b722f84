module Graph = Ls_graph.Graph

type constraint_ = In | Out

let edge_key u v = if u < v then (u, v) else (v, u)

let pin_table g pins =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (u, v, c) ->
      if not (Graph.mem_edge g u v) then
        invalid_arg "Matching_dp: pinned pair is not an edge";
      let key = edge_key u v in
      (match Hashtbl.find_opt tbl key with
      | Some c' when c' <> c -> invalid_arg "Matching_dp: conflicting pins"
      | _ -> ());
      Hashtbl.replace tbl key c)
    pins;
  tbl

(* Per-node DP values for the component rooted at [root]:
   free u  = weight of matchings of T_u with u unmatched (within T_u),
   matched u = weight with u matched inside T_u,
   both rescaled per node; the log of the accumulated rescaling is shared
   by free and matched so their ratio stays exact. *)
type node_values = { free : float; matched : float }

let component_dp g ~lambda ~pins root =
  let n = Graph.n g in
  let parent = Array.make n (-2) in
  let order = ref [] in
  let queue = Queue.create () in
  parent.(root) <- -1;
  Queue.add root queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    order := u :: !order;
    Array.iter
      (fun w ->
        if parent.(w) = -2 then begin
          parent.(w) <- u;
          Queue.add w queue
        end)
      (Graph.neighbors g u)
  done;
  let values = Array.make n { free = 1.; matched = 0. } in
  let logscale = ref 0. in
  List.iter
    (fun u ->
      let children =
        List.filter
          (fun c -> parent.(c) = u)
          (Array.to_list (Graph.neighbors g u))
      in
      let status c = Hashtbl.find_opt pins (edge_key u c) in
      let skip c =
        match status c with
        | Some In -> 0.
        | _ -> values.(c).free +. values.(c).matched
      in
      let use c =
        match status c with Some Out -> 0. | _ -> lambda *. values.(c).free
      in
      let free = List.fold_left (fun acc c -> acc *. skip c) 1. children in
      let matched =
        List.fold_left
          (fun acc j ->
            let term =
              List.fold_left
                (fun t i -> t *. if i = j then use j else skip i)
                1. children
            in
            acc +. term)
          0. children
      in
      let peak = Spec.fmax free matched in
      if peak > 0. then begin
        values.(u) <- { free = free /. peak; matched = matched /. peak };
        logscale := !logscale +. log peak
      end
      else values.(u) <- { free = 0.; matched = 0. })
    !order;
  (values, parent, !logscale)

let check_forest g =
  if not (Graph.is_forest g) then
    invalid_arg "Matching_dp: the graph must be a forest"

let component_roots g =
  let comp = Graph.components g in
  let seen = Hashtbl.create 8 in
  let roots = ref [] in
  Array.iteri
    (fun v c ->
      if not (Hashtbl.mem seen c) then begin
        Hashtbl.replace seen c ();
        roots := v :: !roots
      end)
    comp;
  List.rev !roots

let log_partition g ~lambda ~pins =
  check_forest g;
  let pins = pin_table g pins in
  List.fold_left
    (fun acc root ->
      let values, _, logscale = component_dp g ~lambda ~pins root in
      let z = values.(root).free +. values.(root).matched in
      if z > 0. then acc +. log z +. logscale else neg_infinity)
    0. (component_roots g)

let partition g ~lambda ~pins =
  let lz = log_partition g ~lambda ~pins in
  if lz = neg_infinity then 0. else exp lz

let edge_marginal g ~lambda ~pins (u, v) =
  check_forest g;
  if not (Graph.mem_edge g u v) then
    invalid_arg "Matching_dp.edge_marginal: not an edge";
  let pins = pin_table g pins in
  (* Every other component must still carry positive weight. *)
  let comp = Graph.components g in
  let feasible_elsewhere =
    List.for_all
      (fun root ->
        comp.(root) = comp.(u)
        ||
        let values, _, _ = component_dp g ~lambda ~pins root in
        values.(root).free +. values.(root).matched > 0.)
      (component_roots g)
  in
  if not feasible_elsewhere then None
  else begin
    (* Root the component at u so that v is a child of u; the marginal is
       the v-term of matched(u) over free(u) + matched(u) — the rescaling
       of the children cancels. *)
    let values, parent, _ = component_dp g ~lambda ~pins u in
    assert (parent.(v) = u);
    let children =
      List.filter (fun c -> parent.(c) = u) (Array.to_list (Graph.neighbors g u))
    in
    let status c = Hashtbl.find_opt pins (edge_key u c) in
    let skip c =
      match status c with
      | Some In -> 0.
      | _ -> values.(c).free +. values.(c).matched
    in
    let use c =
      match status c with Some Out -> 0. | _ -> lambda *. values.(c).free
    in
    let numerator =
      List.fold_left (fun t i -> t *. if i = v then use v else skip i) 1. children
    in
    (* Rebuild u's unscaled aggregates from the (commonly-scaled) children so
       the ratio is exact — values.(u) itself was rescaled by its own peak. *)
    let free_raw = List.fold_left (fun acc c -> acc *. skip c) 1. children in
    let matched_raw =
      List.fold_left
        (fun acc j ->
          acc
          +. List.fold_left
               (fun t i -> t *. if i = j then use j else skip i)
               1. children)
        0. children
    in
    let denominator = free_raw +. matched_raw in
    if denominator <= 0. then None else Some (numerator /. denominator)
  end
