module Graph = Ls_graph.Graph
module Dist = Ls_dist.Dist

let supported spec =
  Spec.tables spec <> None && Graph.max_degree (Spec.graph spec) <= 2

(* Walk a degree<=2 component starting at [start]: the vertex sequence and
   whether it closes into a cycle.  Cycle orders begin at [start]; path
   orders begin at an endpoint of the component. *)
let component_order g start =
  let rec endpoint u prev =
    let next =
      Array.fold_left
        (fun acc w -> if w <> prev then Some w else acc)
        None (Graph.neighbors g u)
    in
    match next with
    | None -> (u, false)
    | Some w -> if w = start then (u, true) else endpoint w u
  in
  match Graph.degree g start with
  | 0 -> ([ start ], false)
  | d ->
      let is_cycle =
        if d = 2 then snd (endpoint (Graph.neighbors g start).(0) start)
        else false
      in
      let rec collect u prev acc stop =
        let next =
          Array.fold_left
            (fun acc' w -> if w <> prev then Some w else acc')
            None (Graph.neighbors g u)
        in
        match next with
        | Some w when Some w <> stop -> collect w u (w :: acc) stop
        | _ -> List.rev acc
      in
      if is_cycle then
        (* start, then around the cycle until we would return to start. *)
        (collect (Graph.neighbors g start).(0) start
           [ (Graph.neighbors g start).(0); start ]
           (Some start),
         true)
      else begin
        let e =
          if d = 1 then start else fst (endpoint (Graph.neighbors g start).(0) start)
        in
        (collect e (-1) [ e ] None, false)
      end

let mat_vec m v q =
  Array.init q (fun i ->
      let acc = ref 0. in
      for j = 0 to q - 1 do
        acc := !acc +. (m.(i).(j) *. v.(j))
      done;
      !acc)

let vec_mat v m q =
  Array.init q (fun j ->
      let acc = ref 0. in
      for i = 0 to q - 1 do
        acc := !acc +. (v.(i) *. m.(i).(j))
      done;
      !acc)

let mat_mul a b q =
  Array.init q (fun i ->
      Array.init q (fun j ->
          let acc = ref 0. in
          for k = 0 to q - 1 do
            acc := !acc +. (a.(i).(k) *. b.(k).(j))
          done;
          !acc))

let rescale_vec v =
  let peak = Spec.peak v 0 (Array.length v) in
  if peak > 0. then (Array.map (fun x -> x /. peak) v, log peak) else (v, 0.)

let rescale_mat m =
  (* The fold over row peaks is the fold over every entry: the first
     NaN wins either way, and otherwise both are the largest entry. *)
  let peak =
    Array.fold_left (fun acc row -> Spec.fmax acc (Spec.peak row 0 (Array.length row))) 0. m
  in
  if peak > 0. then (Array.map (Array.map (fun x -> x /. peak)) m, log peak)
  else (m, 0.)

let build spec tau =
  let tb = Option.get (Spec.tables spec) in
  let q = Spec.q spec in
  let diag u =
    Array.init q (fun c ->
        if Config.is_assigned tau u && tau.(u) <> c then 0.
        else tb.Spec.vertex.((u * q) + c))
  in
  (* The slot [u -> w] (at most two to scan), [u]'s colour first. *)
  let edge u w =
    let s = ref tb.Spec.off.(u) in
    while tb.Spec.dst.(!s) <> w do
      incr s
    done;
    Array.init q (fun cu -> Array.sub tb.Spec.edge (((!s * q) + cu) * q) q)
  in
  (q, diag, edge)

(* ln Z of one component together with the (unnormalized) marginal vector
   at [target] (which must lie in the component; for cycles it must be the
   first vertex of [order]). *)
let component_eval spec tau order is_cycle ~target =
  let q, diag, edge = build spec tau in
  match order with
  | [] -> invalid_arg "Chain_dp: empty component"
  | [ u ] ->
      let d = diag u in
      let z = Array.fold_left ( +. ) 0. d in
      if z > 0. then (log z, if target = Some u then Some d else None)
      else (neg_infinity, None)
  | first :: _ when is_cycle ->
      assert (target = None || target = Some first);
      (* M = D_0 E_0 D_1 E_1 ... D_{k-1} E_{k-1}; p(x) = M[x][x]. *)
      let rec go m logscale = function
        | [] -> (m, logscale)
        | u :: rest ->
            let next = match rest with [] -> first | w :: _ -> w in
            let d = diag u and e = edge u next in
            let step = Array.init q (fun i -> Array.map (fun x -> d.(i) *. x) e.(i)) in
            let m = mat_mul m step q in
            let m, s = rescale_mat m in
            go m (logscale +. s) rest
      in
      let identity =
        Array.init q (fun i -> Array.init q (fun j -> if i = j then 1. else 0.))
      in
      let m, logscale = go identity 0. order in
      let p = Array.init q (fun x -> m.(x).(x)) in
      let z = Array.fold_left ( +. ) 0. p in
      if z > 0. then (log z +. logscale, if target = None then None else Some p)
      else (neg_infinity, None)
  | _ ->
      (* Open chain: forward row vectors L_j = 1ᵀ D_0 E_0 ... E_{j-1} and
         backward column vectors R_j = E_j D_{j+1} ... D_{k-1} 1, so that
         p_j(x) = L_j(x) · D_j(x,x) · R_j(x). *)
      let vs = Array.of_list order in
      let k = Array.length vs in
      let left = Array.make k [||] in
      let log_left = ref 0. in
      let cur = ref (Array.make q 1.) in
      for j = 0 to k - 1 do
        left.(j) <- !cur;
        if j < k - 1 then begin
          let d = diag vs.(j) in
          let scaled = Array.mapi (fun c x -> x *. d.(c)) !cur in
          let next = vec_mat scaled (edge vs.(j) vs.(j + 1)) q in
          let next, s = rescale_vec next in
          log_left := !log_left +. s;
          cur := next
        end
      done;
      let right = Array.make k [||] in
      let cur = ref (Array.make q 1.) in
      for j = k - 1 downto 0 do
        right.(j) <- !cur;
        if j > 0 then begin
          let d = diag vs.(j) in
          let scaled = Array.mapi (fun c x -> x *. d.(c)) !cur in
          let next = mat_vec (edge vs.(j - 1) vs.(j)) scaled q in
          let next, _s = rescale_vec next in
          cur := next
        end
      done;
      let d_last = diag vs.(k - 1) in
      let z =
        Array.fold_left ( +. ) 0.
          (Array.mapi (fun c x -> x *. d_last.(c)) left.(k - 1))
      in
      if z <= 0. then (neg_infinity, None)
      else begin
        let log_z = log z +. !log_left in
        let marginal =
          match target with
          | None -> None
          | Some t ->
              let j = ref (-1) in
              Array.iteri (fun idx u -> if u = t then j := idx) vs;
              if !j < 0 then None
              else begin
                let d = diag vs.(!j) in
                let p =
                  Array.init q (fun x -> left.(!j).(x) *. d.(x) *. right.(!j).(x))
                in
                if Array.for_all (fun x -> x <= 0.) p then None else Some p
              end
        in
        (log_z, marginal)
      end

let check spec =
  if not (supported spec) then
    invalid_arg "Chain_dp: pairwise spec with max degree <= 2 required"

let component_representatives g =
  let comp = Graph.components g in
  let seen = Hashtbl.create 8 in
  let reps = ref [] in
  Array.iteri
    (fun v c ->
      if not (Hashtbl.mem seen c) then begin
        Hashtbl.replace seen c ();
        reps := v :: !reps
      end)
    comp;
  (comp, List.rev !reps)

let log_partition spec tau =
  check spec;
  let g = Spec.graph spec in
  let _, reps = component_representatives g in
  List.fold_left
    (fun acc start ->
      let order, is_cycle = component_order g start in
      let lz, _ = component_eval spec tau order is_cycle ~target:None in
      acc +. lz)
    0. reps

let marginal spec tau v =
  check spec;
  let g = Spec.graph spec in
  let q = Spec.q spec in
  let comp, reps = component_representatives g in
  let answer = ref None in
  try
    List.iter
      (fun start ->
        if comp.(start) = comp.(v) then begin
          (* Start the walk at v so cycle marginals land on the first
             position; for paths any order works, the target is located by
             index. *)
          let order, is_cycle = component_order g v in
          let lz, m = component_eval spec tau order is_cycle ~target:(Some v) in
          if lz = neg_infinity then raise Exit;
          match m with
          | Some p ->
              answer :=
                Some
                  (if Config.is_assigned tau v then Dist.point q tau.(v)
                   else Dist.of_weights p)
          | None -> raise Exit
        end
        else begin
          let order, is_cycle = component_order g start in
          let lz, _ = component_eval spec tau order is_cycle ~target:None in
          if lz = neg_infinity then raise Exit
        end)
      reps;
    !answer
  with Exit -> None
