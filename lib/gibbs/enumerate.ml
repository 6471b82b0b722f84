module Graph = Ls_graph.Graph
module Dist = Ls_dist.Dist

(* Index of [x] in the sorted array [a], or -1. *)
let find a x =
  let rec bin lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) = x then mid else if a.(mid) < x then bin (mid + 1) hi else bin lo mid
  in
  bin 0 (Array.length a)

let mem members u = find members u >= 0

let fold_completions spec ~members tau ~init ~f =
  Array.iteri
    (fun i u ->
      if i > 0 && members.(i - 1) >= u then
        invalid_arg "Enumerate.fold_completions: members must be sorted and distinct")
    members;
  let q = Spec.q spec in
  let factors = Spec.factors spec in
  (* The relevant factors (scope inside the set), in ascending factor id:
     each is found once, from the smallest vertex of its scope. *)
  let ids = ref [] in
  Array.iter
    (fun u ->
      Array.iter
        (fun i ->
          let scope = factors.(i).Spec.scope in
          if scope.(0) = u && Array.for_all (mem members) scope then ids := i :: !ids)
        (Spec.factors_of_vertex spec u))
    members;
  let ids = Array.of_list !ids in
  Array.sort Int.compare ids;
  let scratch = Array.copy tau in
  (* Track, per relevant factor, how many of its scope vertices are still
     unassigned; a factor becomes evaluable exactly when this hits 0.  Each
     factor owns one values buffer, refilled at every evaluation. *)
  let remaining =
    Array.map
      (fun i ->
        Array.fold_left
          (fun acc v -> if scratch.(v) = Config.unassigned then acc + 1 else acc)
          0 factors.(i).Spec.scope)
      ids
  in
  let values = Array.map (fun i -> Array.make (Array.length factors.(i).Spec.scope) 0) ids in
  let eval j =
    let fa = factors.(ids.(j)) and vals = values.(j) in
    let scope = fa.Spec.scope in
    for k = 0 to Array.length scope - 1 do
      vals.(k) <- scratch.(scope.(k))
    done;
    fa.Spec.table vals
  in
  (* Prefix weight: factors already fully assigned by tau. *)
  let prefix = ref 1. in
  Array.iteri (fun j r -> if r = 0 then prefix := !prefix *. eval j) remaining;
  if !prefix <= 0. then init
  else begin
    let free = ref [] in
    for idx = Array.length members - 1 downto 0 do
      let v = members.(idx) in
      if scratch.(v) = Config.unassigned then free := v :: !free
    done;
    let free = Array.of_list !free in
    (* The relevant factors each free vertex completes or advances, in
       ascending factor id. *)
    let touched =
      Array.map
        (fun v ->
          Spec.factors_of_vertex spec v |> Array.to_list
          |> List.filter_map (fun i ->
                 let j = find ids i in
                 if j >= 0 then Some j else None)
          |> Array.of_list)
        free
    in
    let k = Array.length free in
    let acc = ref init in
    let rec go idx w =
      if w <= 0. then ()
      else if idx = k then acc := f !acc scratch w
      else begin
        let v = free.(idx) and touched = touched.(idx) in
        for c = 0 to q - 1 do
          scratch.(v) <- c;
          (* Multiply in the factors completed by this assignment. *)
          let dw = ref 1. in
          for t = 0 to Array.length touched - 1 do
            let j = touched.(t) in
            remaining.(j) <- remaining.(j) - 1;
            if remaining.(j) = 0 then dw := !dw *. eval j
          done;
          go (idx + 1) (w *. !dw);
          for t = 0 to Array.length touched - 1 do
            let j = touched.(t) in
            remaining.(j) <- remaining.(j) + 1
          done;
          scratch.(v) <- Config.unassigned
        done
      end
    in
    go 0 !prefix;
    !acc
  end

let all_members spec = Array.init (Graph.n (Spec.graph spec)) Fun.id

let partition spec tau =
  fold_completions spec ~members:(all_members spec) tau ~init:0. ~f:(fun acc _ w ->
      acc +. w)

let feasible spec tau = partition spec tau > 0.

let distribution spec tau =
  let support =
    fold_completions spec ~members:(all_members spec) tau ~init:[]
      ~f:(fun acc sigma w -> (Array.copy sigma, w) :: acc)
  in
  let z = List.fold_left (fun acc (_, w) -> acc +. w) 0. support in
  if not (z > 0.) then failwith "Enumerate.distribution: infeasible pinning";
  List.rev_map (fun (sigma, w) -> (sigma, w /. z)) support

let marginal_weights spec ~members tau v =
  let weights = Array.make (Spec.q spec) 0. in
  let (_ : unit) =
    fold_completions spec ~members tau ~init:() ~f:(fun () sigma w ->
        weights.(sigma.(v)) <- weights.(sigma.(v)) +. w)
  in
  if Array.for_all (fun w -> w <= 0.) weights then None
  else Some (Dist.of_weights weights)

let marginal spec tau v =
  let q = Spec.q spec in
  if Config.is_assigned tau v then
    if feasible spec tau then Some (Dist.point q tau.(v)) else None
  else marginal_weights spec ~members:(all_members spec) tau v

let ball_marginal spec ~ball tau v =
  let members = Array.copy ball in
  Array.sort Int.compare members;
  Array.iteri
    (fun i u ->
      if i > 0 && members.(i - 1) = u then
        invalid_arg "Enumerate.ball_marginal: duplicate vertex in ball")
    members;
  if not (mem members v) then invalid_arg "Enumerate.ball_marginal: v not in ball";
  if Config.is_assigned tau v then Some (Dist.point (Spec.q spec) tau.(v))
  else marginal_weights spec ~members tau v

let count_feasible spec =
  let n = Graph.n (Spec.graph spec) in
  fold_completions spec ~members:(all_members spec) (Config.empty n) ~init:0
    ~f:(fun acc _ _ -> acc + 1)
