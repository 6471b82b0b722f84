module Gibbs = Ls_gibbs
module Graph = Ls_graph.Graph
module Dist = Ls_dist.Dist
module Config = Gibbs.Config

type oracle = { radius : int; infer : Instance.t -> int -> Dist.t }

let exact inst0 =
  let radius = Instance.n inst0 in
  let infer inst v =
    match Exact.marginal inst v with
    | Some d -> d
    | None -> failwith "Inference.exact: infeasible instance"
  in
  { radius; infer }

(* B_{t+ℓ}(v) and its annulus Γ = {u : t < d(v,u) ≤ t+ℓ, u unpinned},
   both sorted by id, from one radius-(t+ℓ) search. *)
let ball_and_annulus inst ~v ~t =
  let ball, d = Graph.ball_dist (Instance.graph inst) v (t + Instance.locality inst) in
  let acc = ref [] in
  for i = Array.length ball - 1 downto 0 do
    if d.(i) > t && not (Instance.is_pinned inst ball.(i)) then acc := ball.(i) :: !acc
  done;
  (ball, Array.of_list !acc)

let annulus inst ~v ~t = snd (ball_and_annulus inst ~v ~t)

let locally_feasible_extension inst ~vertices =
  let spec = inst.Instance.spec in
  let q = Gibbs.Spec.q spec in
  let sigma = Array.copy inst.Instance.pinned in
  let k = Array.length vertices in
  (* Oblivious pass first; full backtracking only if it gets stuck, so the
     common (locally admissible) case costs O(k·q) feasibility checks. *)
  let rec oblivious i =
    if i = k then true
    else begin
      let v = vertices.(i) in
      let rec first c =
        if c = q then false
        else begin
          sigma.(v) <- c;
          if Gibbs.Spec.locally_feasible spec sigma then true
          else begin
            sigma.(v) <- Config.unassigned;
            first (c + 1)
          end
        end
      in
      first 0 && oblivious (i + 1)
    end
  in
  if oblivious 0 then Some sigma
  else begin
    Array.iter (fun v -> sigma.(v) <- Config.unassigned) vertices;
    let rec backtrack i =
      if i = k then true
      else begin
        let v = vertices.(i) in
        let rec try_value c =
          if c = q then false
          else begin
            sigma.(v) <- c;
            if Gibbs.Spec.locally_feasible spec sigma && backtrack (i + 1) then
              true
            else begin
              sigma.(v) <- Config.unassigned;
              try_value (c + 1)
            end
          end
        in
        try_value 0
      end
    in
    if backtrack 0 then Some sigma else None
  end

let ssm_infer ~t inst v =
  let q = Instance.q inst in
  if Instance.is_pinned inst v then Dist.point q inst.Instance.pinned.(v)
  else begin
    let ball, gamma = ball_and_annulus inst ~v ~t in
    (* The extension is a fresh array of in-alphabet values, so the ball
       instance is built over it as it stands: [Instance.create] would copy
       and re-check all n entries again. *)
    let inst' =
      match locally_feasible_extension inst ~vertices:gamma with
      | Some sigma -> { inst with Instance.pinned = sigma }
      | None -> inst
    in
    match Exact.ball_marginal inst' ~ball v with
    | Some d -> d
    | None -> (
        (* The locally feasible extension was not feasible for the ball
           measure (the spec is not locally admissible here).  Search for
           any annulus assignment giving a usable ball measure; as a last
           resort answer uniform — failures of this branch are visible in
           the E5/E8 error curves. *)
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
                if Gibbs.Spec.locally_feasible live.Instance.spec live.Instance.pinned
                then search (i + 1);
                Chain.undo chain m
              end
            done
        in
        search 0;
        match !found with Some d -> d | None -> Dist.uniform q)
  end

let ssm_oracle ~t inst0 =
  let ell = Instance.locality inst0 in
  { radius = t + (2 * ell); infer = (fun inst v -> ssm_infer ~t inst v) }

let saw_oracle ~depth inst0 =
  if not (Gibbs.Saw.supported inst0.Instance.spec) then
    invalid_arg "Inference.saw_oracle: binary pairwise spec required";
  if depth < 0 then invalid_arg "Inference.saw_oracle: negative depth";
  let infer inst v =
    match Gibbs.Saw.marginal ~depth inst.Instance.spec inst.Instance.pinned v with
    | Some d -> d
    | None -> Dist.uniform (Instance.q inst)
  in
  { radius = depth; infer }
