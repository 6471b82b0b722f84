(* Tests for the additional exact/approximate inference engines: the
   transfer-matrix DP on paths/cycles (Chain_dp) and Weitz's SAW-tree
   algorithm (Saw).  Both are validated against brute-force enumeration —
   for the SAW tree this in particular certifies the cycle-closing rule —
   and the SAW kernel and the chain DP, which read the spec's weight
   tables, against copies of the closure-based code they replaced, bit
   for bit. *)

module Graph = Ls_graph.Graph
module Generators = Ls_graph.Generators
module Dist = Ls_dist.Dist
module Rng = Ls_rng.Rng
module Config = Ls_gibbs.Config
module Spec = Ls_gibbs.Spec
module Models = Ls_gibbs.Models
module Enumerate = Ls_gibbs.Enumerate
module Chain_dp = Ls_gibbs.Chain_dp
module Saw = Ls_gibbs.Saw
module Forest_dp = Ls_gibbs.Forest_dp
module Par = Ls_par.Par

open Ls_core

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let random_two_spin rng g =
  Models.two_spin g ~beta:(Rng.float rng *. 2.) ~gamma:(Rng.float rng *. 2.)
    ~lambda:(0.1 +. (Rng.float rng *. 2.))

let random_pinning rng n q =
  let tau = Config.empty n in
  for v = 0 to n - 1 do
    if Rng.bernoulli rng 0.25 then tau.(v) <- Rng.int rng q
  done;
  tau

let agree msg a b =
  match (a, b) with
  | None, None -> ()
  | Some da, Some db -> checkb msg true (Dist.tv da db < 1e-9)
  | Some _, None | None, Some _ -> Alcotest.fail (msg ^ ": feasibility disagreement")

(* --- reference: the SAW recursion as it stood on the spec's closures --- *)

module Reference = struct
  let edge_rank g u w =
    let a = Graph.neighbors g u in
    let rec bin lo hi =
      if lo >= hi then invalid_arg "Saw.edge_rank: not a neighbor"
      else
        let mid = (lo + hi) / 2 in
        if a.(mid) = w then mid else if a.(mid) < w then bin (mid + 1) hi else bin lo mid
    in
    bin 0 (Array.length a)

  let marginal ~depth spec tau v =
    if not (Saw.supported spec) then
      invalid_arg "Saw.marginal: spec must be pairwise with a binary alphabet";
    let pw = Option.get (Spec.as_pairwise spec) in
    let g = Spec.graph spec in
    let n = Graph.n g in
    if depth < 0 then invalid_arg "Saw.marginal: negative depth";
    let vw u c = pw.Spec.vertex_weight u c in
    let a u w su sw =
      if u < w then pw.Spec.edge_weight u w su sw else pw.Spec.edge_weight w u sw su
    in
    if Config.is_assigned tau v then Some (Dist.point 2 tau.(v))
    else begin
      let on_path = Array.make n false in
      let exit_rank = Array.make n (-1) in
      let rec pair u ~parent budget =
        let p0 = ref (vw u 0) and p1 = ref (vw u 1) in
        if budget > 0 then begin
          on_path.(u) <- true;
          Array.iter
            (fun w ->
              if w <> parent && (!p0 > 0. || !p1 > 0.) then begin
                let m0, m1 =
                  if Config.is_assigned tau w then
                    let c = tau.(w) in
                    (a u w 0 c, a u w 1 c)
                  else if on_path.(w) then begin
                    let closing = edge_rank g w u in
                    let pinned = if closing > exit_rank.(w) then 1 else 0 in
                    (a u w 0 pinned, a u w 1 pinned)
                  end
                  else begin
                    exit_rank.(u) <- edge_rank g u w;
                    let q0, q1 = pair w ~parent:u (budget - 1) in
                    ( (a u w 0 0 *. q0) +. (a u w 0 1 *. q1),
                      (a u w 1 0 *. q0) +. (a u w 1 1 *. q1) )
                  end
                in
                p0 := !p0 *. m0;
                p1 := !p1 *. m1;
                let peak = Float.max !p0 !p1 in
                if peak > 0. && (peak > 1e150 || peak < 1e-150) then begin
                  p0 := !p0 /. peak;
                  p1 := !p1 /. peak
                end
              end)
            (Graph.neighbors g u);
          on_path.(u) <- false;
          exit_rank.(u) <- -1
        end;
        (!p0, !p1)
      in
      let p0, p1 = pair v ~parent:(-1) depth in
      if p0 <= 0. && p1 <= 0. then None else Some (Dist.of_weights [| p0; p1 |])
    end
end

(* --- reference: the chain DP as it stood on the spec's closures --- *)

module Chain_reference = struct
  let supported spec =
    Spec.as_pairwise spec <> None && Graph.max_degree (Spec.graph spec) <= 2

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
    let peak = Array.fold_left Float.max 0. v in
    if peak > 0. then (Array.map (fun x -> x /. peak) v, log peak) else (v, 0.)

  let rescale_mat m =
    let peak = Array.fold_left (fun acc row -> Array.fold_left Float.max acc row) 0. m in
    if peak > 0. then (Array.map (Array.map (fun x -> x /. peak)) m, log peak)
    else (m, 0.)

  let build spec tau =
    let pw = Option.get (Spec.as_pairwise spec) in
    let q = Spec.q spec in
    let diag u =
      Array.init q (fun c ->
          if Config.is_assigned tau u && tau.(u) <> c then 0.
          else pw.Spec.vertex_weight u c)
    in
    let edge u w =
      Array.init q (fun cu ->
          Array.init q (fun cw ->
              if u < w then pw.Spec.edge_weight u w cu cw
              else pw.Spec.edge_weight w u cw cu))
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
              let d = diag u in
              let step =
                Array.init q (fun i ->
                    Array.init q (fun j -> d.(i) *. (edge u next).(i).(j)))
              in
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
end

let bits = function
  | None -> None
  | Some d -> Some (Array.init (Dist.size d) (fun c -> Int64.bits_of_float (Dist.prob d c)))

(* --- Chain_dp --- *)

let test_chain_supported () =
  checkb "cycle" true (Chain_dp.supported (Models.hardcore (Generators.cycle 5) ~lambda:1.));
  checkb "path" true (Chain_dp.supported (Models.coloring (Generators.path 4) ~q:3));
  checkb "star rejected" false
    (Chain_dp.supported (Models.hardcore (Generators.star 5) ~lambda:1.))

let test_chain_vs_enumeration_cycles () =
  let rng = Rng.create 71L in
  for _trial = 1 to 25 do
    let n = 3 + Rng.int rng 8 in
    let g = Generators.cycle n in
    let spec =
      if Rng.bool rng then random_two_spin rng g else Models.coloring g ~q:3
    in
    let q = Spec.q spec in
    let tau = random_pinning rng n q in
    for v = 0 to n - 1 do
      agree "cycle marginal" (Chain_dp.marginal spec tau v)
        (Enumerate.marginal spec tau v)
    done
  done

let test_chain_vs_enumeration_paths () =
  let rng = Rng.create 72L in
  for _trial = 1 to 25 do
    let n = 1 + Rng.int rng 8 in
    let g = Generators.path n in
    let spec =
      if Rng.bool rng then random_two_spin rng g else Models.coloring g ~q:3
    in
    let q = Spec.q spec in
    let tau = random_pinning rng n q in
    for v = 0 to n - 1 do
      agree "path marginal" (Chain_dp.marginal spec tau v)
        (Enumerate.marginal spec tau v)
    done
  done

let test_chain_log_partition () =
  let rng = Rng.create 73L in
  for _trial = 1 to 20 do
    let n = 3 + Rng.int rng 7 in
    let g = if Rng.bool rng then Generators.cycle n else Generators.path n in
    let spec = random_two_spin rng g in
    let tau = random_pinning rng n 2 in
    let z = Enumerate.partition spec tau in
    let lz = Chain_dp.log_partition spec tau in
    if z > 0. then
      checkb "logZ agrees" true (Float.abs (lz -. log z) < 1e-9)
    else checkb "infeasible logZ" true (lz = neg_infinity)
  done

let test_chain_disconnected () =
  (* Cycle + isolated path in one graph. *)
  let g = Graph.create ~n:8 ~edges:[ (0, 1); (1, 2); (2, 0); (4, 5); (5, 6) ] in
  let spec = Models.hardcore g ~lambda:1.3 in
  let tau = Config.of_pinning 8 [ (5, 1) ] in
  for v = 0 to 7 do
    agree "mixed components" (Chain_dp.marginal spec tau v)
      (Enumerate.marginal spec tau v)
  done;
  (* Infeasible pinning in a far component must kill every marginal. *)
  let bad = Config.of_pinning 8 [ (4, 1); (5, 1) ] in
  checkb "far infeasibility" true (Chain_dp.marginal spec bad 0 = None)

let test_chain_large_cycle_stable () =
  let n = 2000 in
  let spec = Models.hardcore (Generators.cycle n) ~lambda:1. in
  let tau = Config.empty n in
  let d = Option.get (Chain_dp.marginal spec tau 0) in
  checkb "normalized" true (Dist.is_normalized d);
  (* On an unpinned cycle every vertex has the same marginal; the
     occupation probability tends to the infinite-path value
     (1 - 1/sqrt(5))/2 ~ 0.2764 for lambda = 1. *)
  let d' = Option.get (Chain_dp.marginal spec tau (n / 2)) in
  checkb "translation invariant" true (Dist.tv d d' < 1e-12);
  checkb "thermodynamic limit" true
    (Float.abs (Dist.prob d 1 -. ((1. -. (1. /. sqrt 5.)) /. 2.)) < 1e-3);
  let lz = Chain_dp.log_partition spec tau in
  checkb "logZ finite and linear in n" true
    (Float.is_finite lz && lz > 0.4 *. float_of_int n && lz < 0.5 *. float_of_int n)

let test_exact_dispatcher_uses_chain () =
  (* Exact.marginal on a 60-cycle must terminate fast (enumeration would
     take ~2^60 steps) and agree with a deep ssm ball estimate. *)
  let inst = Instance.unpinned (Models.hardcore (Generators.cycle 60) ~lambda:1.) in
  let d = Option.get (Exact.marginal inst 0) in
  let approx = Inference.ssm_infer ~t:25 inst 0 in
  checkb "chain engine plugged in" true (Dist.tv d approx < 1e-6)

(* --- Saw --- *)

let test_saw_supported () =
  checkb "hardcore yes" true (Saw.supported (Models.hardcore (Generators.cycle 4) ~lambda:1.));
  checkb "coloring q=3 no" false (Saw.supported (Models.coloring (Generators.cycle 4) ~q:3))

let test_saw_exact_on_trees () =
  let rng = Rng.create 81L in
  for _trial = 1 to 25 do
    let n = 2 + Rng.int rng 8 in
    let g = Generators.random_tree rng n in
    let spec = random_two_spin rng g in
    let tau = random_pinning rng n 2 in
    for v = 0 to n - 1 do
      agree "saw on tree" (Saw.marginal ~depth:n spec tau v)
        (Enumerate.marginal spec tau v)
    done
  done

let test_saw_exact_on_cycles () =
  (* The cycle-closing rule at work: exactness on graphs with cycles. *)
  let rng = Rng.create 82L in
  for _trial = 1 to 25 do
    let n = 3 + Rng.int rng 6 in
    let g = Generators.cycle n in
    let spec =
      if Rng.bool rng then Models.hardcore g ~lambda:(0.3 +. Rng.float rng)
      else random_two_spin rng g
    in
    let tau = random_pinning rng n 2 in
    if Enumerate.feasible spec tau then
      for v = 0 to n - 1 do
        agree "saw on cycle" (Saw.marginal ~depth:(n + 1) spec tau v)
          (Enumerate.marginal spec tau v)
      done
  done

let test_saw_exact_on_dense_graphs () =
  (* The SAW tree computes conditional marginals of a FEASIBLE instance
     (Definition 2.2 demands tau feasible): constraints between two pinned
     vertices are never walked, so infeasible pinnings are out of its
     contract — skip them, as the paper's model does. *)
  let rng = Rng.create 83L in
  for _trial = 1 to 15 do
    let n = 4 + Rng.int rng 4 in
    let g = Generators.erdos_renyi rng ~n ~p:0.5 in
    let spec = Models.hardcore g ~lambda:(0.3 +. Rng.float rng) in
    let tau = random_pinning rng n 2 in
    if Enumerate.feasible spec tau then
      for v = 0 to n - 1 do
        agree "saw on ER graph" (Saw.marginal ~depth:(n + 1) spec tau v)
          (Enumerate.marginal spec tau v)
      done
  done

let test_saw_complete_graph () =
  (* K5: heavily cyclic, the sharpest test of the ordering rule. *)
  let g = Generators.complete 5 in
  let spec = Models.hardcore g ~lambda:0.9 in
  let tau = Config.empty 5 in
  for v = 0 to 4 do
    agree "saw on K5" (Saw.marginal ~depth:6 spec tau v) (Enumerate.marginal spec tau v)
  done

let test_saw_truncation_error_decays () =
  let n = 18 in
  let spec = Models.hardcore (Generators.cycle n) ~lambda:1. in
  let tau = Config.empty n in
  let exact = Option.get (Chain_dp.marginal spec tau 0) in
  let err depth = Dist.tv (Option.get (Saw.marginal ~depth spec tau 0)) exact in
  let e2 = err 2 and e4 = err 4 and e8 = err 8 in
  checkb "monotone-ish decay" true (e8 <= e4 && e4 <= e2);
  checkb "deep truncation accurate" true (e8 < 1e-3)

let test_saw_pinned_root_and_infeasible () =
  let spec = Models.hardcore (Generators.path 3) ~lambda:1. in
  let tau = Config.of_pinning 3 [ (1, 1) ] in
  let d = Option.get (Saw.marginal ~depth:3 spec tau 1) in
  checkb "pinned root point mass" true (Dist.prob d 1 = 1.);
  let d0 = Option.get (Saw.marginal ~depth:3 spec tau 0) in
  checkb "forced out by pinned neighbor" true (Dist.prob d0 0 = 1.);
  (* Infeasible: hard field forbidding both values. *)
  let dead =
    Spec.create_pairwise (Generators.path 2) ~q:2
      {
        Spec.vertex_weight = (fun v _ -> if v = 0 then 0. else 1.);
        edge_weight = (fun _ _ _ _ -> 1.);
      }
  in
  checkb "all-zero root" true (Saw.marginal ~depth:2 dead (Config.empty 2) 0 = None)

let test_saw_oracle_in_pipeline () =
  (* Drive the chain-rule sampler with the SAW oracle and check the output
     law symbolically. *)
  let inst = Instance.unpinned (Models.hardcore (Generators.cycle 7) ~lambda:1.2) in
  let oracle = Inference.saw_oracle ~depth:8 inst in
  let out =
    Sequential_sampler.output_distribution oracle inst
      ~order:(Array.init 7 (fun i -> i))
  in
  let exact = Exact.joint inst in
  let tv =
    0.5
    *. List.fold_left
         (fun acc (sigma, p) ->
           let p' = try List.assoc sigma out with Not_found -> 0. in
           acc +. Float.abs (p -. p'))
         0. exact
  in
  checkb "saw-driven sampler is exact at full depth" true (tv < 1e-9)

let qcheck_saw_matches_enumeration =
  QCheck.Test.make ~name:"SAW tree = enumeration on random graphs (full depth)"
    ~count:30
    QCheck.(pair small_int (int_range 3 7))
    (fun (seed, n) ->
      let rng = Rng.of_int seed in
      let g = Generators.erdos_renyi rng ~n ~p:0.45 in
      let spec = random_two_spin rng g in
      let tau = random_pinning rng n 2 in
      QCheck.assume (Enumerate.feasible spec tau);
      List.for_all
        (fun v ->
          match (Saw.marginal ~depth:(n + 1) spec tau v, Enumerate.marginal spec tau v) with
          | None, None -> true
          | Some a, Some b -> Dist.tv a b < 1e-9
          | _ -> false)
        (List.init n (fun v -> v)))

(* Graphs of at most 14 vertices whose SAW trees stay small at depth
   n + 1: the ER graphs are kept sparse. *)
let small_graph rng family =
  match family with
  | 0 -> Generators.cycle (3 + Rng.int rng 12)
  | 1 -> Generators.path (1 + Rng.int rng 14)
  | 2 -> Generators.random_tree rng (1 + Rng.int rng 14)
  | 3 ->
      let r = 1 + Rng.int rng 3 in
      Generators.grid r (1 + Rng.int rng (min 4 (14 / r)))
  | _ ->
      let n = 1 + Rng.int rng 14 in
      Generators.erdos_renyi rng ~n ~p:(Float.min 1. (Rng.float rng *. 2.5 /. float_of_int n))

(* Binary pairwise specs: hardcore, per-vertex fugacities, Ising, 2-spin
   with a hard 0-0 or 1-1 edge (or both: proper 2-colourings), and a spec
   whose edge matrix depends on the edge and is not symmetric, so the
   u < w orientation rule is exercised. *)
let binary_spec rng g kind =
  let n = Graph.n g in
  match kind with
  | 0 -> Models.hardcore g ~lambda:(0.1 +. (3. *. Rng.float rng))
  | 1 ->
      let lambdas = Array.init n (fun _ -> 3. *. Rng.float rng) in
      Models.weighted_independent_set g ~vertex_lambda:(fun v -> lambdas.(v))
  | 2 -> Models.ising g ~beta:(2. *. Rng.float rng) ~field:(0.1 +. (2. *. Rng.float rng))
  | 3 ->
      let hard () = if Rng.bool rng then 0. else 2. *. Rng.float rng in
      Models.two_spin g ~beta:(hard ()) ~gamma:(hard ()) ~lambda:(2. *. Rng.float rng)
  | _ ->
      let field = Array.init n (fun _ -> 2. *. Rng.float rng) in
      Spec.create_pairwise g ~q:2
        {
          Spec.vertex_weight = (fun v c -> if c = 1 then field.(v) else 1.);
          edge_weight =
            (fun u v cu cv ->
              float_of_int (1 + cu + (2 * cv)) /. float_of_int (1 + ((u + v) mod 3)));
        }

let qcheck_saw_kernel_bitwise =
  QCheck.Test.make ~name:"compiled SAW kernel = closure recursion, bit for bit"
    ~count:300
    QCheck.(triple (int_range 0 4) (int_range 0 4) small_int)
    (fun (family, kind, seed) ->
      let rng = Rng.of_int (seed + (1000 * family) + (100 * kind)) in
      let g = small_graph rng family in
      let n = Graph.n g in
      let spec = binary_spec rng g kind in
      let tau = Config.empty n in
      let p = 0.5 *. Rng.float rng in
      for u = 0 to n - 1 do
        if Rng.bernoulli rng p then tau.(u) <- Rng.int rng 2
      done;
      (* One spec's tables answer every query of the case. *)
      List.for_all
        (fun _ ->
          let v = Rng.int rng n in
          let depth = Rng.int rng (n + 2) in
          bits (Saw.marginal ~depth spec tau v) = bits (Reference.marginal ~depth spec tau v))
        [ 1; 2; 3 ])

(* --- forced roots: the SAW walk's one shortcut --- *)

(* A random 2-spin spec whose weights come from [draw]: [k] random 2×2
   matrices, edge [u < w] taking matrix [(u·31 + w) mod k], so an edge's
   matrix is fixed and need not be symmetric.  Either any entry may be
   an exact zero, or (hardcore-like) only the [(h, h)] entry of a
   matrix, which leaves spin [1 - h]'s rows positive so that the
   magnitudes alone decide the guard. *)
let random_tables_spec rng g draw =
  let n = Graph.n g in
  let zero_or p x = if Rng.bernoulli rng p then 0. else x in
  let structured = Rng.bool rng and h = Rng.int rng 2 in
  let vw = Array.init (2 * n) (fun _ -> if structured then draw () else zero_or 0.1 (draw ())) in
  let k = 1 + Rng.int rng 4 in
  let mats =
    Array.init k (fun _ ->
        let hard = Rng.bernoulli rng 0.7 in
        Array.init 4 (fun i ->
            if not structured then zero_or 0.25 (draw ())
            else if hard && i = 3 * h then 0.
            else draw ()))
  in
  Spec.create_pairwise g ~q:2
    {
      Spec.vertex_weight = (fun v c -> vw.((2 * v) + c));
      edge_weight = (fun u w cu cw -> mats.(((u * 31) + w) mod k).((2 * cu) + cw));
    }

(* A hub of degree 20-40 with a few chords between its leaves, so the
   SAW trees stay small while the maximum degree is large. *)
let hub_graph rng =
  let d = 20 + Rng.int rng 21 in
  let chords = List.init (Rng.int rng 3) (fun _ -> (1 + Rng.int rng d, 1 + Rng.int rng d)) in
  let chords = List.filter (fun (a, b) -> a < b) chords |> List.sort_uniq compare in
  Graph.create ~n:(d + 1) ~edges:(List.init d (fun i -> (0, i + 1)) @ chords)

(* Every binary model [Engine.parse_model] accepts, and random 2-spin
   tables with exact zeros: moderate weights, weights from 1e-300 to
   1e300, and weights around the guard's 2^26 cap, on small graphs and on
   hubs of degree up to 40.  The extremes must make the guard refuse,
   or the shortcut would answer where the walk under- or overflows. *)
let forced_root_spec rng =
  let g = if Rng.int rng 4 = 0 then hub_graph rng else small_graph rng (Rng.int rng 5) in
  match Rng.int rng 8 with
  | 0 -> Models.hardcore g ~lambda:(0.05 +. (3. *. Rng.float rng))
  | 1 -> Models.ising g ~beta:(2. *. Rng.float rng) ~field:(0.1 +. (2. *. Rng.float rng))
  | 2 | 3 ->
      let x lo hi = lo +. ((hi -. lo) *. Rng.float rng) in
      let model =
        match Rng.int rng 5 with
        | 0 -> Printf.sprintf "hardcore:%.3f" (x 0.1 3.)
        | 1 -> Printf.sprintf "ising:%.3f:%.3f" (x 0. 2.) (x 0.1 2.)
        | 2 -> Printf.sprintf "potts:2:%.3f" (x 0. 2.)
        | 3 -> "coloring:2"
        | _ -> Printf.sprintf "matching:%.3f" (x 0.1 3.)
      in
      (Result.get_ok (Ls_serve.Engine.parse_model g model)).spec
  | 4 -> random_tables_spec rng g (fun () -> 0.05 +. (3. *. Rng.float rng))
  | 5 | 6 -> random_tables_spec rng g (fun () -> 10. ** (600. *. (Rng.float rng -. 0.5)))
  | _ -> random_tables_spec rng g (fun () -> 2. ** (1. +. (26.5 *. Rng.float rng)))

(* A pinning with values in {0, 1}, biased towards the root's row. *)
let pin_near rng g v =
  let tau = Config.empty (Graph.n g) in
  Array.iteri (fun u _ -> if Rng.bernoulli rng 0.15 then tau.(u) <- Rng.int rng 2) tau;
  Array.iter (fun w -> if Rng.bernoulli rng 0.6 then tau.(w) <- Rng.int rng 2) (Graph.neighbors g v);
  tau

let outcome f =
  match f () with r -> Ok (bits r) | exception Invalid_argument m -> Error m

let qcheck_saw_forced_roots_bitwise =
  QCheck.Test.make ~name:"saw kernel on forced roots = Reference, bit for bit" ~count:300
    QCheck.(pair small_int (int_range 1 8))
    (fun (seed, depth) ->
      let rng = Rng.of_int (seed + (7919 * depth)) in
      let spec = forced_root_spec rng in
      let g = Spec.graph spec in
      let n = Graph.n g in
      n = 0
      || List.for_all
           (fun _ ->
             let v = Rng.int rng n in
             let tau = pin_near rng g v in
             outcome (fun () -> Saw.marginal ~depth spec tau v)
             = outcome (fun () -> Reference.marginal ~depth spec tau v))
           [ 1; 2; 3 ])

let test_saw_live_flags () =
  let live spec = (Option.get (Spec.tables spec)).Spec.live in
  let flags name want spec =
    Alcotest.(check (array bool)) name want (live spec)
  in
  let grid = Generators.grid 8 8 in
  flags "hardcore: spin 0 only" [| true; false |] (Models.hardcore grid ~lambda:0.5);
  flags "Ising, positive weights: both" [| true; true |]
    (Models.ising grid ~beta:0.4 ~field:1.3);
  flags "a zero in row 0 (2-spin, beta = 0): spin 1 only" [| false; true |]
    (Models.two_spin grid ~beta:0. ~gamma:1.5 ~lambda:1.);
  flags "proper 2-colourings: neither" [| false; false |] (Models.coloring grid ~q:2);
  (* Every weight x: L = U = x, so only the cap U ≤ 2^26 can refuse. *)
  let constant x =
    Spec.create_pairwise grid ~q:2
      { Spec.vertex_weight = (fun _ _ -> x); edge_weight = (fun _ _ _ _ -> x) }
  in
  flags "every weight 2^26: both" [| true; true |] (constant 0x1p26);
  flags "every weight just above 2^26: neither" [| false; false |] (constant 0x1.000002p26);
  flags "hardcore lambda = 1e40: neither" [| false; false |]
    (Models.hardcore grid ~lambda:1e40);
  flags "a tiny weight in row 1: spin 0 only" [| true; false |]
    (Models.two_spin grid ~beta:1. ~gamma:1e-30 ~lambda:1.);
  (* L·(L/2U)^(Δ+1) with L = U = 1: 2^-(Δ+1) ≥ 2^-70 up to Δ = 69. *)
  let star d = Graph.create ~n:(d + 1) ~edges:(List.init d (fun i -> (0, i + 1))) in
  flags "hardcore on a star of degree 69" [| true; false |]
    (Models.hardcore (star 69) ~lambda:1.);
  flags "hardcore on a star of degree 70" [| false; false |]
    (Models.hardcore (star 70) ~lambda:1.);
  flags "q = 3: no flag" [| false; false; false |] (Models.coloring grid ~q:3)

let test_saw_kernel_edge_cases () =
  let same msg ~depth spec tau v =
    checkb msg true
      (bits (Saw.marginal ~depth spec tau v) = bits (Reference.marginal ~depth spec tau v))
  in
  (* Both spins killed at the root: a proper 2-colouring with the root's
     neighbours pinned to different colours. *)
  let two_col = Models.two_spin (Generators.path 3) ~beta:0. ~gamma:0. ~lambda:1. in
  let tau = Config.of_pinning 3 [ (0, 0); (2, 1) ] in
  checkb "infeasible root" true (Saw.marginal ~depth:2 two_col tau 1 = None);
  same "infeasible root, as before" ~depth:2 two_col tau 1;
  (* lambda = 1e40 overflows past 1e150 within a few levels, so the
     rescale branch runs at almost every node. *)
  let heavy = Models.hardcore (Generators.grid 4 4) ~lambda:1e40 in
  List.iter
    (fun v -> same "rescaled" ~depth:12 heavy (Config.empty 16) v)
    [ 0; 5; 15 ];
  same "rescaled, pinned" ~depth:12 heavy (Config.of_pinning 16 [ (6, 1); (9, 0) ]) 0;
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  let marginal ~depth tau = Saw.marginal ~depth heavy tau 0 in
  checkb "negative depth" true (raises (fun () -> marginal ~depth:(-1) (Config.empty 16)));
  checkb "value outside {0, 1}" true
    (raises (fun () -> marginal ~depth:2 (Config.of_pinning 16 [ (1, 2) ])));
  checkb "values out of the walk's reach are not read" true
    (marginal ~depth:2 (Config.of_pinning 16 [ (15, 2) ]) <> None);
  checkb "pinning of another size" true
    (raises (fun () -> marginal ~depth:2 (Config.empty 15)));
  (* A forced root reads its row's pins alone: a bad pin in the row still
     raises (the walk runs), one beyond it is not read. *)
  let light = Models.hardcore (Generators.grid 4 4) ~lambda:0.5 in
  let forced pins = Saw.marginal ~depth:6 light (Config.of_pinning 16 pins) 0 in
  checkb "forced root, bad pin in its row" true
    (raises (fun () -> forced [ (1, 1); (4, 2) ]));
  checkb "forced root, bad pin beyond its row" true
    (bits (forced [ (1, 1); (5, 2) ]) = bits (Some (Dist.point 2 0)));
  checkb "non-binary spec" true
    (raises (fun () ->
         Saw.marginal ~depth:2 (Models.coloring (Generators.cycle 4) ~q:3) (Config.empty 4) 0))

(* The kernel's path marks live in per-domain scratch, so a call costs
   its walks whatever n is.  Half of cycle:n is pinned, far from the
   query [n/4]: its depth-10 walks meet no pin and are the same at every
   n.  Each call allocates no major words, and the same minor words at
   2^10 and 2^14. *)
let half_pinned n =
  Array.init n (fun u -> if u < n / 2 then Config.unassigned else if u mod 3 = 0 then 1 else 0)

let test_saw_allocation () =
  let minor_at n =
    let spec = Models.hardcore (Generators.cycle n) ~lambda:0.5 in
    let tau = half_pinned n in
    let v = n / 4 in
    let want = bits (Reference.marginal ~depth:10 spec tau v) in
    (* The first call on a domain grows its scratch to n. *)
    ignore (Saw.marginal ~depth:10 spec tau v);
    let r, minor, major = Test_ball.words (fun () -> Saw.marginal ~depth:10 spec tau v) in
    checkb (Printf.sprintf "cycle:%d: = Reference" n) true (bits r = want);
    checkb (Printf.sprintf "cycle:%d: %.0f major words" n major) true (major = 0.);
    minor
  in
  let small = minor_at 1024 in
  let large = minor_at 16384 in
  checkb
    (Printf.sprintf "%.0f minor words at 2^10, %.0f at 2^14" small large)
    true (small = large)

(* A forced root costs its row: on the same half-pinned cycles, vertex
   0 is free and its neighbour n - 1 (a multiple of 3 at both sizes) is
   occupied, so hardcore forces 0 to be unoccupied.  The call allocates
   what building its result allocates, and no major words. *)
let test_saw_forced_allocation () =
  let _, result_words, _ = Test_ball.words (fun () -> Some (Dist.point 2 0)) in
  List.iter
    (fun n ->
      let spec = Models.hardcore (Generators.cycle n) ~lambda:0.5 in
      let tau = half_pinned n in
      let want = bits (Reference.marginal ~depth:10 spec tau 0) in
      checkb (Printf.sprintf "cycle:%d: Reference gives the point mass" n) true
        (want = bits (Some (Dist.point 2 0)));
      let r, minor, major = Test_ball.words (fun () -> Saw.marginal ~depth:10 spec tau 0) in
      checkb (Printf.sprintf "cycle:%d: = Reference" n) true (bits r = want);
      checkb (Printf.sprintf "cycle:%d: %.0f major words" n major) true (major = 0.);
      checkb
        (Printf.sprintf "cycle:%d: %.0f minor words, the result's %.0f" n minor result_words)
        true (minor = result_words))
    [ 1024; 16384 ]

(* SAW queries alternating between a spec on 16 vertices and one on
   4096, so one domain's scratch serves both sizes. *)
let alternating_saw_queries k =
  let rng = Rng.of_int 11 in
  let small = Models.ising (Generators.grid 4 4) ~beta:0.4 ~field:1.3 in
  let large = Models.hardcore (Generators.cycle 4096) ~lambda:0.9 in
  Array.init k (fun i ->
      let spec, depth = if i mod 2 = 0 then (small, 17) else (large, 10) in
      let n = Graph.n (Spec.graph spec) in
      (spec, random_pinning rng n 2, Rng.int rng n, depth))

(* A walk that raises leaves its path marked under an old epoch; the
   next call, at either size and on either of 2 domains, must not read
   those marks ({!Test_ball.scratch_hygiene}).  [raise_deep] pins nothing
   in the root's row, so the root is never forced and the walk runs. *)
let test_saw_scratch_hygiene () =
  let same msg (spec, tau, v, depth) =
    checkb msg true
      (bits (Saw.marginal ~depth spec tau v) = bits (Reference.marginal ~depth spec tau v))
  in
  let raise_deep spec v =
    let n = Graph.n (Spec.graph spec) in
    let far = Graph.sphere (Spec.graph spec) v 3 in
    ignore (Saw.marginal ~depth:8 spec (Config.of_pinning n [ (far.(0), 2) ]) v)
  in
  let raised spec v =
    checkb "the walk raised" true
      (match raise_deep spec v with () -> false | exception Invalid_argument _ -> true)
  in
  let cycle16 = Models.hardcore (Generators.cycle 16) ~lambda:0.7 in
  raised cycle16 0;
  (* Depth 8 meets the raising walk's path; depth 20 closes the cycle. *)
  same "after a raise, depth 8" (cycle16, Config.empty 16, 0, 8);
  raised cycle16 0;
  same "after a raise, depth 20" (cycle16, Config.empty 16, 1, 20);
  let answer marginal (spec, tau, v, depth) = bits (marginal ~depth spec tau v) in
  Test_ball.scratch_hygiene (alternating_saw_queries 12)
    ~raising:(fun (spec, _, v, _) -> raise_deep spec v)
    ~answer:(answer Saw.marginal) ~reference:(answer Reference.marginal)

(* The same queries from 2 domains: each domain's scratch is its own. *)
let test_saw_two_domains () =
  let queries = alternating_saw_queries 24 in
  let answer marginal (spec, tau, v, depth) = bits (marginal ~depth spec tau v) in
  checkb "2 domains = Reference" true
    (Par.map ~domains:2 (answer Saw.marginal) queries
    = Array.map (answer Reference.marginal) queries)

let test_saw_oracle_rejects_negative_depth () =
  let inst = Instance.unpinned (Models.hardcore (Generators.cycle 5) ~lambda:1.) in
  checkb "raised when the oracle is built" true
    (match Inference.saw_oracle ~depth:(-1) inst with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_saw_oracle_other_spec () =
  (* An oracle built for one spec, asked about an instance of another:
     the answer must come from the instance's own spec. *)
  let inst0 = Instance.unpinned (Models.hardcore (Generators.cycle 6) ~lambda:0.5) in
  let oracle = Inference.saw_oracle ~depth:5 inst0 in
  let check msg spec =
    let inst = Instance.of_pins spec [ (2, 0) ] in
    let want = Saw.marginal ~depth:5 spec inst.Instance.pinned 0 in
    checkb msg true (bits (Some (oracle.Inference.infer inst 0)) = bits want)
  in
  check "same graph, other fugacity" (Models.hardcore (Generators.cycle 6) ~lambda:2.);
  check "other graph" (Models.ising (Generators.grid 3 3) ~beta:0.4 ~field:1.3);
  (* And inst0's own instances are answered from inst0's spec. *)
  let inst = Instance.of_pins inst0.Instance.spec [ (3, 1) ] in
  checkb "own spec" true
    (bits (Some (oracle.Inference.infer inst 0))
    = bits (Saw.marginal ~depth:5 inst0.Instance.spec inst.Instance.pinned 0))

let qcheck_chain_matches_enumeration =
  QCheck.Test.make ~name:"Chain DP = enumeration on cycles" ~count:30
    QCheck.(pair small_int (int_range 3 9))
    (fun (seed, n) ->
      let rng = Rng.of_int seed in
      let g = Generators.cycle n in
      let spec = random_two_spin rng g in
      let tau = random_pinning rng n 2 in
      List.for_all
        (fun v ->
          match (Chain_dp.marginal spec tau v, Enumerate.marginal spec tau v) with
          | None, None -> true
          | Some a, Some b -> Dist.tv a b < 1e-9
          | _ -> false)
        (List.init n (fun v -> v)))

(* --- the spec's weight tables --- *)

(* Distinct weights per (vertex, colour) and per oriented (edge, colour
   pair), so a table read in the wrong orientation or slot shows. *)
let distinct_weights g q =
  let n = Graph.n g in
  {
    Spec.vertex_weight = (fun v c -> float_of_int (1 + (v * q) + c));
    edge_weight =
      (fun u w cu cw -> float_of_int (1 + (((((u * n) + w) * q) + cu) * q) + cw) /. 7.);
  }

let test_tables_contents () =
  let rng = Rng.create 23L in
  let graphs =
    [
      ("cycle", Generators.cycle 7);
      ("tree", Generators.random_tree rng 9);
      ("grid", Generators.grid 3 4);
      (* ER with vertex 10 isolated by construction. *)
      ( "ER",
        Graph.create ~n:12 ~edges:(Graph.edges (Generators.erdos_renyi rng ~n:10 ~p:0.3)) );
    ]
  in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun q ->
          let what = Printf.sprintf "%s q=%d" name q in
          let pw = distinct_weights g q in
          let tb = Option.get (Spec.tables (Spec.create_pairwise g ~q pw)) in
          let n = Graph.n g and m = Graph.m g in
          checkb (what ^ ": sizes") true
            (Array.length tb.Spec.vertex = n * q
            && Array.length tb.Spec.off = n + 1
            && Array.length tb.Spec.dst = 2 * m
            && Array.length tb.Spec.rev = 2 * m
            && Array.length tb.Spec.edge = 2 * m * q * q
            && Array.length tb.Spec.live = q);
          let ok = ref true in
          for u = 0 to n - 1 do
            for c = 0 to q - 1 do
              if tb.Spec.vertex.((u * q) + c) <> pw.Spec.vertex_weight u c then ok := false
            done;
            let row = Graph.neighbors g u in
            if tb.Spec.off.(u + 1) - tb.Spec.off.(u) <> Array.length row then ok := false
            else
              Array.iteri
                (fun i w ->
                  let s = tb.Spec.off.(u) + i in
                  if tb.Spec.dst.(s) <> w then ok := false;
                  if tb.Spec.dst.(tb.Spec.off.(w) + tb.Spec.rev.(s)) <> u then ok := false;
                  for cu = 0 to q - 1 do
                    for cw = 0 to q - 1 do
                      let want =
                        if u < w then pw.Spec.edge_weight u w cu cw
                        else pw.Spec.edge_weight w u cw cu
                      in
                      if tb.Spec.edge.((((s * q) + cu) * q) + cw) <> want then ok := false
                    done
                  done)
                row
          done;
          checkb (what ^ ": every entry is its closure, row vertex first") true !ok)
        [ 1; 2; 3; 5 ])
    graphs;
  let raises f = match f () with _ -> false | exception Invalid_argument m -> m <> "" in
  let g = Generators.path 3 in
  let with_vertex vw = { (distinct_weights g 2) with Spec.vertex_weight = vw } in
  checkb "a NaN vertex weight is refused" true
    (raises (fun () ->
         Spec.create_pairwise g ~q:2 (with_vertex (fun v _ -> if v = 2 then nan else 1.))));
  checkb "an infinite vertex weight is refused" true
    (raises (fun () ->
         Spec.create_pairwise g ~q:2 (with_vertex (fun _ c -> if c = 1 then infinity else 1.))));
  checkb "a negative edge weight is refused" true
    (raises (fun () ->
         Spec.create_pairwise g ~q:2
           { (distinct_weights g 2) with Spec.edge_weight = (fun _ _ _ _ -> -1.) }))

(* Once a pairwise spec exists, no kernel calls its weight closures. *)
let test_tables_no_closure_calls () =
  let calls = ref 0 in
  let counted (pw : Spec.pairwise) =
    {
      Spec.vertex_weight = (fun v c -> incr calls; pw.Spec.vertex_weight v c);
      edge_weight = (fun u w cu cw -> incr calls; pw.Spec.edge_weight u w cu cw);
    }
  in
  let g = Generators.cycle 8 in
  List.iter
    (fun q ->
      calls := 0;
      let spec = Spec.create_pairwise g ~q (counted (distinct_weights g q)) in
      checki (Printf.sprintf "q=%d: n·q + m·q² calls at creation" q)
        ((8 * q) + (8 * q * q)) !calls;
      calls := 0;
      let tau = Config.of_pinning 8 [ (4, 0) ] in
      if q = 2 then ignore (Saw.marginal ~depth:5 spec tau 0);
      ignore (Forest_dp.ball_marginal spec ~ball:[| 7; 0; 1; 2 |] tau 0);
      ignore (Chain_dp.marginal spec tau 0);
      ignore (Chain_dp.log_partition spec tau);
      ignore (Enumerate.marginal spec tau 0);
      ignore (Spec.weight spec (Array.init 8 (fun v -> v mod q)));
      checki (Printf.sprintf "q=%d: no closure call after creation" q) 0 !calls)
    [ 2; 3 ]

(* Paths, cycles and isolated vertices, in one graph whose vertex ids are
   shuffled, so walks meet both edge orientations. *)
let mixed_chain_graph rng =
  let parts = List.init (1 + Rng.int rng 3) (fun _ -> (Rng.int rng 3, 1 + Rng.int rng 7)) in
  let n = List.fold_left (fun acc (kind, k) -> acc + if kind = 0 then k + 2 else k) 0 parts in
  let label = Array.init n Fun.id in
  Rng.shuffle rng label;
  let edges = ref [] and next = ref 0 in
  List.iter
    (fun (kind, k) ->
      (* kind 0: a cycle of k + 2 >= 3; 1: a path of k; 2: k isolated. *)
      let len = if kind = 0 then k + 2 else k in
      let v i = label.(!next + i) in
      if kind <> 2 then
        for i = 0 to len - 2 do
          edges := (v i, v (i + 1)) :: !edges
        done;
      if kind = 0 then edges := (v (len - 1), v 0) :: !edges;
      next := !next + len)
    parts;
  Graph.create ~n ~edges:!edges

let qcheck_chain_tables_bitwise =
  QCheck.Test.make ~name:"chain DP on tables = closure chain DP, bit for bit" ~count:200
    QCheck.(pair (int_range 0 2) small_int)
    (fun (family, seed) ->
      let rng = Rng.of_int (seed + (1000 * family)) in
      let g =
        match family with
        | 0 -> Generators.cycle (3 + Rng.int rng 10)
        | 1 -> Generators.path (1 + Rng.int rng 12)
        | _ -> mixed_chain_graph rng
      in
      let n = Graph.n g and q = 1 + Rng.int rng 4 in
      let salt = Rng.int rng 1000 in
      let hard = Rng.bool rng in
      let spec =
        Spec.create_pairwise g ~q
          {
            Spec.vertex_weight =
              (fun v c -> float_of_int (1 + ((salt + (3 * v) + c) mod 5)) /. 3.);
            edge_weight =
              (fun u w cu cw ->
                let h = (salt + (7 * u) + (11 * w) + (5 * cu) + (13 * cw)) mod 6 in
                if hard && h = 0 then 0. else float_of_int (1 + h) /. 4.);
          }
      in
      let tau = random_pinning rng n q in
      Int64.bits_of_float (Chain_dp.log_partition spec tau)
      = Int64.bits_of_float (Chain_reference.log_partition spec tau)
      && List.for_all
           (fun v ->
             bits (Chain_dp.marginal spec tau v) = bits (Chain_reference.marginal spec tau v))
           (List.init n Fun.id))

let suite =
  [
    Alcotest.test_case "chain supported" `Quick test_chain_supported;
    Alcotest.test_case "chain vs enumeration (cycles)" `Quick
      test_chain_vs_enumeration_cycles;
    Alcotest.test_case "chain vs enumeration (paths)" `Quick
      test_chain_vs_enumeration_paths;
    Alcotest.test_case "chain log partition" `Quick test_chain_log_partition;
    Alcotest.test_case "chain disconnected" `Quick test_chain_disconnected;
    Alcotest.test_case "chain large cycle" `Quick test_chain_large_cycle_stable;
    Alcotest.test_case "exact dispatcher uses chain" `Quick
      test_exact_dispatcher_uses_chain;
    Alcotest.test_case "saw supported" `Quick test_saw_supported;
    Alcotest.test_case "saw exact on trees" `Quick test_saw_exact_on_trees;
    Alcotest.test_case "saw exact on cycles" `Quick test_saw_exact_on_cycles;
    Alcotest.test_case "saw exact on dense graphs" `Quick test_saw_exact_on_dense_graphs;
    Alcotest.test_case "saw on K5" `Quick test_saw_complete_graph;
    Alcotest.test_case "saw truncation decay" `Quick test_saw_truncation_error_decays;
    Alcotest.test_case "saw pinning and infeasibility" `Quick
      test_saw_pinned_root_and_infeasible;
    Alcotest.test_case "saw oracle drives the sampler" `Quick test_saw_oracle_in_pipeline;
    Alcotest.test_case "saw kernel: infeasible root, rescale, contract" `Quick
      test_saw_kernel_edge_cases;
    Alcotest.test_case "saw oracle rejects a negative depth" `Quick
      test_saw_oracle_rejects_negative_depth;
    Alcotest.test_case "saw oracle compiles a foreign spec" `Quick test_saw_oracle_other_spec;
    QCheck_alcotest.to_alcotest qcheck_saw_kernel_bitwise;
    Alcotest.test_case "saw kernel: no major words, same minor words at 2^10 and 2^14"
      `Quick test_saw_allocation;
    Alcotest.test_case "saw kernel: scratch after a raise and across sizes" `Quick
      test_saw_scratch_hygiene;
    Alcotest.test_case "saw kernel: 2 domains = Reference" `Quick test_saw_two_domains;
    QCheck_alcotest.to_alcotest qcheck_saw_matches_enumeration;
    QCheck_alcotest.to_alcotest qcheck_chain_matches_enumeration;
    QCheck_alcotest.to_alcotest qcheck_chain_tables_bitwise;
    Alcotest.test_case "spec tables: every entry is its closure" `Quick test_tables_contents;
    Alcotest.test_case "spec tables: no closure call after creation" `Quick
      test_tables_no_closure_calls;
    Alcotest.test_case "saw kernel: a forced root allocates only its result" `Quick
      test_saw_forced_allocation;
    QCheck_alcotest.to_alcotest qcheck_saw_forced_roots_bitwise;
    Alcotest.test_case "spec tables: the SAW live flags" `Quick test_saw_live_flags;
  ]
