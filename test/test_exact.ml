(* The ball-local exact kernels: one contract for both engines, a bitwise
   differential against the induced-copy kernels they replaced, and the
   early-stopping scope BFS of Spec.create against the whole-graph one. *)

module Graph = Ls_graph.Graph
module Generators = Ls_graph.Generators
module Dist = Ls_dist.Dist
module Rng = Ls_rng.Rng
module Config = Ls_gibbs.Config
module Models = Ls_gibbs.Models
module Spec = Ls_gibbs.Spec
module Enumerate = Ls_gibbs.Enumerate
module Forest_dp = Ls_gibbs.Forest_dp
open Ls_core

(* --- reference: the kernels as they stood on an induced copy --- *)

module Reference = struct
  let fold_completions spec ~member tau ~init ~f =
    let n = Graph.n (Spec.graph spec) in
    let q = Spec.q spec in
    let factors = Spec.factors spec in
    let nf = Array.length factors in
    let relevant = Array.make nf false in
    let remaining = Array.make nf 0 in
    let scratch = Array.copy tau in
    Array.iteri
      (fun i fa ->
        if Array.for_all member fa.Spec.scope then begin
          relevant.(i) <- true;
          remaining.(i) <-
            Array.fold_left
              (fun acc v -> if scratch.(v) = Config.unassigned then acc + 1 else acc)
              0 fa.Spec.scope
        end)
      factors;
    let prefix = ref 1. in
    Array.iteri
      (fun i _ ->
        if relevant.(i) && remaining.(i) = 0 then
          match Spec.factor_value spec i scratch with
          | Some w -> prefix := !prefix *. w
          | None -> assert false)
      factors;
    if !prefix <= 0. then init
    else begin
      let free = ref [] in
      for v = n - 1 downto 0 do
        if member v && scratch.(v) = Config.unassigned then free := v :: !free
      done;
      let free = Array.of_list !free in
      let k = Array.length free in
      let acc = ref init in
      let rec go idx w =
        if w <= 0. then ()
        else if idx = k then acc := f !acc scratch w
        else begin
          let v = free.(idx) in
          for c = 0 to q - 1 do
            scratch.(v) <- c;
            let dw = ref 1. in
            let touched = Spec.factors_of_vertex spec v in
            Array.iter
              (fun i ->
                if relevant.(i) then begin
                  remaining.(i) <- remaining.(i) - 1;
                  if remaining.(i) = 0 then
                    match Spec.factor_value spec i scratch with
                    | Some x -> dw := !dw *. x
                    | None -> assert false
                end)
              touched;
            go (idx + 1) (w *. !dw);
            Array.iter
              (fun i -> if relevant.(i) then remaining.(i) <- remaining.(i) + 1)
              touched;
            scratch.(v) <- Config.unassigned
          done
        end
      in
      go 0 !prefix;
      !acc
    end

  let enumerate_ball_marginal spec ~ball tau v =
    let n = Graph.n (Spec.graph spec) in
    let in_ball = Array.make n false in
    Array.iter (fun u -> in_ball.(u) <- true) ball;
    let q = Spec.q spec in
    if Config.is_assigned tau v then Some (Dist.point q tau.(v))
    else begin
      let weights = Array.make q 0. in
      let (_ : unit) =
        fold_completions spec ~member:(fun u -> in_ball.(u)) tau ~init:()
          ~f:(fun () sigma w -> weights.(sigma.(v)) <- weights.(sigma.(v)) +. w)
      in
      if Array.for_all (fun w -> w <= 0.) weights then None
      else Some (Dist.of_weights weights)
    end

  let component_weights ?logscale (pw : Spec.pairwise) q sub orig tau root =
    let nloc = Graph.n sub in
    let parent = Array.make nloc (-1) in
    let order = ref [] in
    let visited = Array.make nloc false in
    let queue = Queue.create () in
    visited.(root) <- true;
    Queue.add root queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      order := u :: !order;
      Array.iter
        (fun w ->
          if not visited.(w) then begin
            visited.(w) <- true;
            parent.(w) <- u;
            Queue.add w queue
          end)
        (Graph.neighbors sub u)
    done;
    let up = Array.make nloc [||] in
    let edge_w a b ca cb =
      if a < b then pw.Spec.edge_weight a b ca cb else pw.Spec.edge_weight b a cb ca
    in
    List.iter
      (fun u ->
        let ou = orig.(u) in
        let pinned = tau.(ou) in
        let w =
          Array.init q (fun c ->
              if pinned <> Config.unassigned && pinned <> c then 0.
              else begin
                let acc = ref (pw.Spec.vertex_weight ou c) in
                Array.iter
                  (fun child ->
                    if parent.(child) = u then begin
                      let oc = orig.(child) in
                      let msg = ref 0. in
                      for cc = 0 to q - 1 do
                        msg := !msg +. (up.(child).(cc) *. edge_w oc ou cc c)
                      done;
                      acc := !acc *. !msg
                    end)
                  (Graph.neighbors sub u);
                !acc
              end)
        in
        let peak = Array.fold_left Float.max 0. w in
        if peak > 0. then begin
          up.(u) <- Array.map (fun x -> x /. peak) w;
          match logscale with Some acc -> acc := !acc +. log peak | None -> ()
        end
        else up.(u) <- w)
      !order;
    up.(root)

  let forest_supported spec ~ball =
    match Spec.as_pairwise spec with
    | None -> false
    | Some _ ->
        let sub, _ = Graph.induced (Spec.graph spec) ball in
        Graph.is_forest sub

  let forest_ball_marginal spec ~ball tau v =
    let pw = Option.get (Spec.as_pairwise spec) in
    let q = Spec.q spec in
    if Config.is_assigned tau v then Some (Dist.point q tau.(v))
    else begin
      let sub, orig = Graph.induced (Spec.graph spec) ball in
      let nloc = Graph.n sub in
      let local_of_orig = Hashtbl.create (2 * nloc) in
      Array.iteri (fun i o -> Hashtbl.replace local_of_orig o i) orig;
      let vloc = Hashtbl.find local_of_orig v in
      let comp = Graph.components sub in
      let seen_roots = Hashtbl.create 8 in
      let others_positive = ref true in
      for u = 0 to nloc - 1 do
        let c = comp.(u) in
        if c <> comp.(vloc) && not (Hashtbl.mem seen_roots c) then begin
          Hashtbl.replace seen_roots c ();
          let w = component_weights pw q sub orig tau u in
          if Array.for_all (fun x -> x <= 0.) w then others_positive := false
        end
      done;
      if not !others_positive then None
      else begin
        let weights = component_weights pw q sub orig tau vloc in
        if Array.for_all (fun x -> x <= 0.) weights then None
        else Some (Dist.of_weights weights)
      end
    end

  let ball_marginal inst ~ball v =
    let spec = inst.Instance.spec and tau = inst.Instance.pinned in
    if forest_supported spec ~ball then forest_ball_marginal spec ~ball tau v
    else enumerate_ball_marginal spec ~ball tau v

  let log_partition spec tau =
    let pw = Option.get (Spec.as_pairwise spec) in
    let g = Spec.graph spec in
    let n = Graph.n g in
    let orig = Array.init n (fun i -> i) in
    let comp = Graph.components g in
    let seen = Hashtbl.create 8 in
    let total = ref 0. in
    (try
       for u = 0 to n - 1 do
         if not (Hashtbl.mem seen comp.(u)) then begin
           Hashtbl.replace seen comp.(u) ();
           let logscale = ref 0. in
           let w = component_weights ~logscale pw (Spec.q spec) g orig tau u in
           let z = Array.fold_left ( +. ) 0. w in
           if z > 0. then total := !total +. log z +. !logscale
           else begin
             total := neg_infinity;
             raise Exit
           end
         end
       done
     with Exit -> ());
    !total

  let scope_diameter g scope =
    if Array.length scope <= 1 then 0
    else begin
      let worst = ref 0 in
      Array.iter
        (fun u ->
          let d = Graph.bfs_distances g u in
          Array.iter
            (fun v ->
              if d.(v) = max_int then
                invalid_arg "Spec.create: scope spans disconnected vertices";
              worst := max !worst d.(v))
            scope)
        scope;
      !worst
    end
end

(* --- generators --- *)

let random_graph rng family =
  match family with
  | 0 -> Generators.cycle (3 + Rng.int rng 14)
  | 1 -> Generators.path (1 + Rng.int rng 16)
  | 2 -> Generators.random_tree rng (1 + Rng.int rng 16)
  | 3 -> Generators.grid (1 + Rng.int rng 4) (1 + Rng.int rng 4)
  | _ -> Generators.erdos_renyi rng ~n:(1 + Rng.int rng 16) ~p:(0.4 *. Rng.float rng)

(* A spec that is not pairwise: per-vertex fields, and for every vertex
   with two neighbours a three-vertex factor on it and those neighbours
   that forbids all three being 1 and otherwise favours 1s. *)
let three_body g rng =
  let n = Graph.n g in
  let fields = Array.init n (fun _ -> 0.2 +. Rng.float rng) in
  let factors = ref [] in
  for v = n - 1 downto 0 do
    factors :=
      { Spec.scope = [| v |]; table = (fun vals -> if vals.(0) = 1 then fields.(v) else 1.) }
      :: !factors
  done;
  for w = 0 to n - 1 do
    let nb = Graph.neighbors g w in
    if Array.length nb >= 2 then begin
      let scope = [| nb.(0); nb.(1); w |] in
      Array.sort Int.compare scope;
      let table vals =
        let s = vals.(0) + vals.(1) + vals.(2) in
        if s = 3 then 0. else 1. +. (0.37 *. float_of_int s)
      in
      factors := { Spec.scope; table } :: !factors
    end
  done;
  Spec.create g ~q:2 ~factors:(List.rev !factors)

let random_spec rng g kind =
  match kind with
  | 0 -> Models.hardcore g ~lambda:(0.1 +. (2. *. Rng.float rng))
  | 1 -> Models.ising g ~beta:(0.1 +. Rng.float rng) ~field:(0.2 +. Rng.float rng)
  | 2 -> Models.potts g ~q:3 ~beta:(0.1 +. (1.5 *. Rng.float rng))
  | 3 -> Models.coloring g ~q:3
  | _ -> three_body g rng

(* Enumeration is exponential in the free vertices, so sets stay small. *)
let max_set = 9

(* A BFS ball of the largest radius ≤ [r] within [max_set] vertices, or an
   arbitrary (possibly disconnected) set containing [v]; always shuffled,
   so the kernels never see a sorted set by luck. *)
let random_set rng g v =
  let n = Graph.n g in
  let set =
    if Rng.bernoulli rng 0.5 then begin
      let r = ref (Rng.int rng 4) in
      while !r > 0 && Array.length (Graph.ball g v !r) > max_set do
        decr r
      done;
      Graph.ball g v !r
    end
    else begin
      let others = Array.init n Fun.id in
      Rng.shuffle rng others;
      let extra =
        List.filter (fun u -> u <> v) (Array.to_list others)
        |> List.filteri (fun i _ -> i < Rng.int rng max_set)
      in
      Array.of_list (v :: extra)
    end
  in
  Rng.shuffle rng set;
  set

let bits = function
  | None -> None
  | Some d -> Some (Array.init (Dist.size d) (fun c -> Int64.bits_of_float (Dist.prob d c)))

exception Found of int array

let qcheck_ball_kernels_bitwise =
  QCheck.Test.make ~name:"ball kernels = old kernels, bit for bit" ~count:600
    QCheck.(triple (int_range 0 4) (int_range 0 4) small_int)
    (fun (family, kind, seed) ->
      let rng = Rng.of_int (seed + (1000 * family) + (100 * kind)) in
      let g = random_graph rng family in
      let n = Graph.n g in
      let spec = random_spec rng g kind in
      let q = Spec.q spec in
      let pinned = Config.empty n in
      let p = 0.4 *. Rng.float rng in
      for u = 0 to n - 1 do
        if Rng.bernoulli rng p then pinned.(u) <- Rng.int rng q
      done;
      let v = Rng.int rng n in
      (* v itself both pinned and free. *)
      pinned.(v) <- (if Rng.bernoulli rng 0.5 then Config.unassigned else Rng.int rng q);
      let inst = Instance.create spec ~pinned in
      let ball = random_set rng g v in
      let same_marginal =
        bits (Exact.ball_marginal inst ~ball v)
        = bits (Reference.ball_marginal inst ~ball v)
      in
      (* Jvv's use: the first positive completion of the set. *)
      let first fold =
        match
          fold ~init:() ~f:(fun () sigma w ->
              if w > 0. then raise_notrace (Found (Array.copy sigma)))
        with
        | () -> None
        | exception Found sigma -> Some sigma
      in
      let members = Array.copy ball in
      Array.sort Int.compare members;
      let in_set = Array.make n false in
      Array.iter (fun u -> in_set.(u) <- true) ball;
      let same_first =
        first (Enumerate.fold_completions spec ~members pinned)
        = first (Reference.fold_completions spec ~member:(fun u -> in_set.(u)) pinned)
      in
      (* And the completions' weights, in order. *)
      let weights fold =
        List.rev (fold ~init:[] ~f:(fun acc _ w -> Int64.bits_of_float w :: acc))
      in
      let same_weights =
        weights (Enumerate.fold_completions spec ~members pinned)
        = weights (Reference.fold_completions spec ~member:(fun u -> in_set.(u)) pinned)
      in
      let same_log_z =
        kind = 4
        || (not (Graph.is_forest g))
        || Int64.bits_of_float (Forest_dp.log_partition spec pinned)
           = Int64.bits_of_float (Reference.log_partition spec pinned)
      in
      same_marginal && same_first && same_weights && same_log_z)

(* The models above have symmetric edge matrices.  Here the weight of an
   edge depends on its endpoints and on which colour is whose, so a
   kernel reading the spec's tables in the wrong orientation shows. *)
let qcheck_forest_oriented_bitwise =
  QCheck.Test.make ~name:"forest DP on tables = closure forest DP, oriented weights"
    ~count:300
    QCheck.(pair (int_range 1 4) small_int)
    (fun (q, seed) ->
      let rng = Rng.of_int ((100 * q) + seed) in
      (* A random tree plus isolated vertices: a forest. *)
      let tree = Generators.random_tree rng (1 + Rng.int rng 10) in
      let n = Graph.n tree + Rng.int rng 3 in
      let g = Graph.create ~n ~edges:(Graph.edges tree) in
      let salt = Rng.int rng 1000 and hard = Rng.bool rng in
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
      let pinned = Config.empty n in
      for u = 0 to n - 1 do
        if Rng.bernoulli rng 0.25 then pinned.(u) <- Rng.int rng q
      done;
      let v = Rng.int rng n in
      let inst = Instance.create spec ~pinned in
      let ball = random_set rng g v in
      bits (Exact.ball_marginal inst ~ball v) = bits (Reference.ball_marginal inst ~ball v)
      && Int64.bits_of_float (Forest_dp.log_partition spec pinned)
         = Int64.bits_of_float (Reference.log_partition spec pinned))

(* --- one contract for both kernels --- *)

let raises_naming_ball_marginal f =
  match f () with
  | _ -> false
  | exception Invalid_argument msg ->
      let key = "ball_marginal" in
      let lm = String.length msg and lk = String.length key in
      let rec at i = i + lk <= lm && (String.sub msg i lk = key || at (i + 1)) in
      at 0

let test_ball_contract () =
  let g = Generators.cycle 10 in
  List.iter
    (fun (name, spec) ->
      let inst = Instance.create spec ~pinned:(Config.of_pinning 10 [ (0, 1) ]) in
      Alcotest.(check bool)
        (name ^ ": pinned v outside the ball") true
        (raises_naming_ball_marginal (fun () -> Exact.ball_marginal inst ~ball:[| 3; 4; 5 |] 0));
      Alcotest.(check bool)
        (name ^ ": free v outside the ball") true
        (raises_naming_ball_marginal (fun () -> Exact.ball_marginal inst ~ball:[| 3; 4; 5 |] 7));
      Alcotest.(check bool)
        (name ^ ": duplicate vertex") true
        (raises_naming_ball_marginal (fun () ->
             Exact.ball_marginal inst ~ball:[| 2; 3; 2; 4 |] 3)))
    [ ("hardcore", Models.hardcore g ~lambda:1.); ("three-body", three_body g (Rng.of_int 5)) ]

(* --- allocation --- *)

(* The forest kernel indexes the ball in per-domain stamp scratch, so a
   call costs the ball: on the radius-2 ball of cycle:n around n/2, its
   sphere pinned to 0 as a boundary extension would pin it, a call after
   a warm-up allocates no major words and the same minor words at 2^10
   and 2^14, and gives the same bits. *)
let test_forest_ball_allocation () =
  let at n =
    let g = Generators.cycle n in
    let spec = Models.hardcore g ~lambda:1. in
    let v = n / 2 in
    let ball, d = Graph.ball_dist g v 2 in
    let tau = Config.empty n in
    Array.iteri (fun i u -> if d.(i) = 2 then tau.(u) <- 0) ball;
    let call () =
      match Forest_dp.ball_marginal spec ~ball tau v with
      | Forest_dp.Marginal m -> bits m
      | Forest_dp.Not_forest -> Alcotest.fail "cycle ball: not a forest"
    in
    ignore (call ());
    let r, minor, major = Test_ball.words call in
    Alcotest.(check bool) (Printf.sprintf "cycle:%d: %.0f major words" n major) true (major = 0.);
    (r, minor)
  in
  let small, small_minor = at 1024 in
  let large, large_minor = at 16384 in
  Alcotest.(check bool) "same marginal at both sizes" true (small = large);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words at 2^10, %.0f at 2^14" small_minor large_minor)
    true
    (small_minor = large_minor)

(* --- Spec.create's scope diameters --- *)

let qcheck_scope_diameter =
  QCheck.Test.make ~name:"Spec.create locality = whole-graph-BFS locality" ~count:300
    QCheck.(pair (int_range 0 4) small_int)
    (fun (family, seed) ->
      let rng = Rng.of_int seed in
      let g =
        if family = 4 then
          (* Sparse enough to be disconnected most of the time. *)
          Generators.erdos_renyi rng ~n:(1 + Rng.int rng 20) ~p:(0.15 *. Rng.float rng)
        else random_graph rng family
      in
      let n = Graph.n g in
      let scopes =
        List.init
          (1 + Rng.int rng 5)
          (fun _ ->
            let all = Array.init n Fun.id in
            Rng.shuffle rng all;
            let s = Array.sub all 0 (min n (1 + Rng.int rng 4)) in
            Array.sort Int.compare s;
            s)
      in
      let outcome f = match f () with x -> Ok x | exception Invalid_argument m -> Error m in
      let factors = List.map (fun scope -> { Spec.scope; table = (fun _ -> 1.) }) scopes in
      outcome (fun () -> Spec.locality (Spec.create g ~q:2 ~factors))
      = outcome (fun () ->
            List.fold_left (fun acc s -> max acc (Reference.scope_diameter g s)) 0 scopes))

let suite =
  [
    Alcotest.test_case "ball_marginal contract" `Quick test_ball_contract;
    QCheck_alcotest.to_alcotest qcheck_ball_kernels_bitwise;
    QCheck_alcotest.to_alcotest qcheck_scope_diameter;
    QCheck_alcotest.to_alcotest qcheck_forest_oriented_bitwise;
    Alcotest.test_case "forest ball_marginal: no major words, same minor words at 2^10 and 2^14"
      `Quick test_forest_ball_allocation;
  ]
