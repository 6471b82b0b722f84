(* The table-driven enumerator: a bitwise differential against a frozen
   copy of the countdown enumerator it replaced, on every served model,
   oriented pairwise weights and general factors, over graphs with
   cycles; and a set-up that allocates words in the ball, not in n. *)

module Graph = Ls_graph.Graph
module Generators = Ls_graph.Generators
module Dist = Ls_dist.Dist
module Rng = Ls_rng.Rng
module Config = Ls_gibbs.Config
module Models = Ls_gibbs.Models
module Spec = Ls_gibbs.Spec
module Enumerate = Ls_gibbs.Enumerate

(* --- reference: the enumerator as it stood before the completion lists --- *)

module Reference = struct
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
end

(* --- inputs --- *)

(* Graphs with cycles first: the ball engine enumerates only there. *)
let random_graph rng =
  match Rng.int rng 6 with
  | 0 -> Generators.grid (2 + Rng.int rng 2) (2 + Rng.int rng 3)
  | 1 -> Generators.complete 4
  | 2 -> Generators.erdos_renyi rng ~n:(2 + Rng.int rng 8) ~p:(0.2 +. (0.5 *. Rng.float rng))
  | 3 -> Generators.cycle (3 + Rng.int rng 6)
  | 4 -> Generators.torus 3 3
  | _ -> Generators.random_tree rng (1 + Rng.int rng 8)

(* Every model the serving engine parses, with drawn parameters. *)
let served_model rng =
  let f lo span = lo +. (span *. Rng.float rng) in
  match Rng.int rng 7 with
  | 0 -> Printf.sprintf "hardcore:%g" (f 0.1 2.)
  | 1 -> Printf.sprintf "ising:%g" (f 0.1 1.)
  | 2 -> Printf.sprintf "ising:%g:%g" (f 0.1 1.) (f 0.2 1.)
  | 3 -> Printf.sprintf "potts:%d:%g" (2 + Rng.int rng 2) (f 0.1 1.5)
  | 4 -> Printf.sprintf "coloring:%d" (2 + Rng.int rng 4)
  | 5 -> Printf.sprintf "coloring:%d" (3 + Rng.int rng 2)
  | _ -> Printf.sprintf "matching:%g" (f 0.2 2.)

(* Weights that depend on the endpoints and on which colour is whose, so
   a table read in the wrong orientation shows. *)
let oriented rng g =
  let q = 1 + Rng.int rng 3 and salt = Rng.int rng 1000 and hard = Rng.bool rng in
  Spec.create_pairwise g ~q
    {
      Spec.vertex_weight = (fun v c -> float_of_int (1 + ((salt + (3 * v) + c) mod 5)) /. 3.);
      edge_weight =
        (fun u w cu cw ->
          let h = (salt + (7 * u) + (11 * w) + (5 * cu) + (13 * cw)) mod 6 in
          if hard && h = 0 then 0. else float_of_int (1 + h) /. 4.);
    }

let random_spec rng g =
  match Rng.int rng 3 with
  | 0 -> (
      match Ls_serve.Engine.parse_model g (served_model rng) with
      | Ok m -> m.Ls_serve.Engine.spec
      | Error e -> failwith e)
  | 1 -> oriented rng g
  | _ -> Test_exact.three_body g rng

(* A random pinning; some pinned values clash, so infeasible pinnings
   come up, and with [bad] one pinned value lies outside the alphabet. *)
let random_pinning rng spec ~bad =
  let n = Graph.n (Spec.graph spec) and q = Spec.q spec in
  let tau = Config.empty n in
  let p = 0.6 *. Rng.float rng in
  for u = 0 to n - 1 do
    if Rng.bernoulli rng p then tau.(u) <- Rng.int rng q
  done;
  if bad && n > 0 then tau.(Rng.int rng n) <- q;
  tau

(* A set around [v]: a BFS ball sorted as [Graph.ball_dist] returns it,
   the same shuffled, or an arbitrary set; sometimes with a repeat. *)
let random_set rng g v =
  let set =
    match Rng.int rng 3 with
    | 0 -> Graph.ball g v (Rng.int rng 3)
    | 1 ->
        let b = Graph.ball g v (Rng.int rng 3) in
        Rng.shuffle rng b;
        b
    | _ ->
        let n = Graph.n g in
        let others = Array.init n Fun.id in
        Rng.shuffle rng others;
        Array.of_list
          (v :: List.filteri (fun i u -> u <> v && i < Rng.int rng 8) (Array.to_list others))
  in
  if Array.length set > 0 && Rng.bernoulli rng 0.1 then
    Array.append set [| set.(Rng.int rng (Array.length set)) |]
  else set

(* --- comparison --- *)

let outcome f =
  match f () with
  | x -> Ok x
  | exception Invalid_argument m -> Error ("Invalid_argument " ^ m)
  | exception Failure m -> Error ("Failure " ^ m)

let fbits = Int64.bits_of_float

let dist_bits = function
  | None -> None
  | Some d -> Some (Array.init (Dist.size d) (fun c -> fbits (Dist.prob d c)))

let support_bits = List.map (fun (sigma, p) -> (sigma, fbits p))

(* Whole-instance enumerations stay under this many leaves. *)
let budget = 20_000

let rec pow q k = if k = 0 then 1 else q * pow q (k - 1)

let qcheck_enumerator_bitwise =
  QCheck.Test.make ~name:"completion-list enumerator = countdown enumerator, bit for bit"
    ~count:800 QCheck.small_int (fun seed ->
      let rng = Rng.of_int (7919 * (seed + 1)) in
      let g = random_graph rng in
      let spec = random_spec rng g in
      let sg = Spec.graph spec in
      let n = Graph.n sg and q = Spec.q spec in
      if n = 0 then true
      else begin
        let tau = random_pinning rng spec ~bad:(Rng.bernoulli rng 0.05) in
        let v = Rng.int rng n in
        let ball = random_set rng sg v in
        let same_ball =
          outcome (fun () -> dist_bits (Enumerate.ball_marginal spec ~ball tau v))
          = outcome (fun () -> dist_bits (Reference.ball_marginal spec ~ball tau v))
        in
        (* The leaf weights in order, on the set itself (unsorted sets
           must be refused with the same text). *)
        let weights fold = List.rev (fold ~init:[] ~f:(fun acc _ w -> fbits w :: acc)) in
        let same_fold =
          outcome (fun () -> weights (Enumerate.fold_completions spec ~members:ball tau))
          = outcome (fun () -> weights (Reference.fold_completions spec ~members:ball tau))
        in
        let free = List.length (List.filter (( = ) Config.unassigned) (Array.to_list tau)) in
        let same_whole =
          pow q free > budget
          || outcome (fun () -> fbits (Enumerate.partition spec tau))
             = outcome (fun () -> fbits (Reference.partition spec tau))
             && outcome (fun () -> support_bits (Enumerate.distribution spec tau))
                = outcome (fun () -> support_bits (Reference.distribution spec tau))
        in
        let same_count =
          pow q n > budget
          || outcome (fun () -> Enumerate.count_feasible spec)
             = outcome (fun () -> Reference.count_feasible spec)
        in
        same_ball && same_fold && same_whole && same_count
      end)

(* --- allocation --- *)

(* hardcore λ=1 on grid:w×w, the radius-2 ball around a middle vertex
   with its sphere pinned to 0 as a boundary extension would pin it:
   5 free vertices, 32 leaves.  The old enumerator's copy of [tau] alone
   was n words. *)
let ball_case w =
  let g = Generators.grid w w in
  let spec = Models.hardcore g ~lambda:1. in
  let v = ((w / 2) * w) + (w / 2) in
  let ball, d = Graph.ball_dist g v 2 in
  let tau = Config.empty (Graph.n g) in
  Array.iteri (fun i u -> if d.(i) = 2 then tau.(u) <- 0) ball;
  (spec, ball, tau, v)

let test_ball_marginal_allocation () =
  List.iter
    (fun w ->
      let spec, ball, tau, v = ball_case w in
      let expected = dist_bits (Reference.ball_marginal spec ~ball tau v) in
      ignore (Enumerate.ball_marginal spec ~ball tau v);
      let r, minor, major =
        Test_ball.words (fun () -> Enumerate.ball_marginal spec ~ball tau v)
      in
      let name = Printf.sprintf "grid:%dx%d" w w in
      Alcotest.(check bool) (name ^ ": same marginal") true (dist_bits r = expected);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f minor words < 200" name minor)
        true (minor < 200.);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f major words < 200" name major)
        true (major < 200.))
    [ 8; 128 ]

(* The enumerator's stamp scratch, through {!Test_ball.scratch_hygiene}:
   radius-1 and radius-2 balls of grid:4x4 and grid:64x64, the sphere of
   a radius-2 ball pinned to 0 as a boundary extension would pin it.  The
   raising call pins the ball's last member other than [v] outside the
   alphabet, so the members before it are stamped when the set-up
   raises. *)
let test_enumerate_hygiene () =
  let rng = Rng.of_int 31 in
  let spec_on g =
    match Rng.int rng 3 with
    | 0 -> Models.hardcore g ~lambda:(0.3 +. Rng.float rng)
    | 1 -> Models.coloring g ~q:3
    | _ -> oriented rng g
  in
  let small = Generators.grid 4 4 and large = Generators.grid 64 64 in
  let queries =
    Array.init 24 (fun i ->
        let g = if i mod 2 = 0 then small else large in
        let spec = spec_on g and v = Rng.int rng (Graph.n g) in
        let r = 1 + Rng.int rng 2 in
        let ball, d = Graph.ball_dist g v r in
        let tau = random_pinning rng spec ~bad:false in
        tau.(v) <- Config.unassigned;
        Array.iteri (fun j u -> if d.(j) = 2 then tau.(u) <- 0) ball;
        (spec, ball, tau, v))
  in
  Test_ball.scratch_hygiene queries
    ~raising:(fun (spec, ball, tau, v) ->
      let k = Array.length ball in
      let bad = Array.copy tau in
      bad.(if ball.(k - 1) = v then ball.(k - 2) else ball.(k - 1)) <- Spec.q spec;
      ignore (Enumerate.ball_marginal spec ~ball bad v))
    ~answer:(fun (spec, ball, tau, v) -> dist_bits (Enumerate.ball_marginal spec ~ball tau v))
    ~reference:(fun (spec, ball, tau, v) ->
      dist_bits (Reference.ball_marginal spec ~ball tau v))

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_enumerator_bitwise;
    Alcotest.test_case "ball_marginal allocates O(ball) words at any n" `Quick
      test_ball_marginal_allocation;
    Alcotest.test_case "scratch: after a raise, n=16/4096, 2 domains" `Quick
      test_enumerate_hygiene;
  ]
