(* Tests for the chain-rule core (Chain): the in-place pinning with its
   trail, the one order check every entry point goes through, the
   counting reduction's log-weight, and a differential of every chain-rule
   site, the SLOCAL passes included, against a copy of the loop it
   replaced — one fresh n-length copy of the pinning per step — bit for
   bit, oracle call by oracle call. *)

module Graph = Ls_graph.Graph
module Generators = Ls_graph.Generators
module Dist = Ls_dist.Dist
module Rng = Ls_rng.Rng
module Config = Ls_gibbs.Config
module Spec = Ls_gibbs.Spec
module Models = Ls_gibbs.Models
module Enumerate = Ls_gibbs.Enumerate
module Scheduler = Ls_local.Scheduler
module Slocal = Ls_local.Slocal

open Ls_core

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let bits = Int64.bits_of_float

(* --- reference: the chain-rule loops as they stood --- *)

module Reference = struct
  (* The self-reduction step: a fresh copy of the pinning per pinned
     vertex. *)
  let pin (inst : Instance.t) v c =
    if Instance.is_pinned inst v then invalid_arg "Reference.pin: vertex already assigned";
    let pinned = Array.copy inst.Instance.pinned in
    pinned.(v) <- c;
    { inst with Instance.pinned }

  let check_order inst order =
    let n = Instance.n inst in
    if Array.length order <> n then invalid_arg "Reference: order must list every vertex";
    let seen = Array.make n false in
    Array.iter
      (fun v ->
        if v < 0 || v >= n || seen.(v) then
          invalid_arg "Reference: order is not a permutation";
        seen.(v) <- true)
      order

  let chain_pass (oracle : Inference.oracle) inst ~order ~choose =
    let current = ref inst in
    Array.iter
      (fun v ->
        if not (Instance.is_pinned !current v) then begin
          let mu_hat = oracle.Inference.infer !current v in
          current := pin !current v (choose v mu_hat)
        end)
      order;
    Array.copy !current.Instance.pinned

  let sample_planned (oracle : Inference.oracle) ~plan inst ~seed =
    let streams = Rng.streams seed (Instance.n inst + 1) in
    let sigma = ref [||] in
    let run ~order =
      sigma :=
        chain_pass oracle inst ~order ~choose:(fun v mu -> Dist.sample streams.(v + 1) mu)
    in
    let stats = Scheduler.run_plan plan ~run () in
    (!sigma, stats.Scheduler.failed)

  let output_distribution (oracle : Inference.oracle) inst ~order =
    check_order inst order;
    let acc = ref [] in
    let rec go i current p =
      if p <= 0. then ()
      else if i = Array.length order then
        acc := (Array.copy current.Instance.pinned, p) :: !acc
      else begin
        let v = order.(i) in
        if Instance.is_pinned current v then go (i + 1) current p
        else begin
          let mu_hat = oracle.Inference.infer current v in
          for c = 0 to Instance.q inst - 1 do
            let pc = Dist.prob mu_hat c in
            if pc > 0. then go (i + 1) (pin current v c) (p *. pc)
          done
        end
      end
    in
    go 0 inst 1.;
    List.rev !acc

  let estimate_log_partition (oracle : Inference.oracle) inst ~order =
    let sigma =
      Option.get
        (Ls_gibbs.Admissible.greedy_extension inst.Instance.spec inst.Instance.pinned)
    in
    let log_p = ref 0. in
    let current = ref inst in
    Array.iter
      (fun v ->
        if not (Instance.is_pinned !current v) then begin
          let p = Dist.prob (oracle.Inference.infer !current v) sigma.(v) in
          if not (p > 0.) then failwith "Reference: zero marginal on completion";
          log_p := !log_p +. log p;
          current := pin !current v sigma.(v)
        end)
      order;
    log (Spec.weight inst.Instance.spec sigma) -. !log_p

  (* Jvv.run: two chain passes, then the interpolation whose windowed
     products rebuilt one prefix instance per order position. *)
  let prefix_instance inst ~order ~upto sigma =
    let pinned = Array.copy inst.Instance.pinned in
    for j = 0 to upto - 1 do
      let v = order.(j) in
      if pinned.(v) = Config.unassigned then pinned.(v) <- sigma.(v)
    done;
    Instance.create inst.Instance.spec ~pinned

  let windowed_chain_product (oracle : Inference.oracle) inst ~order ~positions sigma =
    List.fold_left
      (fun acc j ->
        let v = order.(j) in
        if Instance.is_pinned inst v then acc
        else
          let inst_j = prefix_instance inst ~order ~upto:j sigma in
          acc *. Dist.prob (oracle.Inference.infer inst_j v) sigma.(v))
      1. positions

  exception Found_patch of int array

  let find_patch inst ~ball ~frozen ~sigma_prev =
    let spec = inst.Instance.spec in
    let n = Instance.n inst in
    let in_ball = Array.make n false in
    Array.iter (fun u -> in_ball.(u) <- true) ball;
    let in_closure = Array.copy in_ball in
    Array.iter
      (fun f ->
        if Array.exists (fun u -> in_ball.(u)) f.Spec.scope then
          Array.iter (fun u -> in_closure.(u) <- true) f.Spec.scope)
      (Spec.factors spec);
    let tau = Config.empty n in
    for u = 0 to n - 1 do
      if in_closure.(u) then
        if not in_ball.(u) then tau.(u) <- sigma_prev.(u)
        else match frozen u with Some c -> tau.(u) <- c | None -> ()
    done;
    let closure = List.filter (fun u -> in_closure.(u)) (List.init n Fun.id) in
    match
      Enumerate.fold_completions spec ~members:(Array.of_list closure) tau ~init:()
        ~f:(fun () sigma w -> if w > 0. then raise (Found_patch (Array.copy sigma)))
    with
    | () -> None
    | exception Found_patch sigma ->
        let patched = Array.copy sigma_prev in
        Array.iter (fun u -> patched.(u) <- sigma.(u)) ball;
        Some patched

  let weight_ratio inst ~ball sigma_i sigma_prev =
    let spec = inst.Instance.spec in
    let in_ball = Array.make (Instance.n inst) false in
    Array.iter (fun u -> in_ball.(u) <- true) ball;
    let num = ref 1. and den = ref 1. in
    Array.iteri
      (fun idx f ->
        if Array.exists (fun u -> in_ball.(u)) f.Spec.scope then begin
          num := !num *. Option.get (Spec.factor_value spec idx sigma_i);
          den := !den *. Option.get (Spec.factor_value spec idx sigma_prev)
        end)
      (Spec.factors spec);
    if !den <= 0. then infinity else !num /. !den

  let jvv_run (oracle : Inference.oracle) ~epsilon inst ~order ~rng =
    let n = Instance.n inst in
    let g = Instance.graph inst in
    let t = oracle.Inference.radius in
    let failed = Array.make n false in
    let ground = chain_pass oracle inst ~order ~choose:(fun _ mu -> Dist.argmax mu) in
    let y = chain_pass oracle inst ~order ~choose:(fun _ mu -> Dist.sample rng mu) in
    let position = Array.make n 0 in
    Array.iteri (fun j v -> position.(v) <- j) order;
    let qs = ref [] and clamps = ref 0 in
    let sigma_prev = ref (Array.copy ground) in
    Array.iteri
      (fun i v ->
        if not (Instance.is_pinned inst v) then begin
          let ball = Graph.ball g v t in
          let frozen u =
            if Instance.is_pinned inst u then Some inst.Instance.pinned.(u)
            else if position.(u) <= i then Some y.(u)
            else None
          in
          match find_patch inst ~ball ~frozen ~sigma_prev:!sigma_prev with
          | None -> failed.(v) <- true
          | Some sigma_i ->
              let window = Graph.ball g v (2 * t) in
              let positions =
                List.sort compare (Array.to_list (Array.map (fun u -> position.(u)) window))
              in
              let p_prev =
                windowed_chain_product oracle inst ~order ~positions !sigma_prev
              in
              let p_i = windowed_chain_product oracle inst ~order ~positions sigma_i in
              if not (p_prev > 0.) || not (p_i > 0.) then failed.(v) <- true
              else begin
                let slack = exp (-3. *. float_of_int n *. epsilon) in
                let q =
                  p_prev /. p_i *. weight_ratio inst ~ball sigma_i !sigma_prev *. slack
                in
                let q =
                  if q > 1. +. 1e-9 then begin
                    incr clamps;
                    1.
                  end
                  else Float.min q 1.
                in
                qs := (v, q) :: !qs;
                sigma_prev := sigma_i
              end
        end)
      order;
    let acceptance_product = ref 1. in
    List.iter
      (fun (v, q) ->
        acceptance_product := !acceptance_product *. q;
        if not (Rng.bernoulli rng q) then failed.(v) <- true)
      (List.rev !qs);
    (y, ground, failed, !clamps, !acceptance_product)

  (* The SLOCAL chain passes: a fresh copy of the pinning and an
     [Instance.create] per step.  Sequential_sampler.sample_slocal: *)
  let sample_slocal (oracle : Inference.oracle) inst ~order ~seed =
    check_order inst order;
    let g = Instance.graph inst in
    let rt =
      Slocal.create g ~seed ~init:(fun v ->
          if Instance.is_pinned inst v then Some inst.Instance.pinned.(v) else None)
    in
    Slocal.run_pass rt ~order ~radius:oracle.Inference.radius (fun ctx ->
        let v = Slocal.center ctx in
        match Slocal.read ctx v with
        | Some _ -> ()
        | None ->
            let pinned = Array.copy inst.Instance.pinned in
            Array.iter
              (fun u ->
                match Slocal.read ctx u with Some c -> pinned.(u) <- c | None -> ())
              (Slocal.ball ctx);
            let inst' = Instance.create inst.Instance.spec ~pinned in
            let mu_hat = oracle.Inference.infer inst' v in
            let c = Dist.sample (Slocal.rng ctx) mu_hat in
            Slocal.write ctx v (Some c));
    let sigma =
      Array.map (function Some c -> c | None -> assert false) (Slocal.states rt)
    in
    (sigma, Slocal.single_pass_locality rt)

  (* Jvv.run_certified's chain pass over one field of a record state. *)
  let chain_pass_certified (oracle : Inference.oracle) inst rt ~order ~field ~store
      ~choose =
    Slocal.run_pass rt ~order ~radius:oracle.Inference.radius (fun ctx ->
        let v = Slocal.center ctx in
        if not (Instance.is_pinned inst v) then begin
          let pinned = Array.copy inst.Instance.pinned in
          Array.iter
            (fun u ->
              let c = field (Slocal.read ctx u) in
              if c <> Config.unassigned && pinned.(u) = Config.unassigned then
                pinned.(u) <- c)
            (Slocal.ball ctx);
          let inst' = Instance.create inst.Instance.spec ~pinned in
          let mu_hat = oracle.Inference.infer inst' v in
          let c = choose ctx mu_hat in
          Slocal.write ctx v (store (Slocal.read ctx v) c)
        end)

  (* Ssm.influence_at: one pinned copy of the instance per sphere vertex
     and candidate boundary. *)
  let pin_sphere inst sphere values =
    let pins = Array.to_list (Array.mapi (fun i u -> (u, values.(i))) sphere) in
    List.fold_left
      (fun acc (u, c) ->
        match acc with
        | None -> None
        | Some inst' ->
            if Instance.is_pinned inst' u then
              if inst'.Instance.pinned.(u) = c then Some inst' else None
            else Some (pin inst' u c))
      (Some inst) pins

  let exhaustive_boundaries q k =
    let rec go i acc =
      if i = k then List.rev_map (fun l -> Array.of_list (List.rev l)) acc
      else
        go (i + 1)
          (List.concat_map (fun prefix -> List.init q (fun c -> c :: prefix)) acc)
    in
    go 0 [ [] ]

  let random_boundary ~rng inst sphere =
    let current = ref inst in
    let values = Array.make (Array.length sphere) 0 in
    try
      Array.iteri
        (fun i u ->
          if Instance.is_pinned !current u then values.(i) <- !current.Instance.pinned.(u)
          else
            match Exact.marginal !current u with
            | None -> raise Exit
            | Some m ->
                let c = Dist.sample rng m in
                values.(i) <- c;
                current := pin !current u c)
        sphere;
      Some values
    with Exit -> None

  let influence_at ~max_exhaustive ~samples ~rng inst ~v ~d =
    let q = Instance.q inst in
    let sphere =
      Array.of_list
        (List.filter
           (fun u -> not (Instance.is_pinned inst u))
           (Array.to_list (Graph.sphere (Instance.graph inst) v d)))
    in
    let k = Array.length sphere in
    if k = 0 then (0., 0., 0, true)
    else begin
      let exhaustive = float_of_int q ** float_of_int k <= float_of_int max_exhaustive in
      let candidates =
        if exhaustive then exhaustive_boundaries q k
        else
          List.init q (fun c -> Array.make k c)
          @ List.filter_map
              (fun _ -> random_boundary ~rng inst sphere)
              (List.init samples Fun.id)
      in
      let arr =
        Array.of_list
          (List.filter_map
             (fun values ->
               match pin_sphere inst sphere values with
               | None -> None
               | Some inst' -> Exact.marginal inst' v)
             candidates)
      in
      let worst_tv = ref 0. and worst_mult = ref 0. in
      let kk = Array.length arr in
      for i = 0 to kk - 1 do
        for j = i + 1 to kk - 1 do
          worst_tv := max !worst_tv (Dist.tv arr.(i) arr.(j));
          worst_mult := max !worst_mult (Dist.mult_err arr.(i) arr.(j))
        done
      done;
      (!worst_tv, !worst_mult, kk, exhaustive)
    end
end

(* --- random small instances --- *)

(* A cycle, path, tree or grid of at most 12 vertices, hardcore or Ising,
   with a random feasible pinning. *)
let random_instance rng =
  let g =
    match Rng.int rng 4 with
    | 0 -> Generators.cycle (3 + Rng.int rng 10)
    | 1 -> Generators.path (2 + Rng.int rng 11)
    | 2 -> Generators.random_tree rng (2 + Rng.int rng 11)
    | _ -> Generators.grid (2 + Rng.int rng 2) (2 + Rng.int rng 3)
  in
  let n = Graph.n g in
  let hardcore = Rng.bool rng in
  let spec =
    if hardcore then Models.hardcore g ~lambda:(0.3 +. (1.5 *. Rng.float rng))
    else Models.ising g ~beta:(0.8 *. Rng.float rng) ~field:(0.5 +. Rng.float rng)
  in
  let pinned = Config.empty n in
  for v = 0 to n - 1 do
    if Rng.bernoulli rng 0.3 then
      pinned.(v) <-
        (if hardcore && Array.exists (fun u -> pinned.(u) = 1) (Graph.neighbors g v) then 0
         else Rng.int rng 2)
  done;
  Instance.create spec ~pinned

(* The exact oracle where the whole-graph marginal is a cheap DP, the
   ball-local one everywhere. *)
let random_oracle rng inst =
  if Graph.is_forest (Instance.graph inst) && Rng.bool rng then Inference.exact inst
  else Inference.ssm_oracle ~t:1 inst

(* Every oracle call as (vertex, snapshot of the pinning it was shown). *)
let recording (oracle : Inference.oracle) =
  let calls = ref [] in
  ( {
      oracle with
      Inference.infer =
        (fun inst v ->
          calls := (v, Array.copy inst.Instance.pinned) :: !calls;
          oracle.Inference.infer inst v);
    },
    calls )

(* Run [reference] and [current] on fresh recording oracles; both must see
   the same calls, give [same] outputs, and leave the caller's pinning
   alone. *)
let differential inst oracle ~reference ~current ~same =
  let before = Array.copy inst.Instance.pinned in
  let o_ref, calls_ref = recording oracle and o_cur, calls_cur = recording oracle in
  let a = reference o_ref and b = current o_cur in
  same a b && !calls_ref = !calls_cur && inst.Instance.pinned = before

let seeded name ~count f =
  QCheck.Test.make ~name ~count
    QCheck.(int_bound 1_000_000)
    (fun seed -> f (Rng.of_int seed))

let float_list_bits l = List.map (fun (s, p) -> (s, bits p)) l

let qcheck_local_sampler =
  seeded "sample_planned = reference loop" ~count:40 (fun rng ->
      let inst = random_instance rng in
      let oracle = random_oracle rng inst in
      let seed = Rng.bits64 rng in
      let plan = Local_sampler.plan oracle inst ~seed in
      differential inst oracle
        ~reference:(fun o -> Reference.sample_planned o ~plan inst ~seed)
        ~current:(fun o ->
          let r = Local_sampler.sample_planned o ~plan inst ~seed in
          (r.Local_sampler.sigma, r.Local_sampler.failed))
        ~same:( = ))

let qcheck_output_distribution =
  seeded "output_distribution = reference recursion" ~count:25 (fun rng ->
      let inst = random_instance rng in
      let oracle = random_oracle rng inst in
      let order = Rng.permutation rng (Instance.n inst) in
      differential inst oracle
        ~reference:(fun o -> float_list_bits (Reference.output_distribution o inst ~order))
        ~current:(fun o ->
          float_list_bits (Sequential_sampler.output_distribution o inst ~order))
        ~same:( = ))

let qcheck_jvv =
  seeded "Jvv.run = reference passes" ~count:25 (fun rng ->
      let inst = random_instance rng in
      let oracle = random_oracle rng inst in
      let order = Rng.permutation rng (Instance.n inst) in
      let epsilon = Jvv.theory_epsilon inst in
      let seed = Rng.bits64 rng in
      differential inst oracle
        ~reference:(fun o ->
          let y, ground, failed, clamps, product =
            Reference.jvv_run o ~epsilon inst ~order ~rng:(Rng.create seed)
          in
          (y, ground, failed, clamps, bits product))
        ~current:(fun o ->
          let r = Jvv.run o ~epsilon inst ~order ~rng:(Rng.create seed) in
          ( r.Jvv.y,
            r.Jvv.ground,
            r.Jvv.failed,
            r.Jvv.clamped,
            bits r.Jvv.acceptance_product ))
        ~same:( = ))

let qcheck_sample_slocal =
  seeded "slocal_pass, option states = reference pass" ~count:40 (fun rng ->
      let inst = random_instance rng in
      let oracle = random_oracle rng inst in
      let order = Rng.permutation rng (Instance.n inst) in
      let seed = Rng.bits64 rng in
      differential inst oracle
        ~reference:(fun o -> Reference.sample_slocal o inst ~order ~seed)
        ~current:(fun o -> Sequential_sampler.sample_slocal o inst ~order ~seed)
        ~same:( = ))

(* JVV's first two certified passes: an arg-max into one field of a record
   state, then a node-stream draw into another. *)
type jvv_state = { ground : int; y : int }

let qcheck_record_slocal_pass =
  seeded "slocal_pass, record fields = reference pass" ~count:40 (fun rng ->
      let inst = random_instance rng in
      let oracle = random_oracle rng inst in
      let order = Rng.permutation rng (Instance.n inst) in
      let seed = Rng.bits64 rng in
      let passes pass =
        let rt =
          Slocal.create (Instance.graph inst) ~seed ~init:(fun v ->
              let c = inst.Instance.pinned.(v) in
              { ground = c; y = c })
        in
        pass rt
          ~field:(fun s -> s.ground)
          ~store:(fun s c -> { s with ground = c })
          ~choose:(fun _ mu -> Dist.argmax mu);
        pass rt
          ~field:(fun s -> s.y)
          ~store:(fun s c -> { s with y = c })
          ~choose:(fun ctx mu -> Dist.sample (Slocal.rng ctx) mu);
        (Slocal.states rt, Slocal.pass_localities rt)
      in
      differential inst oracle
        ~reference:(fun o ->
          passes (fun rt ~field ~store ~choose ->
              Reference.chain_pass_certified o inst rt ~order ~field ~store ~choose))
        ~current:(fun o ->
          passes (fun rt ~field ~store ~choose ->
              Chain.slocal_pass inst rt ~order ~radius:o.Inference.radius ~field
                ~store ~choose:(fun ctx live v -> choose ctx (o.Inference.infer live v))))
        ~same:( = ))

let qcheck_estimate_log_partition =
  seeded "estimate_log_partition = reference loop" ~count:40 (fun rng ->
      let inst = random_instance rng in
      let oracle = random_oracle rng inst in
      let order = Rng.permutation rng (Instance.n inst) in
      differential inst oracle
        ~reference:(fun o -> bits (Reference.estimate_log_partition o inst ~order))
        ~current:(fun o -> bits (Reductions.estimate_log_partition o inst ~order))
        ~same:( = ))

let qcheck_influence_at =
  seeded "influence_at = reference boundaries" ~count:40 (fun rng ->
      let inst = random_instance rng in
      let n = Instance.n inst in
      let v = Rng.int rng n and d = 1 + Rng.int rng 3 in
      let max_exhaustive = 1 + Rng.int rng 64 and samples = Rng.int rng 8 in
      let seed = Rng.bits64 rng in
      let before = Array.copy inst.Instance.pinned in
      let rng_ref = Rng.create seed and rng_cur = Rng.create seed in
      let tv, mult, configs, exhaustive =
        Reference.influence_at ~max_exhaustive ~samples ~rng:rng_ref inst ~v ~d
      in
      let p = Ssm.influence_at ~max_exhaustive ~samples ~rng:rng_cur inst ~v ~d in
      bits tv = bits p.Ssm.tv
      && bits mult = bits p.Ssm.mult
      && configs = p.Ssm.boundary_configs
      && exhaustive = p.Ssm.exhaustive
      && Rng.bits64 rng_ref = Rng.bits64 rng_cur
      && inst.Instance.pinned = before)

(* --- the core itself --- *)

let test_pin_undo () =
  let spec = Models.hardcore (Generators.path 5) ~lambda:1. in
  let inst = Instance.of_pins spec [ (1, 1) ] in
  let chain = Chain.start inst in
  let live = Chain.instance chain in
  Chain.pin chain 3 1;
  checki "pinned in place" 1 live.Instance.pinned.(3);
  checkb "caller's pinning untouched" false (Instance.is_pinned inst 3);
  Alcotest.check_raises "re-pin" (Invalid_argument "Chain.pin: vertex already pinned")
    (fun () -> Chain.pin chain 1 0);
  Alcotest.check_raises "alphabet" (Invalid_argument "Chain.pin: value out of alphabet")
    (fun () -> Chain.pin chain 0 2);
  let m = Chain.mark chain in
  Chain.pin chain 0 0;
  let inner = Chain.mark chain in
  Chain.pin chain 4 0;
  let snap = Array.copy live.Instance.pinned in
  Chain.undo chain inner;
  checkb "undo to inner mark" true
    (Chain.is_pinned chain 0 && not (Chain.is_pinned chain 4));
  Chain.undo chain m;
  checkb "undo to outer mark" true
    (live.Instance.pinned = [| -1; 1; -1; 1; -1 |] && Chain.is_pinned chain 3);
  checkb "pinned before the undo" true (snap = [| 0; 1; -1; 1; 0 |]);
  checkb "caller's pinning still untouched" true
    (inst.Instance.pinned = [| -1; 1; -1; -1; -1 |]);
  let sigma = Chain.run inst ~order:[| 4; 3; 2; 1; 0 |] ~choose:(fun _ _ -> 0) in
  checkb "run pins every free vertex" true (sigma = [| 0; 1; 0; 0; 0 |]);
  checkb "run leaves the caller's pinning alone" true
    (inst.Instance.pinned = [| -1; 1; -1; -1; -1 |])

(* Every chain-rule entry point rejects an order that misses a vertex or
   repeats one.  Unchecked, the counting reduction answers 7.006242 here
   (ln Z = 7.699389) and JVV dies on an assertion. *)
let test_orders_checked_everywhere () =
  let inst = Instance.unpinned (Models.hardcore (Generators.cycle 16) ~lambda:1.) in
  let oracle = Inference.exact inst in
  let short = Array.init 15 Fun.id in
  let twice = Array.init 16 (fun i -> if i = 15 then 0 else i) in
  let rejects name f =
    List.iter
      (fun (what, order) ->
        match f order with
        | _ -> Alcotest.failf "%s accepted an order %s" name what
        | exception Invalid_argument _ -> ())
      [ ("missing a vertex", short); ("listing a vertex twice", twice) ]
  in
  let rng () = Rng.create 1L in
  let epsilon = Jvv.theory_epsilon inst in
  rejects "estimate_log_partition" (fun order ->
      Reductions.estimate_log_partition oracle inst ~order);
  rejects "log_partition_via_sampling" (fun order ->
      Reductions.log_partition_via_sampling
        ~sample:(fun _ _ -> None)
        inst ~order ~samples:1 ~rng:(rng ()));
  rejects "Sequential_sampler.sample" (fun order ->
      Sequential_sampler.sample oracle inst ~order ~rng:(rng ()));
  rejects "Sequential_sampler.output_distribution" (fun order ->
      Sequential_sampler.output_distribution oracle inst ~order);
  rejects "Sequential_sampler.chain_rule_probability" (fun order ->
      Sequential_sampler.chain_rule_probability oracle inst ~order (Array.make 16 0));
  rejects "Jvv.run" (fun order -> Jvv.run oracle ~epsilon inst ~order ~rng:(rng ()));
  rejects "Jvv.output_distribution" (fun order ->
      Jvv.output_distribution oracle ~epsilon inst ~order);
  rejects "Jvv.run_certified" (fun order ->
      Jvv.run_certified oracle ~epsilon inst ~order ~seed:1L);
  Alcotest.check_raises "short sigma"
    (Invalid_argument
       "Sequential_sampler.chain_rule_probability: sigma must have one value per vertex")
    (fun () ->
      ignore
        (Sequential_sampler.chain_rule_probability oracle inst
           ~order:(Array.init 16 Fun.id) (Array.make 15 0)))

(* At β = 0.1 the weight w(σ) of the greedy completion on a 400-cycle is
   below the smallest float: the product underflowed to 0 and the
   reduction answered −∞. *)
let test_log_weight_no_underflow () =
  let inst = Instance.unpinned (Models.ising (Generators.cycle 400) ~beta:0.1 ~field:1.) in
  let got = Counting.log_z_local (Inference.exact inst) inst in
  let want = Counting.log_z_exact inst in
  checkb
    (Printf.sprintf "ln Z %.9f vs exact %.9f" got want)
    true
    (Float.abs (got -. want) <= 1e-9 *. Float.abs want)

let suite =
  [
    Alcotest.test_case "pin/undo and run over one pinning" `Quick test_pin_undo;
    Alcotest.test_case "every entry point checks its order" `Quick
      test_orders_checked_everywhere;
    Alcotest.test_case "counting: ln w(σ) does not underflow" `Quick
      test_log_weight_no_underflow;
    QCheck_alcotest.to_alcotest qcheck_local_sampler;
    QCheck_alcotest.to_alcotest qcheck_output_distribution;
    QCheck_alcotest.to_alcotest qcheck_jvv;
    QCheck_alcotest.to_alcotest qcheck_sample_slocal;
    QCheck_alcotest.to_alcotest qcheck_record_slocal_pass;
    QCheck_alcotest.to_alcotest qcheck_estimate_log_partition;
    QCheck_alcotest.to_alcotest qcheck_influence_at;
  ]
