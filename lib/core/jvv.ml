module Gibbs = Ls_gibbs
module Config = Gibbs.Config
module Graph = Ls_graph.Graph
module Dist = Ls_dist.Dist
module Rng = Ls_rng.Rng
module Scheduler = Ls_local.Scheduler

type result = {
  y : int array;
  ground : int array;
  failed : bool array;
  success : bool;
  clamped : int;
  acceptance_product : float;
}

let theory_epsilon inst =
  let n = float_of_int (Instance.n inst) in
  1. /. (n *. n *. n)

(* mu_hat^tau(sigma) restricted to the order positions in [positions]
   (sorted ascending): the partial chain-rule product
   Π_j mu_hat^{tau ∧ sigma^{j-1}}_{v_j}(sigma_{v_j}).  Positions at pinned
   vertices contribute factor 1.  One walk over [chain] (at tau) extends
   the prefix position by position and undoes it at the end.  [support]
   restricts which vertices the prefix may mention — the
   certified-locality run passes the gathered radius; by the oracle's
   radius contract the answers are unchanged. *)
let windowed_chain_product ?(support = fun _ -> true) (oracle : Inference.oracle)
    chain ~order ~positions sigma =
  let m = Chain.mark chain in
  let next = ref 0 in
  let product =
    List.fold_left
      (fun acc j ->
        while !next < j do
          let u = order.(!next) in
          if support u && sigma.(u) <> Config.unassigned && not (Chain.is_pinned chain u)
          then Chain.pin chain u sigma.(u);
          incr next
        done;
        let v = order.(j) in
        if Chain.is_pinned chain v then acc
        else
          acc *. Dist.prob (oracle.Inference.infer (Chain.instance chain) v) sigma.(v))
      1. positions
  in
  Chain.undo chain m;
  product

exception Found_patch of int array

(* Find sigma_i: equal to sigma_prev outside B_t(v_i), equal to Y on
   processed vertices and tau on pinned ones inside, globally feasible.
   Returns None when no such configuration exists (Claim 4.6 says it does
   when the oracle error is small; a None is a certifiable local failure). *)
let find_patch inst ~ball ~frozen ~sigma_prev =
  let spec = inst.Instance.spec in
  let n = Instance.n inst in
  let in_ball = Array.make n false in
  Array.iter (fun u -> in_ball.(u) <- true) ball;
  (* Closure: the ball plus every vertex sharing a factor with it, so that
     positivity over the closure certifies global feasibility given that
     sigma_prev is feasible. *)
  let in_closure = Array.copy in_ball in
  Array.iter
    (fun f ->
      if Array.exists (fun u -> in_ball.(u)) f.Gibbs.Spec.scope then
        Array.iter (fun u -> in_closure.(u) <- true) f.Gibbs.Spec.scope)
    (Gibbs.Spec.factors spec);
  let tau = Config.empty n in
  for u = 0 to n - 1 do
    if in_closure.(u) then
      if not in_ball.(u) then tau.(u) <- sigma_prev.(u)
      else
        match frozen u with Some c -> tau.(u) <- c | None -> ()
  done;
  let closure = ref [] in
  for u = n - 1 downto 0 do
    if in_closure.(u) then closure := u :: !closure
  done;
  match
    Gibbs.Enumerate.fold_completions spec ~members:(Array.of_list !closure) tau
      ~init:()
      ~f:(fun () sigma w ->
        if w > 0. then raise (Found_patch (Array.copy sigma)))
  with
  | () -> None
  | exception Found_patch sigma ->
      let patched = Array.copy sigma_prev in
      Array.iter (fun u -> patched.(u) <- sigma.(u)) ball;
      Some patched

(* w(sigma_i)/w(sigma_prev), over the factors whose scope meets the ball
   (eq. 12) — all other factors are evaluated identically. *)
let weight_ratio inst ~ball sigma_i sigma_prev =
  let spec = inst.Instance.spec in
  let n = Instance.n inst in
  let in_ball = Array.make n false in
  Array.iter (fun u -> in_ball.(u) <- true) ball;
  let num = ref 1. and den = ref 1. in
  Array.iteri
    (fun idx f ->
      if Array.exists (fun u -> in_ball.(u)) f.Gibbs.Spec.scope then begin
        (match Gibbs.Spec.factor_value spec idx sigma_i with
        | Some x -> num := !num *. x
        | None -> assert false);
        match Gibbs.Spec.factor_value spec idx sigma_prev with
        | Some x -> den := !den *. x
        | None -> assert false
      end)
    (Gibbs.Spec.factors spec);
  if !den <= 0. then infinity else !num /. !den

type acceptance = {
  qs : (int * float) list;  (** [(vertex, q_{v_i})] for the free vertices. *)
  patch_failed : int list;  (** Vertices where no interpolation patch exists. *)
  clamps : int;
}

let clamp_tolerance = 1e-9

(* One interpolation step at [v]: the patch [sigma_i] of [sigma_prev] on
   [ball] (see [find_patch]) and its acceptance probability q_{v_i}, eq. (9)
   via the window of eq. (11): only order positions within distance 2t of v
   can have differing prefix marginals.  [None] when there is no patch or a
   windowed product vanishes; [clamps] counts each q > 1 cut back to 1.
   [chain] sits at tau.  The slack only needs to dominate the mu-hat ratio's
   deviation from 1; the paper's bound uses all n sites, the adaptive
   variant only the window that actually enters the ratio (a
   sigma-independent quantity, so exactness is unaffected — ablated in the
   benches). *)
let acceptance ?support (oracle : Inference.oracle) ~epsilon ~adaptive ~clamps
    chain ~order ~position ~ball ~frozen v sigma_prev =
  let inst = Chain.instance chain in
  match find_patch inst ~ball ~frozen ~sigma_prev with
  | None -> None
  | Some sigma_i ->
      let window = Graph.ball (Instance.graph inst) v (2 * oracle.Inference.radius) in
      let positions =
        List.sort compare (Array.to_list (Array.map (fun u -> position.(u)) window))
      in
      let p_prev =
        windowed_chain_product ?support oracle chain ~order ~positions sigma_prev
      in
      let p_i = windowed_chain_product ?support oracle chain ~order ~positions sigma_i in
      if not (p_prev > 0.) || not (p_i > 0.) then None
      else begin
        let sites = if adaptive then Array.length window else Instance.n inst in
        let slack = exp (-3. *. float_of_int sites *. epsilon) in
        let q = p_prev /. p_i *. weight_ratio inst ~ball sigma_i sigma_prev *. slack in
        if q > 1. +. clamp_tolerance then begin
          incr clamps;
          Some (sigma_i, 1.)
        end
        else Some (sigma_i, Float.min q 1.)
      end

let acceptances (oracle : Inference.oracle) ~epsilon ?(adaptive = false) inst
    ~order ~ground ~y =
  let n = Instance.n inst in
  let g = Instance.graph inst in
  let t = oracle.Inference.radius in
  let position = Array.make n 0 in
  Array.iteri (fun j v -> position.(v) <- j) order;
  let qs = ref [] in
  let patch_failed = ref [] in
  let clamps = ref 0 in
  let sigma_prev = ref (Array.copy ground) in
  let chain = Chain.start inst in
  Array.iteri
    (fun i v ->
      if not (Instance.is_pinned inst v) then begin
        let ball = Graph.ball g v t in
        let frozen u =
          if Instance.is_pinned inst u then Some inst.Instance.pinned.(u)
          else if position.(u) <= i then Some y.(u)
          else None
        in
        match
          acceptance oracle ~epsilon ~adaptive ~clamps chain ~order ~position ~ball
            ~frozen v !sigma_prev
        with
        | None -> patch_failed := v :: !patch_failed
        | Some (sigma_i, q) ->
            qs := (v, q) :: !qs;
            sigma_prev := sigma_i
      end)
    order;
  ( { qs = List.rev !qs; patch_failed = List.rev !patch_failed; clamps = !clamps },
    !sigma_prev )

(* Pass 1 (also the start of the exact law): the arg-max chain pass. *)
let ground_pass (oracle : Inference.oracle) inst ~order =
  Chain.run inst ~order ~choose:(fun live v ->
      Dist.argmax (oracle.Inference.infer live v))

let run (oracle : Inference.oracle) ~epsilon ?adaptive inst ~order ~rng =
  let n = Instance.n inst in
  let failed = Array.make n false in
  (* Pass 1: the ground state. *)
  let ground = ground_pass oracle inst ~order in
  (* Pass 2: the chain-rule sample Y. *)
  let y = Sequential_sampler.sample oracle inst ~order ~rng in
  (* Pass 3: interpolate sigma_0 -> Y with local patches and acceptance. *)
  let acc, final = acceptances oracle ~epsilon ?adaptive inst ~order ~ground ~y in
  List.iter (fun v -> failed.(v) <- true) acc.patch_failed;
  let acceptance_product = ref 1. in
  List.iter
    (fun (v, q) ->
      acceptance_product := !acceptance_product *. q;
      if not (Rng.bernoulli rng q) then failed.(v) <- true)
    acc.qs;
  let success = Array.for_all not failed in
  (* Sanity: the interpolation must have arrived at Y. *)
  if success && final <> y then failwith "Jvv.run: interpolation did not reach Y";
  {
    y;
    ground;
    failed;
    success;
    clamped = acc.clamps;
    acceptance_product = !acceptance_product;
  }

type exact_output = {
  conditional : (int array * float) list;
      (** The exact law of [Y] conditioned on success. *)
  success_probability : float;
  total_clamps : int;
}

let output_distribution (oracle : Inference.oracle) ~epsilon ?adaptive inst
    ~order =
  let ground = ground_pass oracle inst ~order in
  let mu_hat = Sequential_sampler.output_distribution oracle inst ~order in
  let total_clamps = ref 0 in
  let weighted =
    List.map
      (fun (sigma, p) ->
        let acc, _ = acceptances oracle ~epsilon ?adaptive inst ~order ~ground ~y:sigma in
        total_clamps := !total_clamps + acc.clamps;
        let accept =
          if acc.patch_failed <> [] then 0.
          else List.fold_left (fun a (_, q) -> a *. q) 1. acc.qs
        in
        (sigma, p *. accept))
      mu_hat
  in
  let success_probability = List.fold_left (fun a (_, w) -> a +. w) 0. weighted in
  let conditional =
    if success_probability > 0. then
      List.filter_map
        (fun (sigma, w) ->
          if w > 0. then Some (sigma, w /. success_probability) else None)
        weighted
    else []
  in
  { conditional; success_probability; total_clamps = !total_clamps }

(* ------------------------------------------------------------------ *)
(* Certified-locality execution: the same three passes, but every state
   access goes through the locality-enforcing SLOCAL runtime, so a
   completed run has PROVED the localities (t, t, 3t+l) claimed in the
   paper (Claims 4.6/4.7), rather than having them asserted. *)

module Slocal = Ls_local.Slocal

type node_state = { ground : int; y : int; cur : int }

type certified = {
  result : result;
  pass_localities : int list;  (** Measured per pass: [t; t; 0; 3t+l]. *)
  certified_locality : int;  (** The Lemma 4.4 single-pass bound. *)
}

let run_certified (oracle : Inference.oracle) ~epsilon ?(adaptive = false) inst
    ~order ~seed =
  Chain.check_order inst order;
  let n = Instance.n inst in
  let g = Instance.graph inst in
  let t = oracle.Inference.radius in
  let ell = Instance.locality inst in
  let big_r = (3 * t) + ell in
  let position = Array.make n 0 in
  Array.iteri (fun j v -> position.(v) <- j) order;
  let init v =
    let c =
      if Instance.is_pinned inst v then inst.Instance.pinned.(v)
      else Config.unassigned
    in
    { ground = c; y = c; cur = Config.unassigned }
  in
  let rt = Slocal.create g ~seed ~init in
  (* Pass 1: ground state. *)
  Chain.slocal_pass inst rt ~order ~radius:t
    ~field:(fun s -> s.ground)
    ~store:(fun s c -> { s with ground = c })
    ~choose:(fun _ live v -> Dist.argmax (oracle.Inference.infer live v));
  (* Pass 2: the sample Y, drawn from each node's own stream. *)
  Chain.slocal_pass inst rt ~order ~radius:t
    ~field:(fun s -> s.y)
    ~store:(fun s c -> { s with y = c })
    ~choose:(fun ctx live v ->
      Dist.sample (Slocal.rng ctx) (oracle.Inference.infer live v));
  (* Pass 2b (radius 0): initialize the interpolation at the ground state. *)
  Slocal.run_pass rt ~order ~radius:0 (fun ctx ->
      let v = Slocal.center ctx in
      let s = Slocal.read ctx v in
      Slocal.write ctx v { s with cur = s.ground });
  (* Pass 3: local patches and rejection, radius 3t + l. *)
  let failed = Array.make n false in
  let clamps = ref 0 in
  let acceptance_product = ref 1. in
  let chain = Chain.start inst in
  Slocal.run_pass rt ~order ~radius:big_r (fun ctx ->
      let v = Slocal.center ctx in
      if not (Instance.is_pinned inst v) then begin
        let i = position.(v) in
        let visible u = Slocal.dist ctx u <= big_r in
        (* Local views of the interpolation state and of Y. *)
        let sigma_prev = Config.empty n in
        let y_local = Config.empty n in
        Array.iter
          (fun u ->
            let s = Slocal.read ctx u in
            sigma_prev.(u) <- s.cur;
            y_local.(u) <- s.y)
          (Slocal.ball ctx);
        let ball = Graph.ball g v t in
        let frozen u =
          if Instance.is_pinned inst u then Some inst.Instance.pinned.(u)
          else if position.(u) <= i then Some y_local.(u)
          else None
        in
        match
          acceptance ~support:visible oracle ~epsilon ~adaptive ~clamps chain ~order
            ~position ~ball ~frozen v sigma_prev
        with
        | None -> failed.(v) <- true
        | Some (sigma_i, q) ->
            acceptance_product := !acceptance_product *. q;
            if not (Rng.bernoulli (Slocal.rng ctx) q) then failed.(v) <- true;
            (* Commit the patch — writes stay within the t-ball. *)
            Array.iter
              (fun u ->
                let s = Slocal.read ctx u in
                Slocal.write ctx u { s with cur = sigma_i.(u) })
              ball
      end);
  let states = Slocal.states rt in
  let y = Array.map (fun s -> s.y) states in
  let ground = Array.map (fun s -> s.ground) states in
  let success = Array.for_all not failed in
  if success && Array.exists (fun s -> s.cur <> s.y) states then
    failwith "Jvv.run_certified: interpolation did not reach Y";
  {
    result =
      {
        y;
        ground;
        failed;
        success;
        clamped = !clamps;
        acceptance_product = !acceptance_product;
      };
    pass_localities = Slocal.pass_localities rt;
    certified_locality = Slocal.single_pass_locality rt;
  }

let jvv_locality (oracle : Inference.oracle) inst =
  (* Lemma 4.4: passes of locality t, t, 3t+ℓ collapse to a single pass of
     locality r1 + 2(r2 + r3). *)
  let t = oracle.Inference.radius in
  let ell = Instance.locality inst in
  t + (2 * (t + (3 * t) + ell))

let finish_local stats (result : result) =
  let failed =
    Array.mapi (fun v f -> f || stats.Scheduler.failed.(v)) result.failed
  in
  ({ result with failed; success = Array.for_all not failed }, stats)

let run_local (oracle : Inference.oracle) ~epsilon ?trace inst ~seed =
  let streams = Rng.streams seed 2 in
  let out = ref None in
  let run ~order = out := Some (run oracle ~epsilon inst ~order ~rng:streams.(1)) in
  let stats =
    Scheduler.compile ~graph:(Instance.graph inst)
      ~locality:(jvv_locality oracle inst) ~rng:streams.(0) ?trace ~run ()
  in
  finish_local stats (Option.get !out)

module Resilient = Ls_local.Resilient

type supervised = {
  sresult : result;
  resilience : Resilient.report;
  total_rounds : int;
}

let run_local_resilient (oracle : Inference.oracle) ~epsilon ?policy ?faults
    ?trace ?async inst ~seed =
  (* Ball collection for JVV happens per pass: radii t, t, 3t + l
     (Claims 4.6/4.7) — each pass floods its own radius, and a node whose
     flooded view misses part of that pass's ball cannot evaluate its
     marginal or acceptance ratio, so it fails.  Flooding a pass for
     exactly its radius leaves no slack rounds, which is what makes
     message loss bite (a single 9t+2l flood on a small graph would be
     epidemically redundant and hide the drops). *)
  let t = oracle.Inference.radius in
  let s =
    Resilient.supervise ?policy ?faults ?trace ?async ~label:"jvv_resilient"
      ~blame:"rejection"
      ~radii:[ t; t; (3 * t) + Instance.locality inst ]
      (Instance.graph inst) ~seed
      (fun ~seed ->
        let result, stats = run_local oracle ~epsilon ?trace inst ~seed in
        (result, result.failed, stats.Scheduler.rounds))
  in
  let failed = s.Resilient.failed in
  {
    sresult = { s.Resilient.value with failed; success = Array.for_all not failed };
    resilience = s.Resilient.report;
    total_rounds = s.Resilient.rounds;
  }

let run_local_certified (oracle : Inference.oracle) ~epsilon inst ~seed =
  (* Composition of the two guarantees: the payload certifies its pass
     localities against the SLOCAL runtime, and the scheduler's same-color
     clusters are more than [locality] apart, so the simulated parallel
     execution is sound end to end. *)
  let streams = Rng.streams seed 2 in
  let payload_seed =
    Int64.of_int (Ls_rng.Rng.int streams.(1) 0x3FFFFFFF)
  in
  let out = ref None in
  let run ~order =
    out := Some (run_certified oracle ~epsilon inst ~order ~seed:payload_seed)
  in
  let stats =
    Scheduler.compile ~graph:(Instance.graph inst)
      ~locality:(jvv_locality oracle inst) ~rng:streams.(0) ~run ()
  in
  let certified = Option.get !out in
  let result, stats = finish_local stats certified.result in
  ({ certified with result }, stats)
