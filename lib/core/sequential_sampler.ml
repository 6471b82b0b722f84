module Config = Ls_gibbs.Config
module Dist = Ls_dist.Dist
module Slocal = Ls_local.Slocal

let sample (oracle : Inference.oracle) inst ~order ~rng =
  Chain.run inst ~order ~choose:(fun live v ->
      Dist.sample rng (oracle.Inference.infer live v))

let sample_slocal (oracle : Inference.oracle) inst ~order ~seed =
  let rt =
    Slocal.create (Instance.graph inst) ~seed ~init:(fun v ->
        if Instance.is_pinned inst v then Some inst.Instance.pinned.(v) else None)
  in
  Chain.slocal_pass inst rt ~order ~radius:oracle.Inference.radius
    ~field:(function Some c -> c | None -> Config.unassigned)
    ~store:(fun _ c -> Some c)
    ~choose:(fun ctx live v ->
      Dist.sample (Slocal.rng ctx) (oracle.Inference.infer live v));
  let sigma =
    Array.map
      (function Some c -> c | None -> assert false)
      (Slocal.states rt)
  in
  (sigma, Slocal.single_pass_locality rt)

let output_distribution (oracle : Inference.oracle) inst ~order =
  Chain.check_order inst order;
  let chain = Chain.start inst in
  let live = Chain.instance chain in
  let acc = ref [] in
  let rec go i p =
    if p <= 0. then ()
    else if i = Array.length order then
      acc := (Array.copy live.Instance.pinned, p) :: !acc
    else begin
      let v = order.(i) in
      if Chain.is_pinned chain v then go (i + 1) p
      else begin
        let mu_hat = oracle.Inference.infer live v in
        let m = Chain.mark chain in
        for c = 0 to Instance.q inst - 1 do
          let pc = Dist.prob mu_hat c in
          if pc > 0. then begin
            Chain.pin chain v c;
            go (i + 1) (p *. pc);
            Chain.undo chain m
          end
        done
      end
    end
  in
  go 0 1.;
  List.rev !acc

let chain_rule_probability (oracle : Inference.oracle) inst ~order sigma =
  if Array.length sigma <> Instance.n inst then
    invalid_arg
      "Sequential_sampler.chain_rule_probability: sigma must have one value \
       per vertex";
  if not (Config.is_total sigma) then
    invalid_arg "Sequential_sampler.chain_rule_probability: sigma not total";
  let agrees c s = c = Config.unassigned || c = s in
  (* Once the probability hits 0 the remaining prefix instances may be
     infeasible; stop asking the oracle. *)
  let p = ref (if Array.for_all2 agrees inst.Instance.pinned sigma then 1. else 0.) in
  ignore
    (Chain.run inst ~order ~choose:(fun live v ->
         if !p > 0. then
           p := !p *. Dist.prob (oracle.Inference.infer live v) sigma.(v);
         sigma.(v)));
  !p
