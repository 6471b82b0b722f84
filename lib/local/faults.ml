(* Deterministic, seed-derived fault plans for the LOCAL runtime.

   Every verdict (drop / duplicate / delay / corrupt a message, crash a
   node, cut an edge during a partition) is a pure function of (plan seed,
   coordinates) — never of a stream position — so a fault pattern is
   reproducible from its seed alone and independent of the iteration
   order, the domain count, and how many unrelated decisions were made
   before it.  Schedules (partition intervals, fault bursts, crash
   recovery) obey the same rule: membership of a node in a partition side
   is a hash of (seed, interval index, node), never of execution state. *)

let gamma = 0x9E3779B97F4A7C15L

let mix = Ls_rng.Splitmix.mix64

type partition = {
  p_from : int;  (* first absolute round the cut is in force *)
  p_until : int;  (* first absolute round after the heal *)
  p_parts : int;  (* number of components the graph is cut into *)
}

type burst = {
  b_from : int;
  b_until : int;
  b_drop : float;  (* elevated drop rate while the burst is active *)
}

(* Latency law for the asynchronous executor's virtual link delays.  All
   three are normalized to mean 1.0 virtual time unit, so switching laws
   changes the SHAPE of delay tails, never the average load. *)
type law = Uniform | Exponential | Heavy

type t = {
  seed : int64;
  drop : float;
  duplicate : float;
  delay : float;
  max_delay : int;
  crash : float;
  crash_horizon : int;
  recovery : float;
  recovery_delay : int;
  corrupt : float;
  partitions : partition list;
  bursts : burst list;
  law : law;  (* virtual link-latency law (async executor only) *)
  skew : float;  (* max extra per-node clock-rate factor, >= 0 *)
  reorder : float;  (* probability of a latency spike forcing reordering *)
}

let none =
  {
    seed = 0L;
    drop = 0.;
    duplicate = 0.;
    delay = 0.;
    max_delay = 1;
    crash = 0.;
    crash_horizon = 64;
    recovery = 0.;
    recovery_delay = 4;
    corrupt = 0.;
    partitions = [];
    bursts = [];
    law = Uniform;
    skew = 0.;
    reorder = 0.;
  }

(* Timing knobs (law, skew, reorder) deliberately do NOT make a plan
   faulty: they shape the asynchronous executor's virtual time, never a
   verdict, so a timing-only plan still counts as no faults (and its
   phases never go to a sharded transport). *)
let is_none t =
  t.drop = 0. && t.duplicate = 0. && t.delay = 0. && t.crash = 0.
  && t.corrupt = 0. && t.partitions = [] && t.bursts = []

let check_rate name x =
  if not (x >= 0. && x <= 1.) then
    invalid_arg
      (Printf.sprintf "Faults.make: %s must be a probability in [0,1], got %g"
         name x)

let law_name = function
  | Uniform -> "uniform"
  | Exponential -> "exp"
  | Heavy -> "heavy"

let law_of_string = function
  | "uniform" -> Uniform
  | "exp" | "exponential" -> Exponential
  | "heavy" | "pareto" -> Heavy
  | other ->
      invalid_arg
        (Printf.sprintf
           "Faults.law_of_string: unknown latency law %S (--delay-law takes \
            uniform|exp|heavy)"
           other)

let make ?(seed = 1L) ?(drop = 0.) ?(duplicate = 0.) ?(delay = 0.)
    ?(max_delay = 1) ?(crash = 0.) ?(crash_horizon = 64) ?(recovery = 0.)
    ?(recovery_delay = 4) ?(corrupt = 0.) ?(partitions = []) ?(bursts = [])
    ?(law = Uniform) ?(skew = 0.) ?(reorder = 0.) () =
  check_rate "drop (--fault-rate)" drop;
  check_rate "duplicate" duplicate;
  check_rate "delay" delay;
  check_rate "crash (--crash-rate)" crash;
  check_rate "recovery" recovery;
  check_rate "corrupt (--corrupt-rate)" corrupt;
  check_rate "reorder" reorder;
  if not (skew >= 0.) then
    invalid_arg
      (Printf.sprintf "Faults.make: skew (--skew) must be >= 0, got %g" skew);
  if max_delay < 1 then
    invalid_arg
      (Printf.sprintf "Faults.make: max_delay (--max-delay) must be >= 1, got %d"
         max_delay);
  if crash_horizon < 1 then
    invalid_arg
      (Printf.sprintf "Faults.make: crash_horizon must be >= 1, got %d"
         crash_horizon);
  if recovery_delay < 1 then
    invalid_arg
      (Printf.sprintf "Faults.make: recovery_delay must be >= 1, got %d"
         recovery_delay);
  let partitions =
    List.map
      (fun (a, b, parts) ->
        if a < 0 || b <= a then
          invalid_arg
            (Printf.sprintf
               "Faults.make: partition interval [%d,%d) must satisfy 0 <= from \
                < until"
               a b);
        if parts < 2 then
          invalid_arg
            (Printf.sprintf "Faults.make: partition parts must be >= 2, got %d"
               parts);
        { p_from = a; p_until = b; p_parts = parts })
      partitions
  in
  let bursts =
    List.map
      (fun (a, b, rate) ->
        if a < 0 || b <= a then
          invalid_arg
            (Printf.sprintf
               "Faults.make: burst interval [%d,%d) must satisfy 0 <= from < \
                until"
               a b);
        check_rate "burst drop" rate;
        { b_from = a; b_until = b; b_drop = rate })
      bursts
  in
  {
    seed;
    drop;
    duplicate;
    delay;
    max_delay;
    crash;
    crash_horizon;
    recovery;
    recovery_delay;
    corrupt;
    partitions;
    bursts;
    law;
    skew;
    reorder;
  }

(* Coordinate-indexed uniform variate: chain the bijective finalizer over
   the coordinates, each offset by the SplitMix golden gamma so that
   nearby coordinates land in distant states. *)
let u01 t ~salt ~round ~a ~b =
  let feed h x = mix (Int64.add h (Int64.mul (Int64.of_int x) gamma)) in
  let h = mix (Int64.add t.seed (Int64.mul (Int64.of_int salt) gamma)) in
  let h = feed (feed (feed h round) a) b in
  Int64.to_float (Int64.shift_right_logical h 11) *. 0x1.0p-53

(* Salts keep the verdict families independent of each other. *)
let salt_drop = 1
let salt_duplicate = 2
let salt_delay_coin = 3
let salt_delay_len = 4
let salt_crash_coin = 5
let salt_crash_round = 6
let salt_corrupt = 7
let salt_partition_side = 8
let salt_burst = 9
let salt_recover_coin = 10
let salt_recover_len = 11
let salt_latency = 12
let salt_skew = 13
let salt_reorder = 14
let salt_jitter = 15
let salt_retransmit = 16
let salt_control = 17

(* Which side of partition interval [idx] node [v] lands on: a pure hash
   of (seed, interval index, node), so sides never depend on when or how
   often the schedule is consulted. *)
let partition_side t ~index ~node ~parts =
  int_of_float
    (u01 t ~salt:salt_partition_side ~round:index ~a:node ~b:0
    *. float_of_int parts)

let partition_parts t ~round =
  let rec go idx = function
    | [] -> None
    | p :: rest ->
        if round >= p.p_from && round < p.p_until then Some (idx, p.p_parts)
        else go (idx + 1) rest
  in
  go 0 t.partitions

let partitioned t ~round ~src ~dst =
  match partition_parts t ~round with
  | None -> false
  | Some (index, parts) ->
      partition_side t ~index ~node:src ~parts
      <> partition_side t ~index ~node:dst ~parts

let burst_rate t ~round =
  List.fold_left
    (fun acc b ->
      if round >= b.b_from && round < b.b_until then Float.max acc b.b_drop
      else acc)
    0. t.bursts

let dropped t ~round ~src ~dst =
  partitioned t ~round ~src ~dst
  || (t.drop > 0. && u01 t ~salt:salt_drop ~round ~a:src ~b:dst < t.drop)
  ||
  let b = burst_rate t ~round in
  b > 0. && u01 t ~salt:salt_burst ~round ~a:src ~b:dst < b

let copies t ~round ~src ~dst =
  if dropped t ~round ~src ~dst then 0
  else if
    t.duplicate > 0.
    && u01 t ~salt:salt_duplicate ~round ~a:src ~b:dst < t.duplicate
  then 2
  else 1

let delay_of t ~round ~src ~dst ~copy =
  if t.delay > 0. && u01 t ~salt:salt_delay_coin ~round ~a:src ~b:(dst + copy) < t.delay
  then
    1
    + int_of_float
        (u01 t ~salt:salt_delay_len ~round ~a:src ~b:(dst + copy)
        *. float_of_int t.max_delay)
  else 0

(* The [dst + copy - 1] offset gives each duplicate copy its own verdict
   while keeping copy 1 at the historical [~b:dst] coordinate, so every
   single-copy verdict is unchanged. *)
let corrupted t ~round ~src ~dst ~copy =
  t.corrupt > 0.
  && u01 t ~salt:salt_corrupt ~round ~a:src ~b:(dst + copy - 1) < t.corrupt

let crash_round t ~node =
  if t.crash > 0. && u01 t ~salt:salt_crash_coin ~round:0 ~a:node ~b:0 < t.crash
  then
    Some
      (int_of_float
         (u01 t ~salt:salt_crash_round ~round:0 ~a:node ~b:0
         *. float_of_int t.crash_horizon))
  else None

let crash_interval t ~node =
  match crash_round t ~node with
  | None -> None
  | Some c ->
      let recover =
        if
          t.recovery > 0.
          && u01 t ~salt:salt_recover_coin ~round:0 ~a:node ~b:0 < t.recovery
        then
          Some
            (c + 1
            + int_of_float
                (u01 t ~salt:salt_recover_len ~round:0 ~a:node ~b:0
                *. float_of_int t.recovery_delay))
        else None
      in
      Some (c, recover)

(* --- virtual-time draws (async executor) ------------------------------ *)

(* Latency of a transmitted copy in virtual time units, mean 1.0 under
   every law.  Only the asynchronous executor consults these: they order
   events on its virtual clock and never touch a fault verdict, so the
   logical outcome under the synchronizer is law-invariant. *)
let link_latency t ~round ~src ~dst ~copy =
  let u = u01 t ~salt:salt_latency ~round ~a:src ~b:(dst + (copy lsl 16)) in
  let base =
    match t.law with
    | Uniform -> 0.5 +. u
    | Exponential -> -.log (1. -. u)
    | Heavy ->
        (* Pareto(x_m = 0.5, alpha = 2): mean 1.0, heavy right tail. *)
        0.5 /. sqrt (1. -. u)
  in
  let spiked =
    t.reorder > 0.
    && u01 t ~salt:salt_reorder ~round ~a:src ~b:(dst + (copy lsl 16))
       < t.reorder
  in
  if spiked then base *. 4. else base

(* Control-plane traffic (acks, safes, nacks) is small and fast: a short
   uniform latency, keyed by its own salt so payload and control draws
   never collide.  [kind] separates the control message families. *)
let control_latency t ~round ~src ~dst ~kind =
  0.1
  +. (0.2 *. u01 t ~salt:salt_control ~round ~a:src ~b:(dst + (kind lsl 16)))

(* Per-node clock-rate factor in [1, 1 + skew]: how much virtual time one
   local round costs the node. *)
let node_skew t ~node =
  1. +. (t.skew *. u01 t ~salt:salt_skew ~round:0 ~a:node ~b:0)

let timeout_jitter t ~round ~src ~dst ~attempt =
  u01 t ~salt:salt_jitter ~round ~a:src ~b:(dst + (attempt lsl 16))

(* A retransmitted copy is a fresh link-layer trial: it fails through an
   active partition (the link is cut) or with the plan's base drop rate,
   under a verdict of its own. *)
let retransmit_dropped t ~round ~src ~dst ~attempt =
  partitioned t ~round ~src ~dst
  || t.drop > 0.
     && u01 t ~salt:salt_retransmit ~round ~a:src ~b:(dst + (attempt lsl 16))
        < t.drop

(* Same shape, fresh verdict stream: how per-trial sweeps replicate one
   schedule independently. *)
let reseed t ~seed = { t with seed }

(* Every nonzero (or non-default, for the bounds that only matter next to
   a rate) field appears exactly once, so a plan's one-line summary never
   hides part of the schedule. *)
let describe t =
  if is_none t && t.law = Uniform && t.skew = 0. && t.reorder = 0. then
    "no faults"
  else begin
    let buf = Buffer.create 64 in
    let add fmt = Printf.ksprintf (fun s ->
        if Buffer.length buf > 0 then Buffer.add_char buf ' ';
        Buffer.add_string buf s) fmt
    in
    add "seed=%Ld" t.seed;
    if t.drop > 0. then add "drop=%g" t.drop;
    if t.duplicate > 0. then add "dup=%g" t.duplicate;
    if t.delay > 0. then add "delay=%g(max %d)" t.delay t.max_delay
    else if t.max_delay <> 1 then add "max_delay=%d" t.max_delay;
    if t.crash > 0. then begin
      add "crash=%g(by round %d)" t.crash t.crash_horizon;
      if t.recovery > 0. then
        add "recovery=%g(within %d)" t.recovery t.recovery_delay
    end;
    if t.corrupt > 0. then add "corrupt=%g" t.corrupt;
    List.iter
      (fun p -> add "partition[%d,%d)x%d" p.p_from p.p_until p.p_parts)
      t.partitions;
    List.iter (fun b -> add "burst[%d,%d)@%g" b.b_from b.b_until b.b_drop) t.bursts;
    if t.law <> Uniform then add "law=%s" (law_name t.law);
    if t.skew > 0. then add "skew=%g" t.skew;
    if t.reorder > 0. then add "reorder=%g" t.reorder;
    Printf.sprintf "faults(%s)" (Buffer.contents buf)
  end

(* --- profile presets -------------------------------------------------- *)

type preset = {
  pr_drop : float;
  pr_duplicate : float;
  pr_delay : float;
  pr_max_delay : int;
  pr_crash : float;
  pr_recovery : float;
  pr_recovery_delay : int;
  pr_corrupt : float;
  pr_partitions : (int * int * int) list;
  pr_bursts : (int * int * float) list;
}

let zero_preset =
  {
    pr_drop = 0.;
    pr_duplicate = 0.;
    pr_delay = 0.;
    pr_max_delay = 1;
    pr_crash = 0.;
    pr_recovery = 0.;
    pr_recovery_delay = 4;
    pr_corrupt = 0.;
    pr_partitions = [];
    pr_bursts = [];
  }

let preset = function
  | "lossy" -> { zero_preset with pr_drop = 0.1 }
  | "flaky" ->
      {
        zero_preset with
        pr_drop = 0.05;
        pr_duplicate = 0.05;
        pr_delay = 0.3;
        pr_max_delay = 2;
        pr_crash = 0.05;
        pr_recovery = 1.;
        pr_recovery_delay = 4;
        pr_corrupt = 0.02;
      }
  | "partitioned" ->
      {
        zero_preset with
        pr_drop = 0.02;
        pr_partitions = [ (2, 6, 2) ];
        pr_bursts = [ (8, 10, 0.5) ];
      }
  | other ->
      invalid_arg
        (Printf.sprintf
           "Faults.preset: unknown profile %S (--fault-profile takes \
            lossy|flaky|partitioned)"
           other)
