(* The synchronous broadcast executor: a bitwise differential against the
   separate fault-free executor it replaced, and the up-front rejection
   of negative round counts. *)

module Graph = Ls_graph.Graph
module Generators = Ls_graph.Generators
module Rng = Ls_rng.Rng
module Trace = Ls_obs.Trace
module Metrics = Ls_obs.Metrics
module Network = Ls_local.Network
module Faults = Ls_local.Faults

let checkb = Alcotest.(check bool)

(* --- reference: the fault-free executor and its wrapper metering --- *)

module Reference = struct
  type meters = {
    mutable bits : int;
    mutable msgs : int;
    mutable delivered : int;
    mutable clock : int;
    mutable rounds : int;
  }

  let meters () = { bits = 0; msgs = 0; delivered = 0; clock = 0; rounds = 0 }

  let run_broadcast_pristine g m ~rounds ?size ~init ~emit ~merge () =
    let n = Graph.n g in
    let states = Array.init n init in
    for _round = 1 to rounds do
      let outgoing = Array.mapi (fun v s -> emit v s) states in
      (match size with
      | None -> ()
      | Some size ->
          for v = 0 to n - 1 do
            m.bits <- m.bits + (Graph.degree g v * size outgoing.(v))
          done);
      for v = 0 to n - 1 do
        let inbox =
          Array.to_list (Array.map (fun u -> outgoing.(u)) (Graph.neighbors g v))
        in
        states.(v) <- merge v states.(v) inbox
      done
    done;
    states

  let run_broadcast g m ~rounds ?size ~label ~trace ~init ~emit ~merge () =
    let bits0 = m.bits and msgs0 = m.msgs in
    Trace.emit trace (Trace.Phase_start { label; clock = m.clock });
    let states = run_broadcast_pristine g m ~rounds ?size ~init ~emit ~merge () in
    m.msgs <- m.msgs + (rounds * 2 * Graph.m g);
    m.delivered <- m.delivered + (rounds * 2 * Graph.m g);
    m.clock <- m.clock + rounds;
    m.rounds <- m.rounds + rounds;
    Trace.emit trace
      (Trace.Phase_end
         {
           label;
           clock = m.clock;
           rounds;
           bits = m.bits - bits0;
           messages = m.msgs - msgs0;
         });
    if Metrics.enabled () then begin
      Metrics.bump Metrics.phases;
      Metrics.add Metrics.rounds rounds;
      Metrics.add Metrics.bits (m.bits - bits0);
      Metrics.add Metrics.messages (m.msgs - msgs0)
    end;
    states
end

(* --- differential ------------------------------------------------------ *)

let graph_of ~shape ~k ~seed =
  let rng = Rng.create (Int64.of_int seed) in
  match shape with
  | 0 -> Generators.cycle (3 + k)
  | 1 -> Generators.path (1 + k)
  | 2 -> Generators.random_tree rng (1 + k)
  | 3 -> Generators.grid (1 + (k mod 4)) (1 + (k / 4))
  | 4 -> Generators.erdos_renyi rng ~n:(1 + k) ~p:0.3
  | 5 -> Generators.erdos_renyi rng ~n:(1 + k) ~p:0.08
  | _ -> Generators.empty (1 + k)

(* State and message are int lists and [merge] appends the inbox in
   arrival order, so any reordering of an inbox changes the states. *)
let init v = [ v ]
let emit v s = v :: List.filteri (fun i _ -> i < 6) s
let merge _ s inbox = s @ List.concat inbox
let size m = 3 + (7 * List.length m)

(* Runs one broadcast per entry of [phases] (its round count) into a
   fresh trace and metrics registry; returns everything observable. *)
let observe ~broadcast ~meters phases =
  let trace = Trace.make () in
  Metrics.reset ();
  let states =
    List.mapi
      (fun i rounds -> broadcast ~rounds ~label:(Printf.sprintf "phase%d" i) ~trace)
      phases
  in
  (states, meters (), Trace.events trace, Metrics.snapshot ())

let run_network ~faults ~size g =
  let net = Network.create ~faults g ~inputs:(Array.make (Graph.n g) ()) ~seed:5L in
  observe
    ~broadcast:(fun ~rounds ~label ~trace ->
      Network.run_broadcast net ~rounds ?size ~label ~trace ~init ~emit ~merge ())
    ~meters:(fun () ->
      ( Network.bits net,
        Network.messages net,
        Network.delivered_count net,
        Network.clock net,
        Network.rounds net ))

let run_reference ~size g =
  let m = Reference.meters () in
  observe
    ~broadcast:(fun ~rounds ~label ~trace ->
      Reference.run_broadcast g m ~rounds ?size ~label ~trace ~init ~emit ~merge ())
    ~meters:(fun () -> Reference.(m.bits, m.msgs, m.delivered, m.clock, m.rounds))

let qcheck_matches_reference =
  QCheck.Test.make
    ~name:"one executor under Faults.none = old pristine executor, bit for bit"
    ~count:300
    QCheck.(
      tup6 (int_bound 6) (int_bound 11) small_nat
        (pair (int_bound 4) (int_bound 4))
        bool bool)
    (fun (shape, k, seed, (r1, r2), sized, timing) ->
      let g = graph_of ~shape ~k ~seed in
      (* Timing knobs shape only the asynchronous executor's virtual time:
         such a plan still counts as no faults. *)
      let faults =
        if timing then
          Faults.make ~seed:(Int64.of_int (seed + 1)) ~law:Faults.Heavy ~skew:0.7
            ~reorder:0.4 ()
        else Faults.none
      in
      assert (Faults.is_none faults);
      Metrics.set_enabled true;
      Fun.protect ~finally:(fun () ->
          Metrics.reset ();
          Metrics.set_enabled false)
      @@ fun () ->
      let size = if sized then Some size else None in
      run_network ~faults ~size g [ r1; r2 ] = run_reference ~size g [ r1; r2 ])

(* --- negative rounds ---------------------------------------------------- *)

let test_negative_rounds_rejected () =
  List.iter
    (fun (name, faults) ->
      let g = Generators.cycle 6 in
      let trace = Trace.make () in
      let net = Network.create ~faults ~trace g ~inputs:(Array.make 6 ()) ~seed:3L in
      let phase rounds =
        Network.run_broadcast net ~rounds ~size:(fun _ -> 64) ~init:Fun.id
          ~emit:(fun _ s -> s)
          ~merge:(fun _ s inbox -> List.fold_left min s inbox)
          ()
      in
      ignore (phase 2);
      let snapshot () =
        ( Network.clock net,
          Network.rounds net,
          Network.bits net,
          Network.messages net,
          Network.delivered_count net,
          Trace.events trace )
      in
      let before = snapshot () in
      Alcotest.check_raises (name ^ ": rejected")
        (Invalid_argument "Network.run_broadcast: negative rounds") (fun () ->
          ignore (phase (-1)));
      checkb (name ^ ": clock, meters and trace unchanged") true
        (snapshot () = before))
    [
      ("zero-fault plan", Faults.none);
      ("faulty plan", Faults.make ~seed:4L ~drop:0.2 ());
    ]

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_matches_reference;
    Alcotest.test_case "negative rounds are rejected up front" `Quick
      test_negative_rounds_rejected;
  ]
