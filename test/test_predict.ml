(* Tests for the prediction stage: per-packet latency, symbolic paths,
   throughput, interference — and predicted-vs-actual validation against
   the simulator (the Figure 3 methodology). *)

module W = Clara_workload
module L = Clara_lnic
module D = Clara_dataflow
module Lat = Clara_predict.Latency
module Sym = Clara_predict.Symexec
module Tp = Clara_predict.Throughput
module Inter = Clara_predict.Interference
module Eng = Clara_nicsim.Engine
module SStats = Clara_nicsim.Stats
module Dev = Clara_nicsim.Device

let check = Alcotest.(check bool)
let lnic = L.Netronome.default

let profile ?(payload = W.Dist.Fixed 300) ?(packets = 5000) ?(tcp = 0.8) () =
  W.Profile.make ~payload ~packets ~flow_count:1000 ~tcp_fraction:tcp
    ~rate_pps:60_000. ()

let analyze ?options src prof =
  match Clara.analyze_for_profile ?options lnic ~source:src ~profile:prof with
  | Ok a -> a
  | Error e -> Alcotest.fail e

let test_prediction_positive_and_monotone () =
  let prof = profile () in
  let a = analyze (Clara_nfs.Nat.source ()) prof in
  let p300 = Clara.predict_profile a (profile ~payload:(W.Dist.Fixed 300) ()) in
  let p1200 = Clara.predict_profile a (profile ~payload:(W.Dist.Fixed 1200) ()) in
  check "positive" true (p300.Lat.mean_cycles > 0.);
  check "bigger packets cost more" true (p1200.Lat.mean_cycles > p300.Lat.mean_cycles)

let test_prediction_tcp_udp_differ () =
  (* §3.5 example: TCP and UDP incur different cycles (NAT drops others,
     TCP/UDP take the translation path; SYN packets update the table). *)
  let prof = profile ~tcp:0.5 () in
  let a = analyze (Clara_nfs.Firewall.source ()) prof in
  let p = Clara.predict_profile a prof in
  check "tcp and udp predictions distinct" true
    (Float.abs (p.Lat.tcp_mean -. p.Lat.udp_mean) > 1.);
  check "syn mean exists" true (not (Float.is_nan p.Lat.syn_mean))

let test_prediction_first_packet_miss () =
  (* A single-flow trace: first packet misses the table (update path),
     the rest hit.  Check via two-packet micro-trace. *)
  let prof = profile () in
  let a = analyze (Clara_nfs.Nat.source ()) prof in
  let pkt i =
    { W.Packet.src_ip = 1l; dst_ip = 2l; src_port = 10; dst_port = 80;
      proto = W.Packet.Tcp; flags = 0; payload_bytes = 300;
      arrival_ns = Int64.of_int (i * 1_000_000) }
  in
  let pred = Lat.create lnic a.Clara.df a.Clara.mapping in
  Lat.reset_state pred;
  let first = Lat.packet_latency pred (pkt 0) in
  let second = Lat.packet_latency pred (pkt 1) in
  check "first packet (miss+insert) costs more" true (first.Lat.cycles > second.Lat.cycles)

let test_symexec_nat_paths () =
  let prof = profile () in
  let a = analyze (Clara_nfs.Nat.source ()) prof in
  let paths = Sym.enumerate lnic a.Clara.df a.Clara.mapping in
  check "several packet types" true (List.length paths >= 3);
  (* Sorted by decreasing cost. *)
  let costs = List.map (fun p -> p.Sym.cost_cycles) paths in
  check "sorted" true (costs = List.sort (fun a b -> compare b a) costs);
  (* Some path drops (non-TCP/UDP) and some emits. *)
  check "a drop path exists" true (List.exists (fun p -> not p.Sym.emits) paths);
  check "an emit path exists" true (List.exists (fun p -> p.Sym.emits) paths);
  (* Table-miss path costs more than the hit path (both emitting). *)
  let miss =
    List.find_opt
      (fun p ->
        p.Sym.emits
        && List.exists
             (fun d -> (not d.Sym.taken) && d.Sym.guard = Clara_cir.Ir.G_table_hit "flow_table")
             p.Sym.decisions)
      paths
  in
  let hit =
    List.find_opt
      (fun p ->
        p.Sym.emits
        && List.exists
             (fun d -> d.Sym.taken && d.Sym.guard = Clara_cir.Ir.G_table_hit "flow_table")
             p.Sym.decisions)
      paths
  in
  match (miss, hit) with
  | Some m, Some h -> check "miss path > hit path (§3.5)" true (m.Sym.cost_cycles > h.Sym.cost_cycles)
  | _ -> Alcotest.fail "expected both hit and miss paths"

let test_symexec_no_infeasible_protocols () =
  let prof = profile () in
  let a = analyze (Clara_nfs.Nat.source ()) prof in
  let paths = Sym.enumerate lnic a.Clara.df a.Clara.mapping in
  List.iter
    (fun p ->
      let protos_true =
        List.filter
          (fun d -> d.Sym.taken && match d.Sym.guard with Clara_cir.Ir.G_proto _ -> true | _ -> false)
          p.Sym.decisions
      in
      check "at most one protocol per path" true (List.length protos_true <= 1))
    paths

let test_throughput_bottleneck () =
  let prof = profile () in
  (* Disallow the flow cache so the walk cost actually scales. *)
  let options =
    { Clara_mapping.Mapping.default_options with
      Clara_mapping.Mapping.disallowed_accels = [ L.Unit_.Lookup ] }
  in
  let a = analyze ~options (Clara_nfs.Lpm.source ~entries:30000) prof
  and a_small = analyze ~options (Clara_nfs.Lpm.source ~entries:1000) prof in
  let tp = Tp.estimate lnic a.Clara.df a.Clara.mapping in
  let tp_small = Tp.estimate lnic a_small.Clara.df a_small.Clara.mapping in
  check "finite" true (Float.is_finite tp.Tp.max_pps);
  check "positive" true (tp.Tp.max_pps > 0.);
  check "smaller table -> higher throughput" true (tp_small.Tp.max_pps > tp.Tp.max_pps);
  check "resources sorted" true
    (let pps = List.map (fun (r : Tp.bottleneck) -> r.Tp.max_pps) tp.Tp.resources in
     pps = List.sort compare pps)

let test_symexec_flow_weight_consistency () =
  (* Two independent expectations of the same random walk must agree:
     (a) Symexec enumerates full paths; weight each by the product of its
         guard probabilities and average the costs;
     (b) Flow.node_weights propagates the same probabilities through the
         DAG; the expected cost is the weight-cost dot product plus wire.
     They coincide when each guard is independent and appears once per
     path — true for the firewall (flag + table-hit guards only). *)
  let prof = profile () in
  let a = analyze (Clara_nfs.Firewall.source ()) prof in
  let prob = Clara.prob_of_profile prof in
  let sizes = Clara.sizes_of_profile prof in
  let paths = Sym.enumerate ~sizes lnic a.Clara.df a.Clara.mapping in
  let rec guard_p g =
    match g with
    | Clara_cir.Ir.G_not g' -> 1. -. guard_p g'
    | Clara_cir.Ir.G_or (x, y) -> Float.min 1. (guard_p x +. guard_p y)
    | g -> prob g
  in
  let path_p (p : Sym.path) =
    List.fold_left
      (fun acc (d : Sym.decision) ->
        let pg = guard_p d.Sym.guard in
        acc *. (if d.Sym.taken then pg else 1. -. pg))
      1. p.Sym.decisions
  in
  let total_p = List.fold_left (fun acc p -> acc +. path_p p) 0. paths in
  check "path probabilities sum to 1" true (Float.abs (total_p -. 1.) < 1e-9);
  let expected_via_paths =
    List.fold_left (fun acc p -> acc +. (path_p p *. p.Sym.cost_cycles)) 0. paths
  in
  (* (b): weights × costs + expected wire. *)
  let weights = D.Flow.node_weights a.Clara.df ~prob in
  let states = D.Graph.states a.Clara.df in
  let sizes_resolved =
    { sizes with
      Clara_dataflow.Cost.state_entries =
        (fun s ->
          match List.find_opt (fun o -> o.Clara_cir.Ir.st_name = s) states with
          | Some o -> float_of_int o.Clara_cir.Ir.st_entries
          | None -> 0.) }
  in
  let node_cost (n : Clara_dataflow.Node.t) =
    let unit_ =
      Clara_lnic.Graph.unit_ lnic a.Clara.mapping.Clara_mapping.Mapping.node_unit.(n.Clara_dataflow.Node.id)
    in
    let ctx =
      { Clara_dataflow.Cost.place =
          { Clara_dataflow.Cost.lnic;
            exec_unit = unit_;
            state_region =
              (fun s ->
                match Clara_mapping.Mapping.placement_of_state a.Clara.mapping s with
                | Some (Clara_mapping.Mapping.In_memory m) -> m
                | _ -> (Clara_lnic.Netronome.emem lnic).Clara_lnic.Memory.id);
            state_footprint =
              (fun s ->
                match List.find_opt (fun o -> o.Clara_cir.Ir.st_name = s) states with
                | Some o -> Clara_cir.Ir.state_bytes o
                | None -> 0);
            packet_region =
              Clara_dataflow.Cost.packet_region lnic unit_
                ~packet_bytes:sizes_resolved.Clara_dataflow.Cost.packet_bytes };
        sizes = sizes_resolved }
    in
    Option.value ~default:0. (Clara_dataflow.Cost.node_cycles ctx n)
  in
  let compute_expectation =
    Array.fold_left
      (fun acc (n : Clara_dataflow.Node.t) ->
        acc +. (weights.(n.Clara_dataflow.Node.id) *. node_cost n))
      0. a.Clara.df.D.Graph.nodes
  in
  (* Expected wire: every packet pays rx; emitting paths pay tx too. *)
  let pkt_bytes = sizes_resolved.Clara_dataflow.Cost.packet_bytes in
  let dummy payload =
    { W.Packet.src_ip = 0l; dst_ip = 0l; src_port = 0; dst_port = 0;
      proto = W.Packet.Tcp; flags = 0;
      payload_bytes = payload; arrival_ns = 0L }
  in
  let payload = int_of_float pkt_bytes - 54 in
  let rx_tx = Lat.wire_cycles lnic (dummy payload) ~emitted:true in
  let rx_only = Lat.wire_cycles lnic (dummy payload) ~emitted:false in
  let p_emit = List.fold_left (fun acc p -> acc +. if p.Sym.emits then path_p p else 0.) 0. paths in
  let expected_via_weights =
    compute_expectation +. (p_emit *. rx_tx) +. ((1. -. p_emit) *. rx_only)
  in
  check "path expectation ~= flow-weight expectation" true
    (Float.abs (expected_via_paths -. expected_via_weights)
    /. expected_via_weights
    < 0.02)

let test_latency_at_rate () =
  let prof = profile () in
  let a = analyze (Clara_nfs.Nat.source ()) prof in
  let base = 4000. in
  let at rate =
    Tp.latency_at_rate ~base_cycles:base ~rate_pps:rate lnic a.Clara.df a.Clara.mapping
  in
  (match (at 10_000., at 1_000_000., at 1_900_000.) with
  | Some lo, Some mid, Some hi ->
      check "latency >= base" true (lo >= base);
      check "monotone in rate" true (lo <= mid && mid <= hi);
      check "knee visible" true (hi > 1.5 *. lo)
  | _ -> Alcotest.fail "stable rates must predict");
  check "unstable past capacity" true (at 5_000_000. = None)

let test_interference_slowdown () =
  let prof = profile ~packets:2000 () in
  match
    Inter.analyze_pair lnic
      ~source_a:(Clara_nfs.Nat.source ())
      ~source_b:(Clara_nfs.Firewall.source ())
      ~profile:prof
  with
  | Error e -> Alcotest.fail e
  | Ok (ra, rb) ->
      check "A slowdown >= 1" true (ra.Inter.slowdown >= 0.99);
      check "B slowdown >= 1" true (rb.Inter.slowdown >= 0.99);
      check "contended >= sliced" true
        (ra.Inter.contended_cycles >= ra.Inter.sliced_cycles -. 1.
        && rb.Inter.contended_cycles >= rb.Inter.sliced_cycles -. 1.)

(* The exact pipeline Interference runs per tenant (lower -> coarsen ->
   dataflow -> map), reproduced so tests can pin its intermediate
   values. *)
let inter_sizes prof =
  { D.Cost.payload_bytes = W.Profile.mean_payload prof;
    packet_bytes = W.Profile.mean_packet_bytes prof;
    header_bytes = 50.;
    state_entries = (fun _ -> 0.);
    opaque_trip = 1. }

let inter_pipeline ?options nic src ~sizes ~prob =
  let ir = Clara_cir.Lower.lower_source src in
  let ir, _ = Clara_cir.Patterns.run ir in
  let df = D.Build.of_ir ir in
  match Clara_mapping.Encode.map_nf ?options nic df ~sizes ~prob with
  | Ok m -> (df, m)
  | Error e -> Alcotest.fail e

let test_interference_slice_utilization () =
  (* Regression: utilization was computed against the full NIC but the
     head-of-line inflation applied on the slice.  The reported
     utilization must now match an independent computation on the slice
     the NF actually runs on. *)
  let prof = profile ~packets:2000 () in
  let src = Clara_nfs.Nat.source () in
  match
    Inter.analyze_pair lnic ~source_a:src
      ~source_b:(Clara_nfs.Firewall.source ())
      ~profile:prof
  with
  | Error e -> Alcotest.fail e
  | Ok (ra, _) ->
      check "nat drives the accelerators" true (ra.Inter.accel_utilization > 0.);
      check "below saturation at 60 kpps" false ra.Inter.saturated;
      let half = L.Graph.slice lnic ~keep_num:1 ~keep_den:2 in
      let sizes = inter_sizes prof in
      let prob = D.Flow.default_probability in
      let df, m = inter_pipeline half src ~sizes ~prob in
      let cyc = Inter.accel_cycles_per_packet half df m ~sizes ~prob in
      let freq =
        float_of_int (List.hd (L.Graph.general_cores half)).L.Unit_.freq_mhz *. 1e6
      in
      let expected = prof.W.Profile.rate_pps *. cyc /. freq in
      check "utilization computed on the slice" true
        (abs_float (ra.Inter.accel_utilization -. expected) < 1e-9)

let test_interference_saturation_flag () =
  (* Regression: aggregate utilization >= 1 was silently capped at 0.9;
     it must now surface as [saturated] while the prediction stays
     finite. *)
  let prof_at rate =
    W.Profile.make ~payload:(W.Dist.Fixed 300) ~packets:500 ~flow_count:1000
      ~tcp_fraction:0.8 ~rate_pps:rate ()
  in
  let run rate =
    match
      Inter.analyze_pair lnic
        ~source_a:(Clara_nfs.Nat.source ())
        ~source_b:(Clara_nfs.Nat.source ())
        ~profile:(prof_at rate)
    with
    | Error e -> Alcotest.fail e
    | Ok (ra, _) -> ra
  in
  let calm = run 1_000. in
  check "low rate not saturated" false calm.Inter.saturated;
  let hot = run 1e9 in
  check "absurd rate saturated" true hot.Inter.saturated;
  check "contended stays finite under saturation" true
    (Float.is_finite hot.Inter.contended_cycles);
  check "saturated still inflates" true
    (hot.Inter.contended_cycles >= hot.Inter.sliced_cycles -. 1.)

let one_thread_nic () =
  let g = L.Netronome.create ~islands:1 ~npus_per_island:1 () in
  let units =
    Array.map
      (fun (u : L.Unit_.t) ->
        match u.L.Unit_.kind with
        | L.Unit_.General_core { has_fpu; _ } ->
            { u with L.Unit_.kind = L.Unit_.General_core { threads = 1; has_fpu } }
        | _ -> u)
      g.L.Graph.units
  in
  { g with L.Graph.units }

let test_accel_class_filter () =
  (* Regression: any bottleneck row with parallelism = 1 (other than
     wire-dma) was classified as accelerator time.  A single-threaded
     general core also has parallelism = 1; its compute must not count
     as accelerator contention. *)
  let nic = one_thread_nic () in
  Alcotest.(check int) "nic really has one thread" 1 (L.Graph.total_threads nic);
  let prof = profile ~packets:500 () in
  let sizes = inter_sizes prof in
  let prob = D.Flow.default_probability in
  let no_accels =
    { Clara_mapping.Mapping.default_options with
      Clara_mapping.Mapping.disallowed_accels =
        [ L.Unit_.Parse; L.Unit_.Checksum; L.Unit_.Lookup; L.Unit_.Crypto ] }
  in
  let df, m = inter_pipeline ~options:no_accels nic Clara_nfs.Dpi.source ~sizes ~prob in
  check "single general thread is not accelerator time" true
    (Inter.accel_cycles_per_packet nic df m ~sizes ~prob = 0.)

let test_analyze_n_three () =
  let prof = profile ~packets:1000 () in
  let sources =
    [| Clara_nfs.Nat.source (); Clara_nfs.Firewall.source (); Clara_nfs.Dpi.source |]
  in
  (match
     Inter.analyze_n lnic ~weights:[| 2; 1; 1 |] ~sources
       ~profiles:(Array.make 3 prof)
   with
  | Error e -> Alcotest.fail e
  | Ok rs ->
      Alcotest.(check int) "three reports" 3 (Array.length rs);
      Array.iteri
        (fun i r ->
          check (Printf.sprintf "tenant %d slowdown >= 1" i) true
            (r.Inter.slowdown >= 0.99);
          check (Printf.sprintf "tenant %d contended >= sliced" i) true
            (r.Inter.contended_cycles >= r.Inter.sliced_cycles -. 1.))
        rs);
  (* analyze_pair must be exactly the N = 2 equal-weights case. *)
  let src_a = Clara_nfs.Nat.source () and src_b = Clara_nfs.Firewall.source () in
  match
    ( Inter.analyze_pair lnic ~source_a:src_a ~source_b:src_b ~profile:prof,
      Inter.analyze_n lnic ~sources:[| src_a; src_b |] ~profiles:[| prof; prof |] )
  with
  | Ok (ra, rb), Ok rs ->
      check "pair == analyze_n tenant 0" true (compare ra rs.(0) = 0);
      check "pair == analyze_n tenant 1" true (compare rb rs.(1) = 0)
  | Error e, _ | _, Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Predicted vs actual (the Figure 3 methodology, spot checks)         *)

let predicted_vs_actual src prog prof ?placement_of ?options () =
  let a = analyze ?options src prof in
  let prog =
    match placement_of with
    | None -> prog
    | Some f -> f a
  in
  let trace = W.Trace.synthesize ~seed:21L prof in
  let pred = (Clara.predict a trace).Lat.mean_cycles in
  let act = (Eng.run lnic prog trace).Eng.summary.SStats.mean_cycles in
  (pred, act)

let err p a = Float.abs (p -. a) /. a

let test_accuracy_nat () =
  let prof = profile ~packets:4000 () in
  let pred, act =
    predicted_vs_actual (Clara_nfs.Nat.source ())
      (Clara_nfs.Nat.ported ~checksum_engine:true ())
      prof ()
  in
  check "NAT within 20%" true (err pred act < 0.20)

let test_accuracy_vnf () =
  let prof = profile ~packets:4000 ~payload:(W.Dist.Fixed 600) () in
  let pred, act =
    predicted_vs_actual (Clara_nfs.Vnf_chain.source ()) (Clara_nfs.Vnf_chain.ported ()) prof ()
  in
  check "VNF within 10%" true (err pred act < 0.10)

let test_accuracy_lpm () =
  let prof = profile ~packets:4000 () in
  let options =
    { Clara_mapping.Mapping.default_options with
      Clara_mapping.Mapping.disallowed_accels = [ L.Unit_.Lookup ] }
  in
  let pred, act =
    predicted_vs_actual (Clara_nfs.Lpm.source ~entries:10000)
      (Clara_nfs.Lpm.ported ~entries:10000 ~use_flow_cache:false ())
      prof ~options
      ~placement_of:(fun a ->
        let placement =
          Option.value ~default:Dev.P_emem (Clara.device_placement_of_state a "routes")
        in
        Clara_nfs.Lpm.ported ~entries:10000 ~use_flow_cache:false ~placement ())
      ()
  in
  check "LPM within 15%" true (err pred act < 0.15)

let test_accuracy_monotone_in_entries () =
  (* The Figure 3a shape: predictions grow with table entries. *)
  let prof = profile ~packets:1000 () in
  let options =
    { Clara_mapping.Mapping.default_options with
      Clara_mapping.Mapping.disallowed_accels = [ L.Unit_.Lookup ] }
  in
  let pred entries =
    let a = analyze ~options (Clara_nfs.Lpm.source ~entries) prof in
    (Clara.predict_profile a prof).Lat.mean_cycles
  in
  let p5 = pred 5000 and p15 = pred 15000 and p30 = pred 30000 in
  check "5k < 15k" true (p5 < p15);
  check "15k < 30k" true (p15 < p30);
  (* Roughly linear: the 30k/5k ratio should be in the vicinity of 6. *)
  check "roughly linear" true (p30 /. p5 > 3. && p30 /. p5 < 12.)

let test_throughput_wire_cost_convention () =
  (* Regression: the wire-dma resource used [Float.max 1. cycles],
     silently rounding sub-cycle DMA costs up to a full cycle and
     treating a zero cost as one cycle instead of "no bound" — unlike
     every compute resource.  Both paths now share one convention. *)
  let prof = profile () in
  let a = analyze (Clara_nfs.Nat.source ()) prof in
  let base = lnic.L.Graph.params in
  let with_wire c =
    { lnic with
      L.Graph.params =
        { base with L.Params.wire_ingress = L.Cost_fn.const c;
          L.Params.wire_egress = L.Cost_fn.const c } }
  in
  let wire_of t =
    List.find (fun (r : Tp.bottleneck) -> r.Tp.resource = "wire-dma") t.Tp.resources
  in
  let freq =
    match L.Graph.general_cores lnic with
    | u :: _ -> float_of_int u.L.Unit_.freq_mhz *. 1e6
    | [] -> 1e9
  in
  (* 0.125 cycles each way = 0.25 cycles/packet over 8 lanes: pre-fix
     this clamped to 1 cycle (max 8*freq pps); honored, it is 32*freq. *)
  let sub = wire_of (Tp.estimate (with_wire 0.125) a.Clara.df a.Clara.mapping) in
  check "sub-cycle wire cost honored" true (sub.Tp.max_pps > 12. *. freq);
  (* Zero cost means the wire imposes no throughput bound at all. *)
  let free = wire_of (Tp.estimate (with_wire 0.) a.Clara.df a.Clara.mapping) in
  check "zero wire cost is unbounded" true (free.Tp.max_pps = Float.infinity);
  let t0 = Tp.estimate (with_wire 0.) a.Clara.df a.Clara.mapping in
  check "free wire is never the bottleneck" true
    (t0.Tp.bottleneck.Tp.resource <> "wire-dma")

(* ---- Staged prices: compile once, apply per packet ----------------- *)

module Price = Clara_predict.Price
module Ir = Clara_cir.Ir
module Mp = Clara_mapping.Mapping

let nics = [ "netronome"; "soc"; "bluefield" ]

(* Corpus NFs price only ops, vcalls and state accesses once lowered and
   coarsened; this one keeps packet loads, one of them in a payload loop
   the pattern pass cannot coarsen. *)
let raw_bytes_src =
  {|
nf raw_bytes {
  state counter hist[256] entry 8;

  handler process(pkt) {
    var hdr = parse_header(pkt);
    var first = payload_byte(pkt, 0);
    for (i = 0; i < payload_len(pkt); i = i + 1) {
      state_write(hist, payload_byte(pkt, i), i);
    }
    if (first == 42) {
      drop(pkt);
    } else {
      emit(pkt);
    }
  }
}
|}

(* Every corpus NF, and [raw_bytes_src], mapped on every target with its
   compiled prices. *)
let corpus_cells =
  lazy
    (let prof = profile ~packets:500 () in
     let sources =
       List.map
         (fun (e : Clara_nfs.Corpus.entry) -> (e.Clara_nfs.Corpus.name, e.Clara_nfs.Corpus.source))
         Clara_nfs.Corpus.all
       @ [ ("raw-bytes", raw_bytes_src) ]
     in
     List.concat_map
       (fun (nf, source) ->
         List.map
           (fun nic ->
             let lnic = Option.get (L.Targets.find nic) in
             let name = nf ^ "@" ^ nic in
             match Clara.analyze_for_profile lnic ~source ~profile:prof with
             | Error err -> Alcotest.fail (name ^ ": " ^ err)
             | Ok a ->
                 ( name, lnic, a.Clara.df, a.Clara.mapping,
                   Price.create lnic a.Clara.df a.Clara.mapping ))
           nics)
       sources)

let packet_accesses (df : D.Graph.t) =
  Array.exists
    (fun (n : D.Node.t) ->
      match n.D.Node.kind with
      | D.Node.N_compute is ->
          List.exists
            (function Ir.Load Ir.L_packet | Ir.Store Ir.L_packet -> true | _ -> false)
            is
      | D.Node.N_vcall _ -> false)
    df.D.Graph.nodes

let test_cells_price_packet_accesses () =
  List.iter
    (fun (name, _, df, _, _) ->
      if String.starts_with ~prefix:"raw-bytes@" name then
        check (name ^ " keeps packet loads") true (packet_accesses df))
    (Lazy.force corpus_cells)

(* The one-shot context for a node on unit [u], built from the mapping
   and the NF's declarations independently of [Price]. *)
let reference_ctx lnic df mapping (u : L.Unit_.t) (pkt : W.Packet.t) =
  let decl s = List.find_opt (fun o -> o.Ir.st_name = s) (D.Graph.states df) in
  let external_mem =
    match
      Array.find_opt (fun m -> m.L.Memory.level = L.Memory.External) lnic.L.Graph.memories
    with
    | Some m -> m.L.Memory.id
    | None -> 0
  in
  let packet_bytes = float_of_int (W.Packet.total_bytes pkt) in
  {
    D.Cost.place =
      {
        D.Cost.lnic;
        exec_unit = u;
        state_region =
          (fun s ->
            match Mp.placement_of_state mapping s with
            | Some (Mp.In_memory m) -> m
            | _ -> external_mem);
        state_footprint =
          (fun s -> match decl s with Some o -> Ir.state_bytes o | None -> 0);
        packet_region = Clara_dataflow.Cost.packet_region lnic u ~packet_bytes;
      };
    sizes =
      {
        D.Cost.payload_bytes = float_of_int pkt.W.Packet.payload_bytes;
        packet_bytes;
        header_bytes = float_of_int (W.Packet.header_bytes pkt);
        state_entries =
          (fun s -> match decl s with Some o -> float_of_int o.Ir.st_entries | None -> 0.);
        opaque_trip = 1.;
      };
  }

(* The sizes the predictor's walk prices a packet at. *)
let walk_sizes price (pkt : W.Packet.t) =
  Price.with_entries price
    { Price.default_sizes with
      D.Cost.packet_bytes = float_of_int (W.Packet.total_bytes pkt);
      payload_bytes = float_of_int pkt.W.Packet.payload_bytes;
      header_bytes = float_of_int (W.Packet.header_bytes pkt) }

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_breakdown (a : D.Cost.breakdown option) (b : D.Cost.breakdown option) =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
      same_bits a.D.Cost.b_total b.D.Cost.b_total
      && same_bits a.D.Cost.b_compute b.D.Cost.b_compute
      && same_bits a.D.Cost.b_mem b.D.Cost.b_mem
      && same_bits a.D.Cost.b_accel b.D.Cost.b_accel
  | _ -> false

(* A TCP or UDP packet with [payload] bytes. *)
let packet ~tcp ~syn ~payload =
  { W.Packet.src_ip = 0x0a000001l; dst_ip = 0x0a000002l; src_port = 1234; dst_port = 80;
    proto = (if tcp then W.Packet.Tcp else W.Packet.Udp);
    flags = (if tcp && syn then 0x2 else 0);
    payload_bytes = payload; arrival_ns = 0L }

(* Per cell, two packets: one with a payload uniform over 0..1500 B, one
   whose total size lies [delta] bytes from the target's CTM threshold. *)
let prop_staged_prices_identical =
  QCheck.Test.make ~name:"Price.node = Cost.node_breakdown, bit for bit" ~count:60
    QCheck.(quad bool bool (int_range 0 1500) (int_range (-3) 3))
    (fun (tcp, syn, uniform, delta) ->
      List.for_all
        (fun (name, lnic, df, mapping, price) ->
          let threshold = lnic.L.Graph.params.L.Params.packet_ctm_threshold in
          let straddle =
            let p = packet ~tcp ~syn ~payload:0 in
            max 0 (min 1500 (threshold - W.Packet.header_bytes p + delta))
          in
          List.for_all
            (fun payload ->
              let pkt = packet ~tcp ~syn ~payload in
              let sizes = walk_sizes price pkt in
              Array.for_all
                (fun (n : D.Node.t) ->
                  let u = Price.unit_of price n in
                  let staged = Price.node price sizes n in
                  let oneshot = D.Cost.node_breakdown (reference_ctx lnic df mapping u pkt) n in
                  let replay_ok =
                    match L.Graph.general_cores lnic with
                    | core :: _ ->
                        same_bits
                          (Price.software_cycles price sizes n)
                          (Option.value ~default:0.
                             (D.Cost.node_cycles (reference_ctx lnic df mapping core pkt) n))
                    | [] -> true
                  in
                  (same_breakdown staged oneshot && replay_ok)
                  || QCheck.Test.fail_reportf "%s: node n%d differs at %d B payload" name
                       n.D.Node.id payload)
                df.D.Graph.nodes)
            [ uniform; straddle ])
        (Lazy.force corpus_cells))

(* ---- Unit-level soundness: point prices lie in their ranges ------- *)

module Cr = Clara_analysis.Cost_range
module Itv = Clara_analysis.Interval

(* Per cell: the bounds envelope, and per packet type its sizes and
   every node's range (loop trip included). *)
let envelopes =
  lazy
    (List.map
       (fun (name, lnic, (df : D.Graph.t), _, _) ->
         let p = df.D.Graph.cir in
         let env = Cr.create lnic p in
         ( name, lnic, df, env,
           List.map
             (fun ptype ->
               let sizes = Clara_analysis.Bounds.sizes_for p ~ptype in
               (ptype, sizes, Array.map (Cr.node env sizes) df.D.Graph.nodes))
             [ "all"; "tcp"; "tcp-syn"; "udp"; "other" ] ))
       (Lazy.force corpus_cells))

(* A point placement and packet drawn from the envelope itself (every
   candidate unit, a candidate region per state, a candidate packet
   region, a payload and a header size inside the type's ranges):
   Cost's breakdown must lie in the node's range on every axis, with no
   epsilon, since IEEE rounding is monotone. *)
let prop_point_in_range =
  QCheck.Test.make ~name:"Cost.node_breakdown lies in Cost_range.node" ~count:100
    QCheck.(quad (int_range 0 4) (int_range 0 1500) (int_range 0 2) int)
    (fun (ti, payload, li, seed) ->
      let saved = !D.Cost.cache_locality in
      D.Cost.cache_locality := [| 0.; 0.85; 1. |].(li);
      Fun.protect ~finally:(fun () -> D.Cost.cache_locality := saved) @@ fun () ->
      let rng = Random.State.make [| seed |] in
      let pick l = List.nth l (Random.State.int rng (List.length l)) in
      List.for_all
        (fun (name, lnic, (df : D.Graph.t), (env : Cr.t), per_type) ->
          let ptype, (sizes : Cr.sizes), ranges = List.nth per_type ti in
          let header =
            let lo = int_of_float (Itv.lo sizes.Cr.header_bytes) in
            lo + Random.State.int rng (int_of_float (Itv.hi sizes.Cr.header_bytes) - lo + 1)
          in
          let regions = Hashtbl.create 8 in
          let state_region s =
            match Hashtbl.find_opt regions s with
            | Some m -> m
            | None ->
                let m = pick (env.Cr.state_regions s) in
                Hashtbl.add regions s m;
                m
          in
          let packet_region = pick env.Cr.packet_regions in
          let point =
            { D.Cost.payload_bytes = float_of_int payload;
              packet_bytes = float_of_int (payload + header);
              header_bytes = float_of_int header;
              state_entries = (fun s -> Itv.lo (sizes.Cr.state_entries s));
              opaque_trip = 1. }
          in
          List.for_all
            (fun (u : L.Unit_.t) ->
              let place =
                { D.Cost.lnic; exec_unit = u; state_region;
                  state_footprint = env.Cr.state_footprint; packet_region }
              in
              Array.for_all
                (fun (n : D.Node.t) ->
                  match (D.Cost.node_breakdown { D.Cost.place; sizes = point } n, ranges.(n.D.Node.id)) with
                  | None, _ -> true
                  | Some b, Some r
                    when Itv.contains r.Cr.compute b.D.Cost.b_compute
                         && Itv.contains r.Cr.mem b.D.Cost.b_mem
                         && Itv.contains r.Cr.accel b.D.Cost.b_accel ->
                      true
                  | Some b, r ->
                      let show =
                        Option.fold ~none:"none" ~some:(fun v ->
                            Printf.sprintf "[%.17g, %.17g]" (Itv.lo v) (Itv.hi v))
                      in
                      QCheck.Test.fail_reportf
                        "%s %s: n%d on %s at %d B payload: compute %.17g in %s, mem %.17g in %s, \
                         accel %.17g in %s"
                        name ptype n.D.Node.id u.L.Unit_.name payload b.D.Cost.b_compute
                        (show (Option.map (fun r -> r.Cr.compute) r))
                        b.D.Cost.b_mem
                        (show (Option.map (fun r -> r.Cr.mem) r))
                        b.D.Cost.b_accel
                        (show (Option.map (fun r -> r.Cr.accel) r)))
                df.D.Graph.nodes)
            env.Cr.units)
        (Lazy.force envelopes))

let nat_on_netronome () =
  let a = analyze (Clara_nfs.Nat.source ()) (profile ()) in
  (a.Clara.df, a.Clara.mapping)

let test_create_rejects_unexecutable () =
  let df, mapping = nat_on_netronome () in
  let accel = Option.get (L.Graph.find_accelerator lnic L.Unit_.Checksum) in
  (* Every node on the checksum engine: its compute nodes cannot run. *)
  let bad = { mapping with Mp.node_unit = Array.map (fun _ -> accel.L.Unit_.id) mapping.Mp.node_unit } in
  check "create raises Invalid_argument" true
    (match Lat.create lnic df bad with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check "the real mapping is accepted" true
    (match Lat.create lnic df mapping with _ -> true)

let test_walk_limit () =
  let df, mapping = nat_on_netronome () in
  let cir = df.D.Graph.cir in
  (* The entry block jumps to itself: a cycle that is not a Loop. *)
  let blocks = Array.copy cir.Ir.blocks in
  blocks.(cir.Ir.entry) <- { (blocks.(cir.Ir.entry)) with Ir.term = Ir.Jump cir.Ir.entry };
  let df' = { df with D.Graph.cir = { cir with Ir.blocks } } in
  let t = Lat.create lnic df' mapping in
  check "walk raises Walk_limit" true
    (match Lat.packet_latency t (packet ~tcp:true ~syn:true ~payload:300) with
    | exception Lat.Walk_limit -> true
    | _ -> false)

let test_cache_locality_captured () =
  (* As in the bench's locality ablation: a software LPM whose rules are
     pinned to the cached EMEM, priced through the locality discount. *)
  let options =
    { Mp.default_options with
      Mp.disallowed_accels = [ L.Unit_.Lookup ];
      pin_state = [ ("routes", L.Memory.External) ] }
  in
  let prof = profile ~packets:300 () in
  let a = analyze ~options (Clara_nfs.Lpm.source ~entries:20_000) prof in
  let df = a.Clara.df and mapping = a.Clara.mapping in
  let trace = W.Trace.synthesize ~seed:5L prof in
  let mean t = (Lat.predict_trace t trace).Lat.mean_cycles in
  let saved = !D.Cost.cache_locality in
  let before = Lat.create lnic df mapping in
  let mean_before = mean before in
  let after =
    Fun.protect
      ~finally:(fun () -> D.Cost.cache_locality := saved)
      (fun () ->
        D.Cost.cache_locality := 0.5;
        let after = Lat.create lnic df mapping in
        check "a predictor created earlier keeps its discount" true
          (same_bits (mean before) mean_before);
        after)
  in
  (* [after] is walked once the value is restored: it kept 0.5, so its
     cache hits are rarer and its prediction higher. *)
  check "a predictor created after the change reflects it" true
    (mean after > mean_before)

(* [summarize] finds its percentiles by selection; they must be the
   nearest-rank values of the sorted latencies. *)
let prop_summarize_nearest_rank =
  QCheck.Test.make ~name:"summarize p50/p99 = nearest rank of the sorted latencies"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 1 300) (int_range 0 40))
    (fun xs ->
      (* Few distinct values, as in traces of few packet kinds. *)
      let lats = Array.of_list (List.map (fun x -> 100. +. (7.5 *. float_of_int x)) xs) in
      let n = Array.length lats in
      let trace =
        { W.Trace.packets = Array.init n (fun _ -> packet ~tcp:true ~syn:false ~payload:100);
          profile = None }
      in
      let i = ref (-1) in
      let p =
        Lat.summarize trace (fun _ ->
            incr i;
            { Lat.cycles = lats.(!i); emitted = true })
      in
      let sorted = Array.copy lats in
      Array.sort Float.compare sorted;
      let rank q = sorted.(max 0 (int_of_float (Float.ceil (float_of_int n *. q)) - 1)) in
      same_bits p.Lat.p50_cycles (rank 0.5) && same_bits p.Lat.p99_cycles (rank 0.99))

let suite =
  [ Alcotest.test_case "prediction positive & size-monotone" `Quick
      test_prediction_positive_and_monotone;
    Alcotest.test_case "per-proto predictions differ (§3.5)" `Quick
      test_prediction_tcp_udp_differ;
    Alcotest.test_case "first packet of flow costs more" `Quick
      test_prediction_first_packet_miss;
    Alcotest.test_case "symexec NAT paths" `Quick test_symexec_nat_paths;
    Alcotest.test_case "symexec feasibility" `Quick test_symexec_no_infeasible_protocols;
    Alcotest.test_case "throughput bottleneck" `Quick test_throughput_bottleneck;
    Alcotest.test_case "latency at rate (M/M/k)" `Quick test_latency_at_rate;
    Alcotest.test_case "symexec = flow-weight expectation" `Quick
      test_symexec_flow_weight_consistency;
    Alcotest.test_case "interference slowdown" `Quick test_interference_slowdown;
    Alcotest.test_case "interference slice utilization" `Quick
      test_interference_slice_utilization;
    Alcotest.test_case "interference saturation flag" `Quick
      test_interference_saturation_flag;
    Alcotest.test_case "accelerator class filter" `Quick test_accel_class_filter;
    Alcotest.test_case "analyze_n three tenants" `Quick test_analyze_n_three;
    Alcotest.test_case "accuracy: NAT" `Quick test_accuracy_nat;
    Alcotest.test_case "accuracy: VNF" `Quick test_accuracy_vnf;
    Alcotest.test_case "accuracy: LPM" `Quick test_accuracy_lpm;
    Alcotest.test_case "Fig 3a shape: linear in entries" `Quick
      test_accuracy_monotone_in_entries;
    Alcotest.test_case "throughput wire-cost convention" `Quick
      test_throughput_wire_cost_convention;
    Alcotest.test_case "identity cells price packet loads" `Quick
      test_cells_price_packet_accesses;
    QCheck_alcotest.to_alcotest prop_staged_prices_identical;
    QCheck_alcotest.to_alcotest prop_summarize_nearest_rank;
    QCheck_alcotest.to_alcotest prop_point_in_range;
    Alcotest.test_case "create rejects unexecutable nodes" `Quick
      test_create_rejects_unexecutable;
    Alcotest.test_case "walk limit is typed" `Quick test_walk_limit;
    Alcotest.test_case "predictor captures cache locality" `Quick
      test_cache_locality_captured ]
