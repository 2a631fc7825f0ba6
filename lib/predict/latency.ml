module Lru = Clara_util.Lru
module L = Clara_lnic
module D = Clara_dataflow
module Ir = Clara_cir.Ir
module W = Clara_workload
module P = Clara_lnic.Params

type config = {
  scan_match_fraction : float;
  exceed_fraction : float;
  opaque_fraction : float;
  seed : int64;
  include_wire : bool;
  flow_cache_hit_ratio : float option;
}

let default_config =
  { scan_match_fraction = 0.1; exceed_fraction = 0.05; opaque_fraction = 0.5;
    seed = 7L; include_wire = true; flow_cache_hit_ratio = None }

(* A guard with its table names and probabilities resolved at [create]. *)
type guard =
  | Proto of int
  | Flag of int
  | Const of bool  (* a provisioned table (true) or an untracked one (false) *)
  | Seen of Lru.t  (* the flow is resident in this table *)
  | Chance of float
  | Not of guard
  | Or of guard * guard

type term = Ret | Jump of int | Cond of guard * int * int | Loop of int * int

(* What charging a node does besides adding its price. *)
type effect = No_effect | Emit | Insert of Lru.t

type t = {
  lnic : L.Graph.t;
  df : D.Graph.t;
  config : config;
  price : Price.t;
  terms : term array;  (* by CIR block id *)
  effects : effect array;  (* by node id *)
  (* Off-path only: the node is a stateful vcall mapped to the eSwitch,
     so it blends the flow cache's hit and miss regimes. *)
  eswitch_stateful : bool array;  (* by node id *)
  (* Abstract state: which keys each table has seen (bounded), one per
     tracked state object. *)
  flow_seen : Lru.t array;
  (* Off-path only: the eSwitch flow cache, sized by its SRAM.  A vcall
     on cached flows runs at the hardware hit price; a miss pays the
     upcall plus the software cost of the same node (two-regime). *)
  eswitch_cache : Lru.t option;
  upcall_cycles : float;
  mutable rng : W.Prng.t;
}

exception Walk_limit

let walk_limit = 10_000

let create ?(config = default_config) lnic df mapping =
  let price = Price.create lnic df mapping in
  let cir = df.D.Graph.cir in
  (* Every node the walk can charge must run on its unit; the mapping
     guarantees it, so a failure here is a malformed mapping. *)
  Array.iteri
    (fun bid _ ->
      List.iter
        (fun (n : D.Node.t) ->
          if not (Price.runs price n) then
            invalid_arg
              (Printf.sprintf "Latency.create: node n%d cannot run on its mapped unit %s"
                 n.D.Node.id (Price.unit_of price n).L.Unit_.name))
        (Price.block_nodes price bid))
    cir.Ir.blocks;
  (* LPM/route tables are provisioned configuration, not learned state:
     matches against them succeed.  Other tables track the flows they
     have seen; the last declaration of a name wins. *)
  let tables = Hashtbl.create 8 in
  List.iter
    (fun (s : Ir.state_obj) ->
      let prev = Hashtbl.find_opt tables s.Ir.st_name in
      let provisioned =
        s.Ir.st_kind = Clara_cir.Ast.S_lpm
        || (match prev with Some (p, _) -> p | None -> false)
      in
      Hashtbl.replace tables s.Ir.st_name
        (provisioned, Lru.create ~capacity:(max 1 s.Ir.st_entries)))
    (D.Graph.states df);
  let seen s = Option.map snd (Hashtbl.find_opt tables s) in
  let rec guard (g : Ir.guard) =
    match g with
    | Ir.G_proto k -> Proto k
    | Ir.G_flag k -> Flag k
    | Ir.G_table_hit s -> (
        match Hashtbl.find_opt tables s with
        | Some (true, _) -> Const true
        | Some (false, l) -> Seen l
        | None -> Const false)
    | Ir.G_scan_match -> Chance config.scan_match_fraction
    | Ir.G_count_exceeds -> Chance config.exceed_fraction
    | Ir.G_opaque -> Chance config.opaque_fraction
    | Ir.G_not g' -> Not (guard g')
    | Ir.G_or (a, b) -> Or (guard a, guard b)
  in
  let terms =
    Array.map
      (fun (b : Ir.block) ->
        match b.Ir.term with
        | Ir.Ret -> Ret
        | Ir.Jump d -> Jump d
        | Ir.Cond { guard = g; then_; else_ } -> Cond (guard g, then_, else_)
        | Ir.Loop { body; exit; trip = _ } -> Loop (body, exit))
      cir.Ir.blocks
  in
  let nodes = df.D.Graph.nodes in
  let effects =
    Array.map
      (fun (n : D.Node.t) ->
        match n.D.Node.kind with
        | D.Node.N_vcall v when v.Ir.vc = P.V_emit -> Emit
        | D.Node.N_vcall { Ir.vc = P.V_table_update; state = Some s; _ } -> (
            match seen s with Some l -> Insert l | None -> No_effect)
        | _ -> No_effect)
      nodes
  in
  let eswitch_stateful =
    Array.map
      (fun (n : D.Node.t) ->
        match ((Price.unit_of price n).L.Unit_.kind, n.D.Node.kind) with
        | L.Unit_.Accelerator L.Unit_.Eswitch, D.Node.N_vcall v -> v.Ir.state <> None
        | _ -> false)
      nodes
  in
  let eswitch_cache =
    if lnic.L.Graph.arch = L.Graph.Off_path
       && L.Graph.find_accelerator lnic L.Unit_.Eswitch <> None
    then
      let sram = P.accel_sram lnic.L.Graph.params L.Unit_.Eswitch in
      (* ~32 B per match-action entry, as in the simulator's flow cache. *)
      if sram > 0 then Some (Lru.create ~capacity:(max 1 (sram / 32))) else None
    else None
  in
  { lnic; df; config; price; terms; effects; eswitch_stateful;
    flow_seen = Hashtbl.fold (fun _ (_, l) acc -> l :: acc) tables [] |> Array.of_list;
    eswitch_cache; upcall_cycles = float_of_int (L.Graph.upcall_cycles lnic);
    rng = W.Prng.create ~seed:config.seed }

let reset_state t =
  Array.iter Lru.clear t.flow_seen;
  Option.iter Lru.clear t.eswitch_cache;
  t.rng <- W.Prng.create ~seed:t.config.seed

type per_packet = { cycles : float; emitted : bool }

(* The two-regime off-path charge.  [Price.node] prices an
   eSwitch-mapped vcall at its fast-path hit cost; this adds what the
   miss regime costs on top: the upcall over the fabric plus the
   software replay of the node on the Arm cores.  The hit/miss decision
   tracks a per-flow LRU sized by the eSwitch SRAM, or blends
   analytically when [flow_cache_hit_ratio] pins the ratio.  Zero on
   every on-path target ([Graph.upcall_cycles] is 0 there), and only
   stateful vcalls blend — the flow cache caches flows, so stateless
   eSwitch work (parsing, header rewrites) is hit-priced pipeline
   hardware.  Called exactly once per charged node, so the LRU state
   advances once per walk. *)
let eswitch_node_extra t ~key sizes (n : D.Node.t) =
  if t.upcall_cycles = 0. || not t.eswitch_stateful.(n.D.Node.id) then 0.
  else
    let miss =
      match t.config.flow_cache_hit_ratio with
      | Some h -> 1. -. Float.max 0. (Float.min 1. h)
      | None -> (
          match t.eswitch_cache with
          | Some c -> if Lru.touch c key then 0. else 1.
          | None -> 0.)
    in
    if miss = 0. then 0.
    else miss *. (t.upcall_cycles +. Price.software_cycles t.price sizes n)

(* Resolve a guard against the packet and tracked state.  Table-hit
   guards are pure queries; state only becomes "seen" when the walk
   actually executes an insertion (V_table_update) for that table —
   mirroring the NF's real semantics (e.g. a firewall admits state only
   on SYN). *)
let rec resolve_guard t (pkt : W.Packet.t) ~key = function
  | Proto k -> W.Packet.proto_number pkt.W.Packet.proto = k
  | Flag k -> pkt.W.Packet.flags land k <> 0
  | Const b -> b
  | Seen l -> Lru.mem l key
  | Chance p -> W.Prng.bool t.rng p
  | Not g -> not (resolve_guard t pkt ~key g)
  | Or (a, b) -> resolve_guard t pkt ~key a || resolve_guard t pkt ~key b

let packet_bytes pkt = float_of_int (W.Packet.total_bytes pkt)

let wire_cycles lnic pkt ~emitted =
  Price.wire_cycles lnic ~packet_bytes:(packet_bytes pkt) ~emitted

type pkt_components = {
  pc_total : float;
  pc_compute : float;
  pc_mem : float;
  pc_accel : float;
  pc_wire : float;
  pc_emitted : bool;
}

(* The predictor's one walk of a packet through the mapped NF.  Guards
   resolve against the packet and the tracked state; each charged node
   is priced once, and [on_node] sees it with its charge.  The total
   accumulates node charges in walk order and adds the wire last;
   compute is the residual after memory and accelerator charges, so the
   components sum to the total exactly (the off-path miss extra lands
   in compute). *)
(* A walk's running sums; all-float, so stored unboxed. *)
type sums = { mutable cost : float; mutable mem : float; mutable accel : float }

let walk ?on_node t (pkt : W.Packet.t) =
  let packet_bytes = packet_bytes pkt in
  let key = W.Packet.flow_key pkt in
  let sizes =
    Price.with_entries t.price
      { Price.default_sizes with
        D.Cost.packet_bytes;
        payload_bytes = float_of_int pkt.W.Packet.payload_bytes;
        header_bytes = float_of_int (W.Packet.header_bytes pkt) }
  in
  let acc = { cost = 0.; mem = 0.; accel = 0. } in
  let emitted = ref false in
  let steps = ref 0 in
  let charge (n : D.Node.t) =
    match Price.node t.price sizes n with
    | None -> assert false (* [create] rejects nodes their unit cannot run *)
    | Some b -> (
        let extra = eswitch_node_extra t ~key sizes n in
        acc.cost <- acc.cost +. b.D.Cost.b_total +. extra;
        acc.mem <- acc.mem +. b.D.Cost.b_mem;
        acc.accel <- acc.accel +. b.D.Cost.b_accel;
        Option.iter (fun f -> f n (b.D.Cost.b_total +. extra)) on_node;
        match t.effects.(n.D.Node.id) with
        | No_effect -> ()
        | Emit -> emitted := true
        | Insert seen ->
            (* Executed insertion: the flow is now table-resident. *)
            ignore (Lru.touch seen key))
  in
  (* Walk the structured CFG.  [stop] is the loop header whose back edge
     ends the current iteration walk (None at top level). *)
  let rec go bid ~stop =
    incr steps;
    if !steps > walk_limit then raise Walk_limit;
    List.iter charge (Price.block_nodes t.price bid);
    match t.terms.(bid) with
    | Ret -> ()
    | Jump d -> if Some d = stop then () (* end of one loop iteration *) else go d ~stop
    | Cond (guard, then_, else_) ->
        if resolve_guard t pkt ~key guard then go then_ ~stop else go else_ ~stop
    | Loop (body, exit) ->
        (* Body nodes carry the trip multiplier; walk the body once for
           guard resolution, then continue at the exit. *)
        go body ~stop:(Some bid);
        go exit ~stop
  in
  go t.df.D.Graph.cir.Ir.entry ~stop:None;
  let wire =
    if t.config.include_wire then
      Price.wire_cycles t.lnic ~packet_bytes ~emitted:!emitted
    else 0.
  in
  {
    pc_total = acc.cost +. wire;
    pc_compute = acc.cost -. acc.mem -. acc.accel;
    pc_mem = acc.mem;
    pc_accel = acc.accel;
    pc_wire = wire;
    pc_emitted = !emitted;
  }

let packet_components t pkt = walk t pkt

let packet_latency t pkt =
  let c = walk t pkt in
  { cycles = c.pc_total; emitted = c.pc_emitted }

type prediction = {
  mean_cycles : float;
  p50_cycles : float;
  p99_cycles : float;
  tcp_mean : float;
  udp_mean : float;
  syn_mean : float;
  emitted_fraction : float;
}

(* The [k]-th smallest element of [a] (0-indexed) under [Float.compare],
   the order [Array.sort Float.compare] sorts by; permutes [a].  Wirth's
   selection: partition around a[k] until k's slot holds its value. *)
let nth_smallest (a : float array) k =
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  while !lo < !hi do
    let x = a.(k) in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while Float.compare a.(!i) x < 0 do incr i done;
      while Float.compare x a.(!j) < 0 do decr j done;
      if !i <= !j then begin
        let v = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- v;
        incr i;
        decr j
      end
    done;
    if !j < k then lo := !i;
    if k < !i then hi := !j
  done;
  a.(k)

(* The prediction of [packets] when the i-th took [lats.(i)] cycles and
   left the NIC iff [emitted.(i)]. *)
let prediction_of (packets : W.Packet.t array) lats emitted =
  let n = Array.length packets in
  if n = 0 then
    { mean_cycles = 0.; p50_cycles = 0.; p99_cycles = 0.; tcp_mean = Float.nan;
      udp_mean = Float.nan; syn_mean = Float.nan; emitted_fraction = 0. }
  else begin
    let tcp = ref 0. and tcp_n = ref 0 in
    let udp = ref 0. and udp_n = ref 0 in
    let syn = ref 0. and syn_n = ref 0 in
    let emits = ref 0 in
    Array.iteri
      (fun i pkt ->
        let cycles = lats.(i) in
        if emitted.(i) then incr emits;
        (match pkt.W.Packet.proto with
        | W.Packet.Tcp ->
            tcp := !tcp +. cycles;
            incr tcp_n
        | W.Packet.Udp ->
            udp := !udp +. cycles;
            incr udp_n
        | W.Packet.Other _ -> ());
        if W.Packet.is_syn pkt then begin
          syn := !syn +. cycles;
          incr syn_n
        end)
      packets;
    let work = Array.copy lats in
    (* Nearest-rank percentile: the ceil(p*n)-th smallest, 0-indexed. *)
    let pct p =
      nth_smallest work
        (max 0 (min (n - 1) (int_of_float (Float.ceil (float_of_int n *. p)) - 1)))
    in
    let div_or_nan s k = if k = 0 then Float.nan else s /. float_of_int k in
    {
      mean_cycles = Array.fold_left ( +. ) 0. lats /. float_of_int n;
      p50_cycles = pct 0.5;
      p99_cycles = pct 0.99;
      tcp_mean = div_or_nan !tcp !tcp_n;
      udp_mean = div_or_nan !udp !udp_n;
      syn_mean = div_or_nan !syn !syn_n;
      emitted_fraction = float_of_int !emits /. float_of_int n;
    }
  end

let summarize (trace : W.Trace.t) f =
  let packets = trace.W.Trace.packets in
  let n = Array.length packets in
  let lats = Array.make n 0. and emitted = Array.make n false in
  Array.iteri
    (fun i pkt ->
      let r = f pkt in
      lats.(i) <- r.cycles;
      emitted.(i) <- r.emitted)
    packets;
  prediction_of packets lats emitted

let pp_opt_mean fmt v =
  if Float.is_nan v then Format.pp_print_string fmt "n/a"
  else Format.fprintf fmt "%.0f" v

let pp_prediction fmt p =
  Format.fprintf fmt
    "mean %.0f cyc, p50 %.0f, p99 %.0f, tcp %a, udp %a, syn %a, emit %.0f%%"
    p.mean_cycles p.p50_cycles p.p99_cycles pp_opt_mean p.tcp_mean pp_opt_mean p.udp_mean
    pp_opt_mean p.syn_mean
    (100. *. p.emitted_fraction)

(* ------------------------------------------------------------------ *)
(* Latency attribution (where does the predicted latency go?)          *)

type att_row = {
  at_type : string;   (** "tcp-syn", "tcp", "udp", "other" or "all". *)
  at_count : int;
  at_compute : float;
  at_mem : float;
  at_accel : float;
  at_wire : float;
  at_total : float;
  at_dominant : string;
}

type attribution = { att_rows : att_row list; att_mean : float }

(* Packet types in row order; the last, "all", counts every packet. *)
let type_labels = [| "other"; "tcp"; "tcp-syn"; "udp"; "all" |]

let type_index (pkt : W.Packet.t) =
  match pkt.W.Packet.proto with
  | W.Packet.Other _ -> 0
  | W.Packet.Tcp -> if W.Packet.is_syn pkt then 2 else 1
  | W.Packet.Udp -> 3

(* Per-type component sums, indexed like [type_labels]. *)
type att_sums = {
  count : int array;
  compute : float array;
  mem : float array;
  accel : float array;
  wire : float array;
}

let att_sums () =
  let k = Array.length type_labels in
  { count = Array.make k 0; compute = Array.make k 0.; mem = Array.make k 0.;
    accel = Array.make k 0.; wire = Array.make k 0. }

let att_add s pkt c =
  let add i =
    s.count.(i) <- s.count.(i) + 1;
    s.compute.(i) <- s.compute.(i) +. c.pc_compute;
    s.mem.(i) <- s.mem.(i) +. c.pc_mem;
    s.accel.(i) <- s.accel.(i) +. c.pc_accel;
    s.wire.(i) <- s.wire.(i) +. c.pc_wire
  in
  add (type_index pkt);
  add (Array.length type_labels - 1)

let attribution_of s ~total ~n =
  if n = 0 then { att_rows = []; att_mean = 0. }
  else
    let row i ty =
      let fn = float_of_int s.count.(i) in
      let compute = s.compute.(i) /. fn and mem = s.mem.(i) /. fn in
      let accel = s.accel.(i) /. fn and wire = s.wire.(i) /. fn in
      let dominant =
        fst
          (List.fold_left
             (fun (bn, bv) (nm, v) -> if v > bv then (nm, v) else (bn, bv))
             ("compute", compute)
             [ ("memory", mem); ("accel", accel); ("wire", wire) ])
      in
      {
        at_type = ty;
        at_count = s.count.(i);
        at_compute = compute;
        at_mem = mem;
        at_accel = accel;
        at_wire = wire;
        at_total = compute +. mem +. accel +. wire;
        at_dominant = dominant;
      }
    in
    { att_rows =
        List.filter (fun r -> r.at_count > 0) (List.mapi row (Array.to_list type_labels));
      att_mean = total /. float_of_int n }

let pp_attribution fmt a =
  Format.fprintf fmt "@[<v>%-8s %7s %9s %9s %9s %9s %9s  %s@," "type" "pkts" "compute"
    "mem" "accel" "wire" "total" "verdict";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-8s %7d %9.1f %9.1f %9.1f %9.1f %9.1f  %s@," r.at_type
        r.at_count r.at_compute r.at_mem r.at_accel r.at_wire r.at_total r.at_dominant)
    a.att_rows;
  Format.fprintf fmt "@]"

(* ------------------------------------------------------------------ *)
(* Predicted per-packet timeline as Chrome/Perfetto trace-event JSON.
   The predictor runs no engine, so this is the analytic timeline: the
   packets laid end-to-end on one synthetic track, each with wire-rx,
   per-node and wire-tx spans.  Useful to eyeball where a prediction
   says the cycles go; load at ui.perfetto.dev like a [clara trace]. *)

let node_name (n : D.Node.t) =
  match n.D.Node.kind with
  | D.Node.N_vcall v -> P.vcall_name v.Ir.vc
  | D.Node.N_compute _ -> "compute"

(* The timeline's spans so far, newest first, and its clock. *)
type timeline = { freq : float; mutable spans : Clara_util.Json.t list; mutable clock : float }

let freq_mhz t =
  match L.Graph.general_cores t.lnic with u :: _ -> u.L.Unit_.freq_mhz | [] -> 1

let span tl name dur ~seq =
  let module J = Clara_util.Json in
  let us cycles = cycles /. tl.freq in
  if dur > 0. then
    tl.spans <-
      J.Obj
        [
          ("name", J.String name);
          ("ph", J.String "X");
          ("ts", J.Float (us tl.clock));
          ("dur", J.Float (us dur));
          ("pid", J.Int 1);
          ("tid", J.Int 0);
          ("args", J.Obj [ ("seq", J.Int seq) ]);
        ]
      :: tl.spans;
  tl.clock <- tl.clock +. dur

(* One packet's walk, laid on the timeline: the wire-rx span first, then
   one span per charged node as the walk prices it, then wire-tx if the
   packet left. *)
let timed_walk t tl ~seq pkt =
  let rx, tx = Price.wire t.lnic ~packet_bytes:(packet_bytes pkt) in
  if t.config.include_wire then span tl "wire-rx" rx ~seq;
  let c = walk t pkt ~on_node:(fun n cycles -> span tl (node_name n) cycles ~seq) in
  if t.config.include_wire && c.pc_emitted then span tl "wire-tx" tx ~seq;
  c

let timeline_json t tl =
  let module J = Clara_util.Json in
  J.Obj
    [
      ( "traceEvents",
        J.List
          (J.Obj
             [
               ("name", J.String "process_name");
               ("ph", J.String "M");
               ("pid", J.Int 1);
               ("args", J.Obj [ ("name", J.String "clara predict (analytic)") ]);
             ]
          :: List.rev tl.spans) );
      ("displayTimeUnit", J.String "ns");
      ( "otherData",
        J.Obj [ ("tool", J.String "clara predict --trace"); ("freq_mhz", J.Int (freq_mhz t)) ]
      );
    ]

(* ------------------------------------------------------------------ *)
(* The one pass over a trace.                                          *)

type run = {
  prediction : prediction;
  attribution : attribution;
  timeline : Clara_util.Json.t option;
}

let run ?(timeline = false) t (trace : W.Trace.t) =
  reset_state t;
  let packets = trace.W.Trace.packets in
  let n = Array.length packets in
  let lats = Array.make n 0. and emitted = Array.make n false in
  let sums = att_sums () in
  let total = ref 0. in
  let tl =
    if timeline then Some { freq = float_of_int (freq_mhz t); spans = []; clock = 0. }
    else None
  in
  Array.iteri
    (fun seq pkt ->
      let c =
        match tl with None -> walk t pkt | Some tl -> timed_walk t tl ~seq pkt
      in
      lats.(seq) <- c.pc_total;
      emitted.(seq) <- c.pc_emitted;
      total := !total +. c.pc_total;
      att_add sums pkt c)
    packets;
  {
    prediction = prediction_of packets lats emitted;
    attribution = attribution_of sums ~total:!total ~n;
    timeline = Option.map (timeline_json t) tl;
  }

let predict_trace t trace = (run t trace).prediction
let attribute_trace t trace = (run t trace).attribution

let perfetto_timeline t trace = Option.get (run ~timeline:true t trace).timeline
