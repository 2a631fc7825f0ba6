module L = Clara_lnic
module D = Clara_dataflow
module Ir = Clara_cir.Ir
module M = Clara_mapping.Mapping

(* Where a node runs: its unit, and the packet region that unit sees for
   packets up to the CTM threshold and beyond it. *)
type slot = { unit_ : L.Unit_.t; small_packet : int; large_packet : int }

type t = {
  lnic : L.Graph.t;
  ctm_threshold : int;
  slots : slot array;  (* by node id *)
  replay : slot option;  (* the first general core *)
  state_region : string -> int;
  state_footprint : string -> int;
  state_entries : string -> float;
  block_nodes : D.Node.t list array;  (* by CIR block id *)
}

let slot lnic (u : L.Unit_.t) =
  let threshold = lnic.L.Graph.params.L.Params.packet_ctm_threshold in
  let region bytes =
    Clara_mapping.Encode.packet_region_for lnic u ~packet_bytes:(float_of_int bytes)
  in
  { unit_ = u; small_packet = region threshold; large_packet = region (threshold + 1) }

(* A lookup over the NF's state objects; the first declaration of a name
   wins. *)
let state_table (df : D.Graph.t) f ~default =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (o : Ir.state_obj) ->
      if not (Hashtbl.mem tbl o.Ir.st_name) then Hashtbl.add tbl o.Ir.st_name (f o))
    (D.Graph.states df);
  fun s -> Option.value ~default (Hashtbl.find_opt tbl s)

let make lnic (df : D.Graph.t) slots ~state_region =
  let blocks = Array.make (Array.length df.D.Graph.cir.Ir.blocks) [] in
  for i = Array.length df.D.Graph.nodes - 1 downto 0 do
    let n = df.D.Graph.nodes.(i) in
    let b = n.D.Node.block in
    if b >= 0 && b < Array.length blocks then blocks.(b) <- n :: blocks.(b)
  done;
  {
    lnic;
    ctm_threshold = lnic.L.Graph.params.L.Params.packet_ctm_threshold;
    slots;
    replay =
      (match L.Graph.general_cores lnic with
      | [] -> None
      | core :: _ -> Some (slot lnic core));
    state_region;
    state_footprint = state_table df Ir.state_bytes ~default:0;
    state_entries =
      state_table df (fun o -> float_of_int o.Ir.st_entries) ~default:0.;
    block_nodes = blocks;
  }

let external_mem lnic =
  match
    Array.find_opt (fun m -> m.L.Memory.level = L.Memory.External) lnic.L.Graph.memories
  with
  | Some m -> m.L.Memory.id
  | None -> 0

let create lnic (df : D.Graph.t) (mapping : M.t) =
  let external_mem = external_mem lnic in
  let placed = Hashtbl.create 8 in
  List.iter
    (fun (s, p) ->
      if not (Hashtbl.mem placed s) then
        Hashtbl.add placed s
          (match p with M.In_memory m -> m | M.In_accel _ -> external_mem))
    mapping.M.state_place;
  make lnic df
    (Array.map (fun uid -> slot lnic (L.Graph.unit_ lnic uid)) mapping.M.node_unit)
    ~state_region:(fun s -> Option.value ~default:external_mem (Hashtbl.find_opt placed s))

let all_on lnic (df : D.Graph.t) u =
  let region = external_mem lnic in
  make lnic df
    (Array.make (Array.length df.D.Graph.nodes) (slot lnic u))
    ~state_region:(fun _ -> region)

let default_sizes =
  {
    D.Cost.payload_bytes = 300.;
    packet_bytes = 354.;
    header_bytes = 54.;
    state_entries = (fun _ -> 0.);
    opaque_trip = 1.;
  }

let with_entries t (sizes : D.Cost.sizes) = { sizes with D.Cost.state_entries = t.state_entries }

let unit_of t (n : D.Node.t) = t.slots.(n.D.Node.id).unit_

let block_nodes t bid =
  if bid >= 0 && bid < Array.length t.block_nodes then t.block_nodes.(bid) else []

(* The one place a mapped NF's [Cost.ctx] is built. *)
let ctx t s (sizes : D.Cost.sizes) =
  {
    D.Cost.lnic = t.lnic;
    exec_unit = s.unit_;
    state_region = t.state_region;
    state_footprint = t.state_footprint;
    packet_region =
      (if int_of_float sizes.D.Cost.packet_bytes <= t.ctm_threshold then s.small_packet
       else s.large_packet);
    sizes;
  }

let node t sizes (n : D.Node.t) = D.Cost.node_breakdown (ctx t t.slots.(n.D.Node.id) sizes) n

let software_cycles t sizes n =
  match t.replay with
  | None -> 0.
  | Some s -> Option.value ~default:0. (D.Cost.node_cycles (ctx t s sizes) n)

let wire lnic ~packet_bytes =
  let params = lnic.L.Graph.params in
  let hub kind = float_of_int (L.Graph.hub_cycles lnic kind) in
  ( L.Cost_fn.eval params.L.Params.wire_ingress packet_bytes +. hub `Ingress,
    L.Cost_fn.eval params.L.Params.wire_egress packet_bytes +. hub `Egress )

let wire_cycles lnic ~packet_bytes ~emitted =
  let rx, tx = wire lnic ~packet_bytes in
  rx +. if emitted then tx else 0.
