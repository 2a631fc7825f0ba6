module L = Clara_lnic
module D = Clara_dataflow
module Ir = Clara_cir.Ir
module M = Clara_mapping.Mapping

(* A node's compiled price for packets up to the CTM threshold and
   beyond it. *)
type priced = { small : D.Cost.compiled option; large : D.Cost.compiled option }

type t = {
  ctm_threshold : int;
  units : L.Unit_.t array;  (* by node id *)
  mapped : priced array;  (* by node id, on its unit *)
  replay : priced array;  (* by node id, on the first general core; [||] without one *)
  state_entries : string -> float;
  block_nodes : D.Node.t list array;  (* by CIR block id *)
}

let make lnic (df : D.Graph.t) units ~state_region =
  let threshold = lnic.L.Graph.params.L.Params.packet_ctm_threshold in
  let state_footprint s =
    match Ir.state_obj_opt df.D.Graph.cir s with Some o -> Ir.state_bytes o | None -> 0
  in
  let price u n =
    let small =
      D.Cost.placement lnic u ~packet_bytes:(float_of_int threshold) ~state_region
        ~state_footprint
    and large =
      D.Cost.placement lnic u ~packet_bytes:(float_of_int (threshold + 1)) ~state_region
        ~state_footprint
    in
    let c = D.Cost.compile small n in
    { small = c;
      large =
        (if large.D.Cost.packet_region = small.D.Cost.packet_region then c
         else D.Cost.compile large n) }
  in
  let nodes = df.D.Graph.nodes in
  let mapped = Array.mapi (fun i n -> price units.(i) n) nodes in
  let replay =
    match L.Graph.general_cores lnic with
    | [] -> [||]
    | core :: _ ->
        Array.mapi
          (fun i n ->
            if units.(i).L.Unit_.id = core.L.Unit_.id then mapped.(i) else price core n)
          nodes
  in
  {
    ctm_threshold = threshold;
    units;
    mapped;
    replay;
    state_entries =
      (fun s ->
        match Ir.state_obj_opt df.D.Graph.cir s with
        | Some o -> float_of_int o.Ir.st_entries
        | None -> 0.);
    block_nodes = D.Graph.block_nodes df;
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
    (Array.map (L.Graph.unit_ lnic) mapping.M.node_unit)
    ~state_region:(fun s -> Option.value ~default:external_mem (Hashtbl.find_opt placed s))

let all_on lnic (df : D.Graph.t) u =
  let region = external_mem lnic in
  make lnic df (Array.make (Array.length df.D.Graph.nodes) u) ~state_region:(fun _ -> region)

let default_sizes =
  {
    D.Cost.payload_bytes = 300.;
    packet_bytes = 354.;
    header_bytes = 54.;
    state_entries = (fun _ -> 0.);
    opaque_trip = 1.;
  }

let with_entries t (sizes : D.Cost.sizes) = { sizes with D.Cost.state_entries = t.state_entries }

let unit_of t (n : D.Node.t) = t.units.(n.D.Node.id)

let block_nodes t bid =
  if bid >= 0 && bid < Array.length t.block_nodes then t.block_nodes.(bid) else []

let runs t (n : D.Node.t) =
  let p = t.mapped.(n.D.Node.id) in
  Option.is_some p.small && Option.is_some p.large

let side t p (sizes : D.Cost.sizes) =
  if int_of_float sizes.D.Cost.packet_bytes <= t.ctm_threshold then p.small else p.large

let node t sizes (n : D.Node.t) =
  match side t t.mapped.(n.D.Node.id) sizes with
  | None -> None
  | Some c -> Some (D.Cost.apply c sizes)

let software_cycles t sizes (n : D.Node.t) =
  if Array.length t.replay = 0 then 0.
  else
    match side t t.replay.(n.D.Node.id) sizes with
    | None -> 0.
    | Some c -> (D.Cost.apply c sizes).D.Cost.b_total

let wire lnic ~packet_bytes =
  let params = lnic.L.Graph.params in
  let hub kind = float_of_int (L.Graph.hub_cycles lnic kind) in
  ( L.Cost_fn.eval params.L.Params.wire_ingress packet_bytes +. hub `Ingress,
    L.Cost_fn.eval params.L.Params.wire_egress packet_bytes +. hub `Egress )

let wire_cycles lnic ~packet_bytes ~emitted =
  let rx, tx = wire lnic ~packet_bytes in
  rx +. if emitted then tx else 0.
