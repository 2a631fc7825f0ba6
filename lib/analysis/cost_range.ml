(* Cost's price table over intervals.  [Cost.price] decides what each
   instruction costs on a unit; this module prices its memory accesses
   as hulls over candidate regions and hulls the result over candidate
   units, so the bounds and the point model cannot disagree on the
   table itself. *)

module Ir = Clara_cir.Ir
module D = Clara_dataflow
module Cost = D.Cost
module L = Clara_lnic
module I = Interval

type sizes = {
  payload_bytes : I.t;
  packet_bytes : I.t;
  header_bytes : I.t;
  state_entries : string -> I.t;
  opaque_trip : I.t;
}

(* A negative range is [0, 0], not bottom: a size clamps to zero. *)
let clamp0 v = I.make (Float.max 0. (I.lo v)) (Float.max 0. (I.hi v))

let rec eval_size sizes = function
  | Ir.S_const n -> I.const (float_of_int n)
  | Ir.S_payload -> sizes.payload_bytes
  | Ir.S_packet -> sizes.packet_bytes
  | Ir.S_header -> sizes.header_bytes
  | Ir.S_state_entries s -> sizes.state_entries s
  | Ir.S_scaled (e, k) -> clamp0 (I.mul (I.const k) (eval_size sizes e))
  | Ir.S_plus (e, k) -> clamp0 (I.add (eval_size sizes e) (I.const (float_of_int k)))
  | Ir.S_opaque -> sizes.opaque_trip

let trip sizes t =
  let v = eval_size sizes t in
  I.make (Float.max 0. (I.lo v)) (Float.max 1. (I.hi v))

(* Hull of the endpoint evaluations; an infinite size yields the
   function's limit (infinite iff it actually grows). *)
let cost_fn f n =
  let lo_v = L.Cost_fn.eval f (Float.max 0. (I.lo n)) in
  let hi_v =
    if Float.is_finite (I.hi n) then L.Cost_fn.eval f (Float.max 0. (I.hi n))
    else if f.L.Cost_fn.per_unit > 0. || f.L.Cost_fn.log2_coeff > 0. then
      Float.infinity
    else f.L.Cost_fn.base
  in
  clamp0 (I.make (Float.min lo_v hi_v) (Float.max lo_v hi_v))

type t = {
  lnic : L.Graph.t;
  units : L.Unit_.t list;
  state_regions : string -> int list;
  packet_regions : int list;
  state_footprint : string -> int;
  island_slack : float;
}

let create (lnic : L.Graph.t) (p : Ir.program) =
  let footprint s =
    match Ir.state_obj_opt p s with Some o -> Ir.state_bytes o | None -> 0
  in
  let shared = L.Graph.shared_memories lnic in
  let ids = List.map (fun (m : L.Memory.t) -> m.L.Memory.id) in
  let state_regions s =
    match
      List.filter (fun (m : L.Memory.t) -> footprint s <= m.L.Memory.size_bytes) shared
    with
    | [] -> ids shared
    | fits -> ids fits
  in
  let packet_regions =
    match
      List.filter
        (fun (m : L.Memory.t) ->
          match m.L.Memory.level with
          | L.Memory.Cluster | L.Memory.External -> true
          | _ -> false)
        shared
    with
    | [] -> ids shared
    | ms -> ids ms
  in
  {
    lnic;
    units =
      List.map
        (fun (c : L.Graph.placement_class) -> c.L.Graph.rep)
        (L.Graph.placement_classes lnic);
    state_regions;
    packet_regions;
    state_footprint = footprint;
    island_slack = float_of_int (L.Graph.max_access_weight lnic);
  }

let hull join = function [] -> None | x :: xs -> Some (List.fold_left join x xs)

(* One access by [u] of [loc]: over its candidate regions, best case a
   cache hit, worst case the flat (miss) price, both plus the link
   weight.  No cache-fit blending: the blend lies between the two. *)
let access t (u : L.Unit_.t) ~mode (loc : Ir.loc) =
  let regions =
    match loc with
    | Ir.L_local -> Option.to_list (Cost.local_region t.lnic u)
    | Ir.L_packet -> t.packet_regions
    | Ir.L_state s -> t.state_regions s
  in
  let range (r : Cost.region) =
    let best =
      match r.Cost.cache with Some (hit, _) -> Float.min hit r.Cost.flat | None -> r.Cost.flat
    in
    I.make (best +. r.Cost.weight) (r.Cost.flat +. r.Cost.weight +. t.island_slack)
  in
  List.filter_map
    (fun mem_id -> Option.map range (Cost.resolve_region t.lnic u ~mode ~mem_id))
    regions
  |> hull I.join

type breakdown = { compute : I.t; mem : I.t; accel : I.t }

let zero = { compute = I.const 0.; mem = I.const 0.; accel = I.const 0. }
let map2 f a b =
  { compute = f a.compute b.compute; mem = f a.mem b.mem; accel = f a.accel b.accel }
let add = map2 I.add
let join = map2 I.join

(* The upper end of a stateful vcall's software replay on the first
   general core, priced through that core's step with the state walked
   out of its worst candidate region.  The read count is floored at one
   cache line per 64 state bytes: a flow-cache miss (or an LPM walk)
   traverses the backing table, not just the reads the fast path
   declares. *)
let replay_hi t sizes (v : Ir.vcall_info) =
  match L.Graph.general_cores t.lnic with
  | [] -> 0.
  | core :: _ -> (
      match Cost.price t.lnic core ~access:(access t core) (Ir.Vcall v) with
      | Some (Cost.State_vcall s) ->
          let reads =
            Float.max
              (I.hi (eval_size sizes s.reads))
              (float_of_int (t.state_footprint s.state) /. 64.)
          in
          let times n a = I.hi (I.mul (I.const n) a) in
          I.hi (cost_fn s.fn (eval_size sizes s.size))
          +. times reads s.read
          +. times (I.hi (eval_size sizes s.writes)) s.write
      | _ -> 0.)

(* One instruction on one unit. *)
let unit_range t sizes u (i : Ir.instr) =
  Option.map
    (function
      | Cost.Op c -> { zero with compute = I.const c }
      | Cost.Access { op; mem; _ } -> { zero with compute = I.const op; mem }
      | Cost.Core_vcall { fn; size } ->
          { zero with compute = cost_fn fn (eval_size sizes size) }
      | Cost.State_vcall s ->
          { zero with
            compute = cost_fn s.fn (eval_size sizes s.size);
            mem =
              I.add
                (I.mul (eval_size sizes s.reads) s.read)
                (I.mul (eval_size sizes s.writes) s.write) }
      | Cost.Accel_vcall { fn; size } -> (
          let hit = cost_fn fn (eval_size sizes size) in
          match i with
          | Ir.Vcall ({ Ir.state = Some _; _ } as v) ->
              (* Stateful accelerator work has two regimes: the
                 flow-cache hit at the hardware price, and the miss
                 paying the upcall (off-path targets) plus a software
                 replay over the backing table.  The range spans both. *)
              let miss = float_of_int (L.Graph.upcall_cycles t.lnic) +. replay_hi t sizes v in
              { zero with accel = hit; compute = I.make 0. miss }
          | _ -> { zero with accel = hit }))
    (Cost.price t.lnic u ~access:(access t u) i)

(* The hull over the candidate units that can execute [i]. *)
let instr_range t sizes i =
  hull join (List.filter_map (fun u -> unit_range t sizes u i) t.units)

let node ?(with_trip = true) t sizes (n : D.Node.t) =
  let body =
    match n.D.Node.kind with
    | D.Node.N_vcall v -> instr_range t sizes (Ir.Vcall v)
    | D.Node.N_compute is ->
        List.fold_left
          (fun acc i ->
            match (acc, instr_range t sizes i) with
            | Some a, Some c -> Some (add a c)
            | _ -> None)
          (Some zero) is
  in
  match (body, n.D.Node.loop_trip) with
  | Some b, Some tr when with_trip ->
      let k = trip sizes tr in
      Some { compute = I.mul k b.compute; mem = I.mul k b.mem; accel = I.mul k b.accel }
  | _ -> body

let wire lnic ~packet_bytes ~dir =
  let params = lnic.L.Graph.params in
  let fn, hub =
    match dir with
    | `Rx -> (params.L.Params.wire_ingress, `Ingress)
    | `Tx -> (params.L.Params.wire_egress, `Egress)
  in
  I.add (cost_fn fn packet_bytes) (I.const (float_of_int (L.Graph.hub_cycles lnic hub)))
