module Ir = Clara_cir.Ir
module L = Clara_lnic
module P = Clara_lnic.Params

type sizes = {
  payload_bytes : float;
  packet_bytes : float;
  header_bytes : float;
  state_entries : string -> float;
  opaque_trip : float;
}

let rec eval_size sizes = function
  | Ir.S_const n -> float_of_int n
  | Ir.S_payload -> sizes.payload_bytes
  | Ir.S_packet -> sizes.packet_bytes
  | Ir.S_header -> sizes.header_bytes
  | Ir.S_state_entries s -> sizes.state_entries s
  | Ir.S_scaled (e, k) -> Float.max 0. (k *. eval_size sizes e)
  | Ir.S_plus (e, k) -> Float.max 0. (eval_size sizes e +. float_of_int k)
  | Ir.S_opaque -> sizes.opaque_trip

type placement = {
  lnic : L.Graph.t;
  exec_unit : L.Unit_.t;
  state_region : string -> int;
  state_footprint : string -> int;
  packet_region : int;
}

type ctx = { place : placement; sizes : sizes }

(* Cluster memory while the packet fits the CTM threshold, external
   memory once it spills (§3.2). *)
let packet_region lnic (u : L.Unit_.t) ~packet_bytes =
  let reach = L.Graph.reachable_memories lnic ~unit_id:u.L.Unit_.id in
  let threshold = lnic.L.Graph.params.P.packet_ctm_threshold in
  let pick level =
    List.find_opt (fun (m, _) -> m.L.Memory.level = level) reach
  in
  let choice =
    if int_of_float packet_bytes <= threshold then
      (match pick L.Memory.Cluster with None -> pick L.Memory.External | s -> s)
    else
      match pick L.Memory.External with None -> pick L.Memory.Cluster | s -> s
  in
  match (choice, reach) with
  | Some (m, _), _ -> m.L.Memory.id
  | None, (m, _) :: _ -> m.L.Memory.id
  | None, [] -> invalid_arg "Cost.packet_region: unit reaches no memory"

let placement lnic u ~packet_bytes ~state_region ~state_footprint =
  { lnic; exec_unit = u; state_region; state_footprint;
    packet_region = packet_region lnic u ~packet_bytes }

(* Caches are shared (packet spill, other flows), so even a footprint that
   fits is not always resident: the effective latency mixes hit and miss
   with a locality-discounted hit ratio.  The discount keeps Γ honest:
   with a full-hit assumption the EMEM's 3 MB cache (150 cyc) would
   always beat the IMEM (250 cyc); with the discount, random-access
   state (hash tables) still prefers the IMEM while scan-style walks
   (whose reuse is near-perfect) are only mildly over-charged — the
   residual is visible as Figure 3a's ~10% overprediction. *)
let cache_locality = ref 0.85

type mode = [ `Read | `Write | `Atomic ]

(* A region as one unit sees it in one access mode: everything of its
   price but the footprint.  [cache] is (hit cycles, cache bytes), only
   for cached reads and writes; [locality] is [!cache_locality] when the
   region was resolved. *)
type region = {
  flat : float;
  weight : float;
  cache : (float * float) option;
  locality : float;
}

let resolve_region lnic (u : L.Unit_.t) ~mode ~mem_id =
  match L.Graph.access_weight lnic ~unit_id:u.L.Unit_.id ~mem_id with
  | None -> None
  | Some weight ->
      let m = L.Graph.memory lnic mem_id in
      let flat =
        match mode with
        | `Read -> m.L.Memory.read_cycles
        | `Write -> m.L.Memory.write_cycles
        | `Atomic -> m.L.Memory.atomic_cycles
      in
      let cache =
        match (m.L.Memory.cache, mode) with
        | Some c, (`Read | `Write) ->
            Some (float_of_int c.L.Memory.hit_cycles, float_of_int c.L.Memory.cache_bytes)
        | _ -> None
      in
      Some
        { flat = float_of_int flat; weight = float_of_int weight; cache;
          locality = !cache_locality }

(* The one region-cost body. *)
let region_cycles r ~footprint =
  let base =
    match r.cache with
    | Some (hit, bytes) ->
        let fit =
          if footprint <= 0 then 1. else Float.min 1. (bytes /. float_of_int footprint)
        in
        let h = r.locality *. fit in
        (h *. hit) +. ((1. -. h) *. r.flat)
    | None -> r.flat
  in
  base +. r.weight

(* Fastest reachable region of level Local (for register/stack traffic);
   falls back to the fastest reachable region of any level. *)
let local_region lnic (u : L.Unit_.t) =
  let reach = L.Graph.reachable_memories lnic ~unit_id:u.L.Unit_.id in
  match
    List.find_opt (fun (m, _) -> m.L.Memory.level = L.Memory.Local) reach
  with
  | Some (m, _) -> Some m.L.Memory.id
  | None -> ( match reach with (m, _) :: _ -> Some m.L.Memory.id | [] -> None)

(* {2 The price table} *)

type 'm price =
  | Op of float
  | Access of { op : float; loc : Ir.loc; mem : 'm }
  | Core_vcall of { fn : L.Cost_fn.t; size : Ir.size_expr }
  | State_vcall of {
      fn : L.Cost_fn.t;
      size : Ir.size_expr;
      state : string;
      reads : Ir.size_expr;
      writes : Ir.size_expr;
      read : 'm;
      write : 'm;
    }
  | Accel_vcall of { fn : L.Cost_fn.t; size : Ir.size_expr }

let price lnic (u : L.Unit_.t) ~access (i : Ir.instr) =
  let params = lnic.L.Graph.params in
  let mem op ~mode ~has_fpu loc =
    Option.map
      (fun mem -> Access { op = P.op_cost params op ~has_fpu; loc; mem })
      (access ~mode loc)
  in
  match (i, u.L.Unit_.kind) with
  | Ir.Vcall v, L.Unit_.Accelerator kind ->
      (* Accelerators keep their operands in dedicated SRAM (e.g. the
         flow cache); no extra per-access memory charge. *)
      Option.map
        (fun fn -> Accel_vcall { fn; size = v.Ir.size })
        (P.accel_vcall_cost params kind v.Ir.vc)
  | Ir.Vcall v, L.Unit_.General_core _ -> (
      match (P.core_vcall_cost params v.Ir.vc, v.Ir.state) with
      | None, _ -> None
      | Some fn, None -> Some (Core_vcall { fn; size = v.Ir.size })
      | Some fn, Some st -> (
          let state = Ir.L_state st in
          match (access ~mode:`Read state, access ~mode:`Write state) with
          | Some read, Some write ->
              Some
                (State_vcall
                   { fn; size = v.Ir.size; state = st; reads = v.Ir.state_reads;
                     writes = v.Ir.state_writes; read; write })
          | _ -> None))
  | _, L.Unit_.Accelerator _ -> None
  | Ir.Op cls, L.Unit_.General_core { has_fpu; _ } ->
      Some (Op (P.op_cost params cls ~has_fpu))
  | Ir.Load loc, L.Unit_.General_core { has_fpu; _ } ->
      mem P.Load ~mode:`Read ~has_fpu loc
  | Ir.Store loc, L.Unit_.General_core { has_fpu; _ } ->
      mem P.Store ~mode:`Write ~has_fpu loc
  | Ir.Atomic_op loc, L.Unit_.General_core { has_fpu; _ } ->
      mem P.Atomic ~mode:`Atomic ~has_fpu loc

(* {2 Stage one: compile}

   A step is one instruction's price with every size-independent part
   resolved.  [apply] adds each step to the running sums exactly as the
   price is formed here, so staging changes no float. *)

type step =
  | Compute of float  (* a core op *)
  | Fixed_access of { total : float; compute : float; mem : float }
      (* a local, state or uncached packet access: (m +. c, c, m) *)
  | Packet_access of { op : float; region : region }
      (* a cached packet access: m depends on the packet's bytes *)
  | Core_call of { fn : L.Cost_fn.t; size : Ir.size_expr }
  | State_call of {
      fn : L.Cost_fn.t;
      size : Ir.size_expr;
      reads : Ir.size_expr;
      writes : Ir.size_expr;
      read_cycles : float;
      write_cycles : float;
    }
  | Accel_call of { fn : L.Cost_fn.t; size : Ir.size_expr }

type compiled = { steps : step array; trip : Ir.size_expr option }

let stage p = function
  | Op c -> Compute c
  | Access { op; loc = Ir.L_packet; mem = ({ cache = Some _; _ } as region) } ->
      Packet_access { op; region }
  | Access { op; loc; mem } ->
      let footprint = match loc with Ir.L_state s -> p.state_footprint s | _ -> 0 in
      let m = region_cycles mem ~footprint in
      Fixed_access { total = m +. op; compute = op; mem = m }
  | Core_vcall { fn; size } -> Core_call { fn; size }
  | State_vcall v ->
      let footprint = p.state_footprint v.state in
      State_call
        { fn = v.fn; size = v.size; reads = v.reads; writes = v.writes;
          read_cycles = region_cycles v.read ~footprint;
          write_cycles = region_cycles v.write ~footprint }
  | Accel_vcall { fn; size } -> Accel_call { fn; size }

let compile p (n : Node.t) =
  (* The register region is resolved at most once per node. *)
  let local = lazy (local_region p.lnic p.exec_unit) in
  let access ~mode loc =
    let mem_id =
      match loc with
      | Ir.L_local -> Lazy.force local
      | Ir.L_state s -> Some (p.state_region s)
      | Ir.L_packet -> Some p.packet_region
    in
    Option.bind mem_id (fun mem_id -> resolve_region p.lnic p.exec_unit ~mode ~mem_id)
  in
  let step i = Option.map (stage p) (price p.lnic p.exec_unit ~access i) in
  let rec steps acc = function
    | [] -> Some (Array.of_list (List.rev acc))
    | i :: is -> ( match step i with None -> None | Some s -> steps (s :: acc) is)
  in
  let steps =
    match n.Node.kind with
    | Node.N_vcall v -> Option.map (fun s -> [| s |]) (step (Ir.Vcall v))
    | Node.N_compute is -> steps [] is
  in
  Option.map (fun steps -> { steps; trip = n.Node.loop_trip }) steps

(* {2 Stage two: apply}

   Each step's price is formed whole and then added to the running total
   (vcall base, then state reads, then state writes; instructions left
   to right; loop trip last), so the total does not depend on the split,
   and it can differ from the float sum of the components by rounding. *)

type breakdown = { b_total : float; b_compute : float; b_mem : float; b_accel : float }

let apply c sizes =
  let total = ref 0. and compute = ref 0. and mem = ref 0. and accel = ref 0. in
  for i = 0 to Array.length c.steps - 1 do
    match c.steps.(i) with
    | Compute x ->
        total := !total +. x;
        compute := !compute +. x
    | Fixed_access a ->
        total := !total +. a.total;
        compute := !compute +. a.compute;
        mem := !mem +. a.mem
    | Packet_access a ->
        let m =
          region_cycles a.region ~footprint:(int_of_float sizes.packet_bytes)
        in
        total := !total +. (m +. a.op);
        compute := !compute +. a.op;
        mem := !mem +. m
    | Core_call v ->
        let base = L.Cost_fn.eval v.fn (eval_size sizes v.size) in
        total := !total +. base;
        compute := !compute +. base
    | State_call v ->
        let base = L.Cost_fn.eval v.fn (eval_size sizes v.size) in
        let rm = eval_size sizes v.reads *. v.read_cycles
        and wm = eval_size sizes v.writes *. v.write_cycles in
        total := !total +. (base +. rm +. wm);
        compute := !compute +. base;
        mem := !mem +. (rm +. wm)
    | Accel_call v ->
        let x = L.Cost_fn.eval v.fn (eval_size sizes v.size) in
        total := !total +. x;
        accel := !accel +. x
  done;
  let k =
    match c.trip with None -> 1. | Some t -> Float.max 1. (eval_size sizes t)
  in
  { b_total = !total *. k; b_compute = !compute *. k; b_mem = !mem *. k;
    b_accel = !accel *. k }

let node_breakdown ctx n = Option.map (fun c -> apply c ctx.sizes) (compile ctx.place n)

let node_cycles ctx n = Option.map (fun b -> b.b_total) (node_breakdown ctx n)
