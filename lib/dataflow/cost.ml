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

type ctx = {
  lnic : L.Graph.t;
  exec_unit : L.Unit_.t;
  state_region : string -> int;
  state_footprint : string -> int;
  packet_region : int;
  sizes : sizes;
}

(* Caches are shared (packet spill, other flows), so even a footprint that
   fits is not always resident: the effective latency mixes hit and miss
   with a locality-discounted hit ratio.  The discount keeps Γ honest:
   with a full-hit assumption the EMEM's 3 MB cache (150 cyc) would
   always beat the IMEM (250 cyc); with the discount, random-access
   state (hash tables) still prefers the IMEM while scan-style walks
   (whose reuse is near-perfect) are only mildly over-charged — the
   residual is visible as Figure 3a's ~10% overprediction. *)
let cache_locality = ref 0.85

let mem_access_cycles ctx ~mode ~mem_id ~footprint =
  match L.Graph.access_weight ctx.lnic ~unit_id:ctx.exec_unit.L.Unit_.id ~mem_id with
  | None -> None
  | Some weight ->
      let m = L.Graph.memory ctx.lnic mem_id in
      let flat =
        match mode with
        | `Read -> m.L.Memory.read_cycles
        | `Write -> m.L.Memory.write_cycles
        | `Atomic -> m.L.Memory.atomic_cycles
      in
      let base =
        match (m.L.Memory.cache, mode) with
        | Some c, (`Read | `Write) ->
            let fit =
              if footprint <= 0 then 1.
              else
                Float.min 1.
                  (float_of_int c.L.Memory.cache_bytes /. float_of_int footprint)
            in
            let h = !cache_locality *. fit in
            (h *. float_of_int c.L.Memory.hit_cycles)
            +. ((1. -. h) *. float_of_int flat)
        | _ -> float_of_int flat
      in
      Some (base +. float_of_int weight)

(* Fastest reachable region of level Local (for register/stack traffic);
   falls back to the fastest reachable region of any level. *)
let local_region ctx =
  let reach = L.Graph.reachable_memories ctx.lnic ~unit_id:ctx.exec_unit.L.Unit_.id in
  match
    List.find_opt (fun (m, _) -> m.L.Memory.level = L.Memory.Local) reach
  with
  | Some (m, _) -> Some m.L.Memory.id
  | None -> ( match reach with (m, _) :: _ -> Some m.L.Memory.id | [] -> None)

let loc_access ctx ~mode (loc : Ir.loc) =
  match loc with
  | Ir.L_local -> (
      match local_region ctx with
      | None -> None
      | Some mem_id -> mem_access_cycles ctx ~mode ~mem_id ~footprint:0)
  | Ir.L_packet ->
      mem_access_cycles ctx ~mode ~mem_id:ctx.packet_region
        ~footprint:(int_of_float ctx.sizes.packet_bytes)
  | Ir.L_state s ->
      mem_access_cycles ctx ~mode ~mem_id:(ctx.state_region s)
        ~footprint:(ctx.state_footprint s)

(* One pricing pass yields a node's total and where its cycles go.  Each
   instruction's price is formed whole and then added to the running
   total (vcall base, then state reads, then state writes; instructions
   left to right; loop trip last), so the total does not depend on the
   split, and it can differ from the float sum of the components by
   rounding. *)

type breakdown = { b_total : float; b_compute : float; b_mem : float; b_accel : float }

type sums = {
  mutable total : float;
  mutable compute : float;
  mutable mem : float;
  mutable accel : float;
}

let add_compute s c =
  s.total <- s.total +. c;
  s.compute <- s.compute +. c

(* Adds the vcall's price to [s]; [false] when the unit cannot run it. *)
let add_vcall ctx s (v : Ir.vcall_info) =
  let params = ctx.lnic.L.Graph.params in
  let n = eval_size ctx.sizes v.Ir.size in
  match ctx.exec_unit.L.Unit_.kind with
  | L.Unit_.Accelerator kind -> (
      match P.accel_vcall_cost params kind v.Ir.vc with
      | None -> false
      | Some f ->
          (* Accelerators keep their operands in dedicated SRAM (e.g. the
             flow cache); no extra per-access memory charge. *)
          let c = L.Cost_fn.eval f n in
          s.total <- s.total +. c;
          s.accel <- s.accel +. c;
          true)
  | L.Unit_.General_core _ -> (
      match P.core_vcall_cost params v.Ir.vc with
      | None -> false
      | Some f -> (
          let base = L.Cost_fn.eval f n in
          match v.Ir.state with
          | None ->
              add_compute s base;
              true
          | Some st -> (
              let reads = eval_size ctx.sizes v.Ir.state_reads in
              let writes = eval_size ctx.sizes v.Ir.state_writes in
              let r = loc_access ctx ~mode:`Read (Ir.L_state st) in
              let w = loc_access ctx ~mode:`Write (Ir.L_state st) in
              match (r, w) with
              | Some rc, Some wc ->
                  let rm = reads *. rc and wm = writes *. wc in
                  s.total <- s.total +. (base +. rm +. wm);
                  s.compute <- s.compute +. base;
                  s.mem <- s.mem +. (rm +. wm);
                  true
              | _ -> false)))

let add_instr ctx s (i : Ir.instr) =
  let params = ctx.lnic.L.Graph.params in
  let access op loc ~mode ~has_fpu =
    match loc_access ctx ~mode loc with
    | None -> false
    | Some m ->
        let c = P.op_cost params op ~has_fpu in
        s.total <- s.total +. (m +. c);
        s.compute <- s.compute +. c;
        s.mem <- s.mem +. m;
        true
  in
  match (i, ctx.exec_unit.L.Unit_.kind) with
  | Ir.Vcall v, _ -> add_vcall ctx s v
  | _, L.Unit_.Accelerator _ -> false
  | Ir.Op cls, L.Unit_.General_core { has_fpu; _ } ->
      add_compute s (P.op_cost params cls ~has_fpu);
      true
  | Ir.Load loc, L.Unit_.General_core { has_fpu; _ } ->
      access P.Load loc ~mode:`Read ~has_fpu
  | Ir.Store loc, L.Unit_.General_core { has_fpu; _ } ->
      access P.Store loc ~mode:`Write ~has_fpu
  | Ir.Atomic_op loc, L.Unit_.General_core { has_fpu; _ } ->
      access P.Atomic loc ~mode:`Atomic ~has_fpu

let fresh () = { total = 0.; compute = 0.; mem = 0.; accel = 0. }

let instr_cycles ctx i =
  let s = fresh () in
  if add_instr ctx s i then Some s.total else None

(* The node's sums after its loop trip, or [None]. *)
let node_sums ctx (n : Node.t) =
  let s = fresh () in
  let ok =
    match n.Node.kind with
    | Node.N_vcall v -> add_vcall ctx s v
    | Node.N_compute is -> List.for_all (add_instr ctx s) is
  in
  if not ok then None
  else begin
    let k =
      match n.Node.loop_trip with
      | None -> 1.
      | Some t -> Float.max 1. (eval_size ctx.sizes t)
    in
    s.total <- s.total *. k;
    s.compute <- s.compute *. k;
    s.mem <- s.mem *. k;
    s.accel <- s.accel *. k;
    Some s
  end

let node_breakdown ctx n =
  match node_sums ctx n with
  | None -> None
  | Some s -> Some { b_total = s.total; b_compute = s.compute; b_mem = s.mem; b_accel = s.accel }

let node_cycles ctx n =
  match node_sums ctx n with None -> None | Some s -> Some s.total
