(** The cost model shared by the mapping ILP and the predictor.

    Prices a CIR instruction or a dataflow node on a given compute unit,
    under a given memory placement (Γ) and concrete sizes.  This is where
    the paper's per-component observations meet: op-class cycle tables,
    accelerator cost functions, region access latencies with NUMA weights,
    cache hits for small footprints, FPU emulation on cores without
    hardware floats.

    {!price} is the one price table: which unit can run an instruction,
    at what op or vcall cost, and which memory accesses it makes.  Its
    caller prices the accesses.  Two evaluators share it: the point
    model here, and the interval bounds ([Clara_analysis.Cost_range]).

    The point model prices in two stages.  {!compile} takes a
    {!placement} (the unit, Γ, state footprints, the packet region) and
    a node, and resolves everything that does not depend on the packet:
    link weights, region latencies of local and state accesses, op-class
    costs, and which cost function each vcall uses.  {!apply} takes the
    result and a packet's {!sizes} and evaluates only the size terms:
    vcall cost functions, state access counts, the packet buffer's cache
    fit, and the loop trip.  A caller that prices the same node for many
    packets (the predictor) compiles once and applies per packet;
    {!node_breakdown} and {!node_cycles} do both at once. *)

(** Concrete values for symbolic sizes, from a workload average (mapping)
    or an individual packet (prediction). *)
type sizes = {
  payload_bytes : float;
  packet_bytes : float;
  header_bytes : float;
  state_entries : string -> float;
  opaque_trip : float;  (** Assumed trips for un-coarsened while loops. *)
}

val eval_size : sizes -> Clara_cir.Ir.size_expr -> float

val cache_locality : float ref
(** The model's one free parameter: the locality discount applied to
    cache hit ratios (default 0.85, calibrated so Figure 3a's error
    matches the paper's ~12%).  The [ablations] bench sweeps it.

    It is read when a price is compiled, packet accesses included, so a
    {!compiled} value keeps the discount it was compiled under.  A
    [Clara_predict.Price.t] or [Clara_predict.Latency.t] compiles its
    prices in [create]: changing the value afterwards does not affect
    it; create a new one. *)

(** Where a node runs: everything of its price that is fixed before the
    packet is known. *)
type placement = {
  lnic : Clara_lnic.Graph.t;
  exec_unit : Clara_lnic.Unit_.t;
  state_region : string -> int;   (** Γ: state object → memory id. *)
  state_footprint : string -> int;  (** Bytes, for cache-fit decisions. *)
  packet_region : int;            (** Memory id holding packet data. *)
}

type ctx = { place : placement; sizes : sizes }

val packet_region :
  Clara_lnic.Graph.t -> Clara_lnic.Unit_.t -> packet_bytes:float -> int
(** Where a unit sees packet data: cluster memory while the packet fits
    [packet_ctm_threshold], external memory once it spills (§3.2).
    @raise Invalid_argument when the unit reaches no memory. *)

val placement :
  Clara_lnic.Graph.t ->
  Clara_lnic.Unit_.t ->
  packet_bytes:float ->
  state_region:(string -> int) ->
  state_footprint:(string -> int) ->
  placement
(** A unit's placement for packets of [packet_bytes], with its
    {!packet_region}: the one constructor the mapper and predictor use. *)

(** {2 The price table}

    One function turns an instruction on a unit into a priced step.
    {!compile} prices each access on the placement's one region;
    [Clara_analysis.Cost_range] prices it as a hull over candidate
    regions.  The table is deliberately not a functor over a numeric
    domain: without flambda, a functor or a closure per step on the
    per-packet path would box floats, so {!apply} stays monomorphic
    float code over the steps {!compile} resolved from it. *)

type mode = [ `Read | `Write | `Atomic ]

(** A memory region as one unit sees it in one access mode: everything
    of an access's price but the footprint. *)
type region = {
  flat : float;    (** Uncached (miss) latency. *)
  weight : float;  (** NUMA weight of the unit's access link. *)
  cache : (float * float) option;
      (** (hit cycles, cache bytes), for cached reads and writes only. *)
  locality : float;  (** {!cache_locality} when the region was resolved. *)
}

val resolve_region :
  Clara_lnic.Graph.t -> Clara_lnic.Unit_.t -> mode:mode -> mem_id:int -> region option
(** [None] when the unit cannot reach the region. *)

val local_region : Clara_lnic.Graph.t -> Clara_lnic.Unit_.t -> int option
(** Where the unit's register and stack traffic goes: its fastest
    reachable [Local] region, else its fastest reachable region. *)

(** One instruction's price on one unit, with each memory access left
    as the caller priced it (['m]). *)
type 'm price =
  | Op of float  (** A core op. *)
  | Access of { op : float; loc : Clara_cir.Ir.loc; mem : 'm }
      (** A load, store or atomic: its op cost plus one access of [loc]. *)
  | Core_vcall of { fn : Clara_lnic.Cost_fn.t; size : Clara_cir.Ir.size_expr }
  | State_vcall of {
      fn : Clara_lnic.Cost_fn.t;
      size : Clara_cir.Ir.size_expr;
      state : string;
      reads : Clara_cir.Ir.size_expr;
      writes : Clara_cir.Ir.size_expr;
      read : 'm;   (** One read of the state. *)
      write : 'm;  (** One write of the state. *)
    }  (** A stateful vcall on a core: base cost plus its state accesses. *)
  | Accel_vcall of { fn : Clara_lnic.Cost_fn.t; size : Clara_cir.Ir.size_expr }
      (** Accelerators keep operands in their own SRAM: no memory charge. *)

val price :
  Clara_lnic.Graph.t ->
  Clara_lnic.Unit_.t ->
  access:(mode:mode -> Clara_cir.Ir.loc -> 'm option) ->
  Clara_cir.Ir.instr ->
  'm price option
(** [price lnic u ~access i]: the price of [i] on [u], with each memory
    access of [loc] priced by [access ~mode loc] ([None] when [u] cannot
    reach it).  [None] when [u] cannot execute [i]: general compute on
    an accelerator, a vcall the unit does not implement, an unreachable
    region. *)

type breakdown = {
  b_total : float;
      (** The price.  Summed in its own accumulator (vcall base, then
          state reads, then writes; instructions left to right; loop trip
          last), so it can differ from the sum of the three components
          by float rounding; consumers needing an exact decomposition
          take compute as the residual [b_total - b_mem - b_accel]. *)
  b_compute : float;  (** Core op/vcall base cost. *)
  b_mem : float;      (** Memory-region access charges. *)
  b_accel : float;    (** Accelerator service time. *)
}

(** {2 Stages} *)

type compiled
(** A node's price on one placement, waiting for the packet's sizes. *)

val compile : placement -> Node.t -> compiled option
(** [None] when the unit cannot execute some instruction of the node
    (general compute on an accelerator, a vcall the unit does not
    implement, a region the unit cannot reach). *)

val apply : compiled -> sizes -> breakdown
(** The node's price at these sizes: its instructions' charges added in
    order, then multiplied by its loop trip.  Bit-identical to
    {!node_breakdown} on a [ctx] with the same placement and sizes. *)

(** {2 One-shot pricing} — {!compile} then {!apply}. *)

val node_breakdown : ctx -> Node.t -> breakdown option
(** Sum over the node's instructions, multiplied by its loop trip; [None]
    when the unit cannot execute some instruction of the node. *)

val node_cycles : ctx -> Node.t -> float option
(** [b_total] of {!node_breakdown}. *)
