(** The cost model shared by the mapping ILP and the predictor.

    Prices a CIR instruction or a dataflow node on a given compute unit,
    under a given memory placement (Γ) and concrete sizes.  This is where
    the paper's per-component observations meet: op-class cycle tables,
    accelerator cost functions, region access latencies with NUMA weights,
    cache hits for small footprints, FPU emulation on cores without
    hardware floats.

    Pricing runs in two stages.  {!compile} takes a {!placement} (the
    unit, Γ, state footprints, the packet region) and a node, and
    resolves everything that does not depend on the packet: link
    weights, region latencies of local and state accesses, op-class
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

val mem_access_cycles :
  placement -> mode:[ `Read | `Write | `Atomic ] -> mem_id:int -> footprint:int ->
  float option
(** Region base latency (cache-adjusted when the footprint fits) plus the
    NUMA weight of the unit's bus; [None] when the unit cannot reach the
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

val instr_cycles : ctx -> Clara_cir.Ir.instr -> float option
(** [None] when the unit cannot execute the instruction (e.g. general
    compute on an accelerator, or a vcall the accelerator does not
    implement). *)

val node_breakdown : ctx -> Node.t -> breakdown option
(** Sum over the node's instructions, multiplied by its loop trip; [None]
    when the unit cannot execute some instruction of the node. *)

val node_cycles : ctx -> Node.t -> float option
(** [b_total] of {!node_breakdown}. *)
