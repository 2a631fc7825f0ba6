(** {!Clara_dataflow.Cost}'s price table evaluated over {!Interval}s.

    A node's range covers its price under any admissible execution: any
    candidate unit, any candidate memory region, cache hit through miss,
    any size in the envelope, and — for stateful accelerator vcalls —
    the flow-cache hit at the fast end and the miss (upcall plus a
    software replay) at the slow end.  Which unit runs which instruction
    at what op and vcall cost is {!Clara_dataflow.Cost.price}'s
    decision; this module adds only what is interval-specific: the
    access hull over candidate regions, the miss regime, the hull over
    candidate units, the trip range and the wire range.  Endpoints are
    non-negative and may be infinite (an [S_opaque] loop trip). *)

type sizes = {
  payload_bytes : Interval.t;
  packet_bytes : Interval.t;
  header_bytes : Interval.t;
  state_entries : string -> Interval.t;
  opaque_trip : Interval.t;  (** Typically [[1, inf)]: no derivable bound. *)
}

val eval_size : sizes -> Clara_cir.Ir.size_expr -> Interval.t

val trip : sizes -> Clara_cir.Ir.size_expr -> Interval.t
(** A loop's trip range: the lower end admits zero iterations, the
    upper is floored at one so a loop node's range always covers its
    single-execution price. *)

(** Where a program's nodes may run on one target, independent of the
    mapping. *)
type t = {
  lnic : Clara_lnic.Graph.t;
  units : Clara_lnic.Unit_.t list;
      (** Candidate units: one representative per placement class. *)
  state_regions : string -> int list;
      (** Candidate regions per state: shared regions it fits in (all
          shared regions when it fits in none). *)
  packet_regions : int list;
      (** Candidate packet-data regions: cluster and external memories
          (all shared regions when the target has neither). *)
  state_footprint : string -> int;
  island_slack : float;
      (** The largest access-link weight, added to every access's upper
          end: the simulator charges remote CTM accesses a cross-island
          penalty the per-region prices do not carry. *)
}

val create : Clara_lnic.Graph.t -> Clara_cir.Ir.program -> t

type breakdown = { compute : Interval.t; mem : Interval.t; accel : Interval.t }
(** Per-axis ranges, mirroring {!Clara_dataflow.Cost.breakdown}. *)

val node :
  ?with_trip:bool -> t -> sizes -> Clara_dataflow.Node.t -> breakdown option
(** A compute node's range is the sum over its instructions of the hull
    over candidate units; a vcall node's is the hull of its one vcall.
    [None] when no candidate unit can execute some instruction.  With
    [with_trip] (default) the {!trip} range multiplies the body; pass
    [~with_trip:false] when the caller accounts for loop multiplicity
    itself (e.g. through execution-count intervals). *)

val wire :
  Clara_lnic.Graph.t -> packet_bytes:Interval.t -> dir:[ `Rx | `Tx ] -> Interval.t
(** DMA serialization + hub per-packet price over the size envelope. *)
