(** The compiled prices of a mapped NF: every node's
    {!Clara_dataflow.Cost.compiled} price, built once per (LNIC,
    dataflow graph, mapping).

    Each node is compiled on its unit for both sides of
    [packet_ctm_threshold] (the packet region differs), and once more on
    the LNIC's first general core for the off-path miss replay.  State
    is priced in its region (Γ, with accelerator-hosted state charged at
    external memory) at its footprint.  What is left per packet is an
    array read and {!Clara_dataflow.Cost.apply} on the packet's sizes.
    The latency walk, the path enumerator, and the throughput, energy
    and partial-offload estimators all price through one of these.

    {!Clara_dataflow.Cost.cache_locality} is read here, in {!create} and
    {!all_on}: a value built earlier keeps the discount it was built
    under. *)

type t

val create :
  Clara_lnic.Graph.t -> Clara_dataflow.Graph.t -> Clara_mapping.Mapping.t -> t
(** Nodes run on the mapping's units; state lives where the mapping put
    it, and state the mapping left in an accelerator (or did not place)
    is charged at the LNIC's external memory — the slow path walks the
    full table in DRAM, not the cached entries. *)

val all_on : Clara_lnic.Graph.t -> Clara_dataflow.Graph.t -> Clara_lnic.Unit_.t -> t
(** Every node on one unit and every state object in the LNIC's external
    memory (e.g. the host side of a partial offload, whose state lives in
    host DRAM). *)

val default_sizes : Clara_dataflow.Cost.sizes
(** A 300-byte-payload TCP packet (54-byte headers), no state entries:
    the evaluation point of the path, throughput, energy and partial
    estimators when the caller gives none. *)

val with_entries : t -> Clara_dataflow.Cost.sizes -> Clara_dataflow.Cost.sizes
(** [sizes] with its state entry counts replaced by the NF's declared
    ones. *)

val unit_of : t -> Clara_dataflow.Node.t -> Clara_lnic.Unit_.t

val block_nodes : t -> int -> Clara_dataflow.Node.t list
(** The nodes of a CIR block, in node order; [[]] for a block with none. *)

val runs : t -> Clara_dataflow.Node.t -> bool
(** Whether the node's unit can run it, for packets on either side of
    the CTM threshold. *)

val node :
  t -> Clara_dataflow.Cost.sizes -> Clara_dataflow.Node.t ->
  Clara_dataflow.Cost.breakdown option
(** The node's price on its unit; [None] when the unit cannot run it. *)

val software_cycles : t -> Clara_dataflow.Cost.sizes -> Clara_dataflow.Node.t -> float
(** What the node costs run in software on the LNIC's first general
    core, wherever the mapping placed it: the replay an off-path
    flow-cache miss pays after the upcall.  0 without general cores or
    when that core cannot run the node. *)

val wire : Clara_lnic.Graph.t -> packet_bytes:float -> float * float
(** [(rx, tx)]: wire DMA plus the ingress hub, and wire DMA plus the
    egress hub, for one packet of that size. *)

val wire_cycles : Clara_lnic.Graph.t -> packet_bytes:float -> emitted:bool -> float
(** [rx +. tx] when the packet is emitted, [rx +. 0.] otherwise. *)
