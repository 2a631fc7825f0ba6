(** ILP encoding of the mapping problem (§3.4).

    Variables:
    - x{_n,c} ∈ {0,1}: dataflow node n runs on placement class c (Π);
    - y{_s,m} ∈ {0,1}: state object s lives in memory region m, or in a
      stateful accelerator's SRAM (Γ);
    - z{_n,c,m} = x{_n,c} ∧ y{_s,m} for state-touching nodes, linearized,
      so node costs can depend on the placement of the state they touch.

    Constraints: each node mapped exactly once; each state placed exactly
    once; pipeline edges never decrease the hardware stage
    (Π[k] ≥ Π[t] along dataflow edges); region and accelerator-SRAM
    capacities (Θ's capacity side; queue latencies are constants the
    predictor adds).

    Objective: minimize expected per-packet cycles — node costs priced by
    {!Clara_dataflow.Cost} and weighted by guard-derived execution
    frequencies ({!Clara_dataflow.Flow}), emulating what a good hand port
    would choose.

    Encoding runs in two steps, each its own [--stats] span under
    [encode]: [price] prices every candidate placement of every node (a
    usable class from {!Mapping.usable_classes}, paired with a region or
    accelerator its state may take), and [model] then creates the
    variables and constraints in a fixed order.  The placement rules are
    read from their owners: packet regions and placements from
    {!Clara_dataflow.Cost.placement}, sharable regions from
    {!Clara_lnic.Graph.shared_memories}, and accelerator hosting from
    {!Clara_analysis.Feasibility.accel_blockers}, the rule CLARA105
    explains. *)

val map_nf :
  ?options:Mapping.options ->
  ?dump_lp:string ->
  Clara_lnic.Graph.t ->
  Clara_dataflow.Graph.t ->
  sizes:Clara_dataflow.Cost.sizes ->
  prob:(Clara_cir.Ir.guard -> float) ->
  (Mapping.t, string) result
(** [Error] explains infeasibility (a node no unit can run, a state no
    region can hold, or contradictory pipeline requirements).  [dump_lp]
    writes the encoded model in CPLEX LP format before solving, for
    inspection or cross-checking with an external solver. *)

val ilp_model :
  ?options:Mapping.options ->
  Clara_lnic.Graph.t ->
  Clara_dataflow.Graph.t ->
  sizes:Clara_dataflow.Cost.sizes ->
  prob:(Clara_cir.Ir.guard -> float) ->
  (Clara_ilp.Model.t, string) result
(** The model {!map_nf} would solve, unsolved; for benchmarking the
    solver's layers on real mapping problems. *)
