(** Offload-feasibility lint against a concrete LNIC target (pass 2).

    Catches programs that cannot map onto the chosen NIC — or whose
    predictions would be vacuous — before the ILP ever runs:

    - CLARA101 (error): a vcall with no supporting compute unit — the
      target's cores have no software cost model for it and no present
      accelerator implements it.
    - CLARA102 (error): a state object whose footprint exceeds every
      sharable memory tier and every accelerator SRAM on the target.
    - CLARA103 (warn): a loop with a statically-unknown ([S_opaque])
      trip count — prediction falls back to a fixed guess, so the
      latency clarity the tool exists for is lost on that path.
    - CLARA104 (info): a vcall sized by an opaque expression.
    - CLARA105 (warn, eSwitch targets only): a state object that cannot
      ride the hardware fast path — some touching vcall is not
      implemented by the eSwitch, raw loads/stores or a racy sharing
      verdict disqualify it, or it exceeds the flow-cache SRAM — so its
      packets demote to the core slow path and pay the upcall on every
      flow-cache miss. *)

val analyze :
  lnic:Clara_lnic.Graph.t -> Clara_cir.Ir.program -> Diag.t list

val accel_blockers :
  Clara_cir.Ir.program -> Clara_lnic.Params.t -> Clara_lnic.Unit_.accel_kind ->
  Clara_cir.Ir.state_obj -> racy:bool -> pinned:bool -> string list
(** Why a state of the program cannot live in an accelerator's SRAM, in
    order: touching vcalls it does not implement, raw loads/stores, a
    racy verdict, a footprint beyond the SRAM, a pin.  The mapper offers
    the placement iff the list is empty; CLARA105 prints it.
    [accel_blockers p] scans [p] once. *)
