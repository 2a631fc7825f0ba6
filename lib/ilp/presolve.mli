(** Presolve: bound tightening before branch & bound.

    Classic activity-based propagation: for each row Σ aᵢxᵢ {≤,≥,=} b and
    each variable, the row's extreme activity over the other variables
    implies a bound on this one.  Integer variables additionally get
    their bounds rounded inward.  Iterated to a fixpoint (bounded pass
    count).  Detecting an empty domain proves infeasibility without
    touching the simplex.

    Each row's minimum activity is computed once per visit, as a finite
    sum plus a count of unbounded terms; a variable's "rest of the row"
    is that sum minus its own term, so a pass costs O(nonzeros). *)

type result =
  | Tightened of (Rat.t * Rat.t option) array
      (** Per-variable (lower, upper) bounds, at least as tight as the
          model's own. *)
  | Proven_infeasible

val run :
  ?max_passes:int -> ?bounds:(Rat.t * Rat.t option) array -> Model.t -> result
(** [max_passes] defaults to 10.  [bounds] overrides the model's own
    variable bounds as the starting point — {!Branch_bound} uses this to
    propagate a freshly branched bound through each node's subproblem.
    The input array is not mutated. *)

type compiled
(** A model's rows, integrality and bounds, read once. *)

val compile : Model.t -> compiled

val run_compiled :
  ?max_passes:int -> ?bounds:(Rat.t * Rat.t option) array -> compiled -> result
(** [run_compiled (compile m)] is [run m]; {!Branch_bound} compiles once
    per solve and runs every node's propagation on the compiled rows. *)
