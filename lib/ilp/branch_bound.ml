type status = Optimal | Infeasible | Unbounded | Node_limit

let c_explored = Clara_obs.Registry.counter Clara_obs.Registry.default "ilp.bb.nodes"
let c_pruned = Clara_obs.Registry.counter Clara_obs.Registry.default "ilp.bb.pruned"

let c_infeasible =
  Clara_obs.Registry.counter Clara_obs.Registry.default "ilp.bb.infeasible_nodes"

let c_incumbents =
  Clara_obs.Registry.counter Clara_obs.Registry.default "ilp.bb.incumbents"

let c_best_bound =
  Clara_obs.Registry.counter Clara_obs.Registry.default "ilp.bb.best_bound_prunes"

let c_cutoff =
  Clara_obs.Registry.counter Clara_obs.Registry.default "ilp.bb.cutoff_prunes"

(* Sub-spans of the caller's active span: bound propagation, and the
   simplex (root solve plus every warm restart). *)
let presolve_span f = Clara_obs.Registry.span Clara_obs.Registry.default "presolve" f
let lp_span f = Clara_obs.Registry.span Clara_obs.Registry.default "lp" f

type outcome = {
  status : status;
  objective : Rat.t;
  values : Rat.t array;
  nodes : int;
  incumbent : bool;
  gap : Rat.t option;
}

let rat_abs x = if Rat.sign x < 0 then Rat.neg x else x

(* Depth-first branch and bound, warm-started: each child re-optimizes a
   copy of its parent's final tableau (one variable's bounds changed)
   with dual-simplex pivots instead of a phase-1 cold start.  Branching
   is expressed as bound-override arrays, so the model itself is never
   mutated. *)
let solve ?(node_limit = 200_000) ?initial_bound model =
  let nv = Model.num_vars model in
  let dir, obj_expr = Model.objective model in
  (* [better a b]: is objective [a] strictly better than [b]? *)
  let better a b =
    match dir with
    | Model.Minimize -> Rat.( < ) a b
    | Model.Maximize -> Rat.( > ) a b
  in
  (* An externally supplied inclusive bound on the optimum (e.g. the
     static cost interval's ceiling): any subtree whose relaxation is
     strictly worse cannot contain an optimal point.  Strict, because a
     solution exactly at the bound must survive. *)
  let cutoff_prunes pb =
    match initial_bound with
    | Some ib -> better ib pb
    | None -> false
  in
  let int_vars =
    List.filter
      (fun v ->
        match Model.var_type model v with
        | Model.Integer | Model.Binary -> true
        | Model.Continuous -> false)
      (List.init nv Fun.id)
  in
  (* When every variable is integer and every objective coefficient is
     an integer, the objective is integral at any feasible point, so a
     subtree's fractional relaxation bound rounds to the nearest integer
     in the objective direction — strictly stronger pruning. *)
  let integral_obj =
    List.length int_vars = nv
    && Rat.is_integer (Lin_expr.constant obj_expr)
    && Lin_expr.fold (fun _ c acc -> acc && Rat.is_integer c) obj_expr true
  in
  let round_bound pb =
    if not integral_obj then pb
    else
      match dir with
      | Model.Minimize -> Rat.of_bigint (Rat.ceil pb)
      | Model.Maximize -> Rat.of_bigint (Rat.floor pb)
  in
  let incumbent = ref None in
  let nodes = ref 0 in
  let unbounded = ref false in
  let node_limited = ref false in
  (* Pending subtrees: (parent LP node, child bounds, parent's relaxation
     objective — a valid bound on anything below).  LIFO, so the branch
     pushed last pops first. *)
  let stack = ref [] in
  (* Relaxation bounds of the subtrees left unexplored at cutoff, for
     the optimality gap. *)
  let open_bounds = ref [] in
  let count_node () =
    incr nodes;
    Clara_obs.Metrics.incr c_explored
  in
  let process lp_node result =
    match result with
    | { Lp.status = Lp.Infeasible; _ } -> Clara_obs.Metrics.incr c_infeasible
    | { Lp.status = Lp.Unbounded; _ } ->
        (* The relaxation being unbounded does not by itself prove the ILP
           unbounded, but for the bounded models Clara emits this only
           happens at the root; report it. *)
        unbounded := true
    | { Lp.status = Lp.Optimal; objective; values } -> (
        let dominated =
          match !incumbent with
          | None -> false
          | Some (inc_obj, _) -> not (better objective inc_obj)
        in
        if dominated then Clara_obs.Metrics.incr c_pruned
        else if cutoff_prunes (round_bound objective) then
          Clara_obs.Metrics.incr c_cutoff
        else
          match
            List.find_opt (fun v -> not (Rat.is_integer values.(v))) int_vars
          with
          | None ->
              Clara_obs.Metrics.incr c_incumbents;
              incumbent := Some (objective, values)
          | Some v ->
              let bounds = Lp.node_bounds lp_node in
              let x = values.(v) in
              let lb, ub = bounds.(v) in
              let down = Array.copy bounds in
              down.(v) <- (lb, Some (Rat.of_bigint (Rat.floor x)));
              let up = Array.copy bounds in
              up.(v) <- (Rat.of_bigint (Rat.ceil x), ub);
              (* Explore the branch nearest the relaxation value first. *)
              let near, far =
                if Rat.( < ) (Rat.frac x) (Rat.of_ints 1 2) then (down, up)
                else (up, down)
              in
              let bound = Some (round_bound objective) in
              stack := (lp_node, near, bound) :: (lp_node, far, bound) :: !stack)
  in
  (* Rows are read from the model once; every node propagates on them. *)
  let rows, root_presolve =
    presolve_span (fun () ->
        let rows = Presolve.compile model in
        (rows, Presolve.run_compiled rows))
  in
  (match root_presolve with
  | Presolve.Proven_infeasible -> ()
  | Presolve.Tightened base_bounds ->
      count_node ();
      let root_node, root_res = lp_span (fun () -> Lp.root ~bounds:base_bounds model) in
      process root_node root_res;
      let rec drain () =
        match !stack with
        | [] -> ()
        | (parent, bounds, pbound) :: rest ->
            if !nodes >= node_limit then begin
              (* Out of budget: everything still stacked stays open. *)
              node_limited := true;
              open_bounds := List.map (fun (_, _, pb) -> pb) !stack;
              stack := []
            end
            else begin
              stack := rest;
              count_node ();
              (* Best-bound pruning: the parent's relaxation objective
                 bounds everything in this subtree, so an incumbent at
                 least as good closes it without touching the simplex. *)
              let prune =
                match (!incumbent, pbound) with
                | Some (inc_obj, _), Some pb -> not (better pb inc_obj)
                | _ -> false
              in
              let cut =
                (not prune)
                && match pbound with Some pb -> cutoff_prunes pb | None -> false
              in
              if prune then Clara_obs.Metrics.incr c_best_bound
              else if cut then Clara_obs.Metrics.incr c_cutoff
              else begin
                (* Propagate the branched bound through the rows before
                   solving; a few passes catch the common implied-bound
                   chains without fixpoint cost. *)
                match
                  presolve_span (fun () ->
                      Presolve.run_compiled ~max_passes:3 ~bounds rows)
                with
                | Presolve.Proven_infeasible ->
                    Clara_obs.Metrics.incr c_infeasible
                | Presolve.Tightened bounds' ->
                    let node, res =
                      lp_span (fun () -> Lp.rebound parent ~bounds:bounds')
                    in
                    process node res
              end;
              drain ()
            end
      in
      drain ());
  if !node_limited then
    match !incumbent with
    | Some (objective, values) ->
        (* Gap between the incumbent and the most promising open
           subtree; zero when no open subtree can beat the incumbent. *)
        let best_open =
          List.fold_left
            (fun acc pb ->
              match (acc, pb) with
              | None, Some b -> Some b
              | Some a, Some b -> if better b a then Some b else Some a
              | acc, None -> acc)
            None !open_bounds
        in
        let gap =
          match best_open with
          | Some b when better b objective -> Some (rat_abs (Rat.sub objective b))
          | Some _ | None -> Some Rat.zero
        in
        { status = Node_limit; objective; values; nodes = !nodes;
          incumbent = true; gap }
    | None ->
        { status = Node_limit; objective = Rat.zero;
          values = Array.make nv Rat.zero; nodes = !nodes; incumbent = false;
          gap = None }
  else
    match (!incumbent, !unbounded) with
    | Some (objective, values), _ ->
        { status = Optimal; objective; values; nodes = !nodes;
          incumbent = true; gap = None }
    | None, true ->
        { status = Unbounded; objective = Rat.zero;
          values = Array.make nv Rat.zero; nodes = !nodes; incumbent = false;
          gap = None }
    | None, false ->
        { status = Infeasible; objective = Rat.zero;
          values = Array.make nv Rat.zero; nodes = !nodes; incumbent = false;
          gap = None }
