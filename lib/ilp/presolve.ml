type result =
  | Tightened of (Rat.t * Rat.t option) array
  | Proven_infeasible

(* One upper-bound row: Σ coeffs.(i) · x_{vars.(i)} <= rhs.  Ge rows are
   negated; Eq rows become both directions. *)
type row = { vars : int array; coeffs : Rat.t array; rhs : Rat.t }

type compiled = {
  rows : row array; (* in visiting order *)
  is_int : bool array;
  model_bounds : (Rat.t * Rat.t option) array;
  contrib : Rat.t array; (* reused buffer: per-term minimum contribution *)
}

let compile model =
  let nv = Model.num_vars model in
  let rows = ref [] in
  let widest = ref 0 in
  Model.iter_constraints model (fun ~name:_ e sense rhs ->
      let terms = Array.of_list (Lin_expr.terms e) in
      widest := max !widest (Array.length terms);
      let vars = Array.map fst terms and coeffs = Array.map snd terms in
      let rhs = Rat.sub rhs (Lin_expr.constant e) in
      let pos = { vars; coeffs; rhs } in
      let neg () = { vars; coeffs = Array.map Rat.neg coeffs; rhs = Rat.neg rhs } in
      (* Rows are visited last constraint first; an Eq row's Le half
         before its Ge half. *)
      match sense with
      | Model.Le -> rows := pos :: !rows
      | Model.Ge -> rows := neg () :: !rows
      | Model.Eq -> rows := pos :: neg () :: !rows);
  {
    rows = Array.of_list !rows;
    is_int =
      Array.init nv (fun v ->
          match Model.var_type model v with
          | Model.Integer | Model.Binary -> true
          | Model.Continuous -> false);
    model_bounds = Array.init nv (Model.var_bounds model);
    contrib = Array.make !widest Rat.zero;
  }

let run_compiled ?(max_passes = 10) ?bounds c =
  let nv = Array.length c.is_int in
  let bounds =
    match bounds with
    | Some b ->
        if Array.length b <> nv then invalid_arg "Presolve.run: bounds arity";
        Array.copy b
    | None -> Array.copy c.model_bounds
  in
  let infeasible = ref false in
  let changed = ref true in
  let round_int v =
    if c.is_int.(v) then begin
      let lb, ub = bounds.(v) in
      let lb' = Rat.of_bigint (Rat.ceil lb) in
      let ub' = Option.map (fun u -> Rat.of_bigint (Rat.floor u)) ub in
      bounds.(v) <- (lb', ub')
    end
  in
  let tighten_lb v x =
    let lb, ub = bounds.(v) in
    if Rat.( > ) x lb then begin
      bounds.(v) <- (x, ub);
      round_int v;
      changed := true
    end
  in
  let tighten_ub v x =
    let lb, ub = bounds.(v) in
    let better = match ub with None -> true | Some u -> Rat.( < ) x u in
    if better then begin
      bounds.(v) <- (lb, Some x);
      round_int v;
      changed := true
    end
  in
  for v = 0 to nv - 1 do
    round_int v
  done;
  let contrib = c.contrib in
  let row { vars; coeffs; rhs } =
    (* Minimum activity as a finite sum plus a count of unbounded
       terms (a negative coefficient on a variable with no upper
       bound).  Tightening x_j below only moves the bound that does not
       enter x_j's minimum contribution, so the sum stays valid for the
       whole row and each term's rest is derived in O(1). *)
    let finite = ref Rat.zero and infinite = ref 0 in
    for i = 0 to Array.length vars - 1 do
      let a = coeffs.(i) in
      let lb, ub = bounds.(vars.(i)) in
      let s = Rat.sign a in
      if s > 0 then begin
        contrib.(i) <- Rat.mul a lb;
        finite := Rat.add !finite contrib.(i)
      end
      else if s < 0 then
        match ub with
        | Some u ->
            contrib.(i) <- Rat.mul a u;
            finite := Rat.add !finite contrib.(i)
        | None -> incr infinite
    done;
    (* Row infeasibility: even the minimum activity exceeds rhs. *)
    if !infinite = 0 && Rat.( > ) !finite rhs then infeasible := true;
    (* Per-variable tightening: a_j x_j <= rhs - min_activity(rest). *)
    for i = 0 to Array.length vars - 1 do
      let a = coeffs.(i) in
      let s = Rat.sign a in
      if s <> 0 then begin
        let v = vars.(i) in
        let unbounded_term =
          match snd bounds.(v) with None -> s < 0 | Some _ -> false
        in
        let rest =
          if unbounded_term then if !infinite = 1 then Some !finite else None
          else if !infinite = 0 then Some (Rat.sub !finite contrib.(i))
          else None
        in
        match rest with
        | None -> ()
        | Some mn ->
            let limit = Rat.div (Rat.sub rhs mn) a in
            if s > 0 then tighten_ub v limit else tighten_lb v limit
      end
    done
  in
  let pass () =
    Array.iter row c.rows;
    (* Empty domains. *)
    Array.iter
      (fun (lb, ub) ->
        match ub with Some u when Rat.( < ) u lb -> infeasible := true | _ -> ())
      bounds
  in
  let passes = ref 0 in
  while !changed && (not !infeasible) && !passes < max_passes do
    changed := false;
    incr passes;
    pass ()
  done;
  if !infeasible then Proven_infeasible else Tightened bounds

let run ?max_passes ?bounds model = run_compiled ?max_passes ?bounds (compile model)
