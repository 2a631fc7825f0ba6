(* Bounded-variable two-phase primal simplex with a dual-simplex
   re-optimizer, on dense rational tableaus.

   Variable bounds [lo, up] are handled natively: a nonbasic variable
   sits at its lower or upper bound and the ratio test considers both
   leaving directions plus a bound flip of the entering variable.  This
   keeps the tableau at one row per constraint instead of lowering each
   finite upper bound to an explicit row.

   The tableau is a persistent object: branch & bound copies a parent's
   final (optimal) tableau, tightens one variable's bounds, and
   re-optimizes with dual-simplex pivots, which is far cheaper than a
   phase-1 cold start.  Everything is exact rational arithmetic, so
   "zero" means zero and feasibility verdicts are decisive. *)

(* Hoisted counters: bumping is one int store, nothing allocated on the
   pivot path. *)
let c_solves = Clara_obs.Registry.counter Clara_obs.Registry.default "ilp.simplex.solves"
let c_pivots = Clara_obs.Registry.counter Clara_obs.Registry.default "ilp.simplex.pivots"

let c_iterations =
  Clara_obs.Registry.counter Clara_obs.Registry.default "ilp.simplex.iterations"

let c_warm =
  Clara_obs.Registry.counter Clara_obs.Registry.default "ilp.simplex.warm_starts"

type row = { coeffs : Rat.t array; sense : Model.sense; rhs : Rat.t }
type status = Optimal | Infeasible | Unbounded

type result = { status : status; objective : Rat.t; solution : Rat.t array }

exception Stalled

type vstate = Basic of int | At_lower | At_upper

type t = {
  m : int;
  nstruct : int;
  art_start : int;        (* columns >= art_start are artificials *)
  ncols : int;
  a : Rat.t array array;  (* m x ncols, basic columns kept at identity *)
  basis : int array;      (* m, column basic in each row *)
  state : vstate array;   (* ncols *)
  xval : Rat.t array;     (* ncols, value of every variable; nonbasic
                             variables sit exactly on a bound *)
  lo : Rat.t array;       (* ncols *)
  up : Rat.t option array;(* ncols, None = +infinity *)
  cost : Rat.t array;     (* ncols, phase-2 costs (shared across copies) *)
  z : Rat.t array;        (* ncols, reduced costs of the current phase *)
}

let rat_abs x = if Rat.sign x < 0 then Rat.neg x else x

let is_fixed t j =
  match t.up.(j) with Some u -> Rat.( = ) u t.lo.(j) | None -> false

(* Pivot on (row r, col c): scale row r so a.(r).(c) = 1, eliminate
   column c from every other row and from the reduced costs.  Values in
   [xval] are the caller's responsibility (pivoting is a change of
   basis, not of the current point). *)
let pivot t r c =
  Clara_obs.Metrics.incr c_pivots;
  let row = t.a.(r) in
  let arc = row.(c) in
  assert (not (Rat.is_zero arc));
  if not (Rat.( = ) arc Rat.one) then begin
    let inv = Rat.inv arc in
    for j = 0 to t.ncols - 1 do
      if not (Rat.is_zero row.(j)) then row.(j) <- Rat.mul row.(j) inv
    done
  end;
  (* Eliminate along the pivot row's nonzeros only: tableau rows are
     sparse, and a zero entry of row r leaves column j unchanged. *)
  let nz = ref [] in
  for j = t.ncols - 1 downto 0 do
    if not (Rat.is_zero row.(j)) then nz := j :: !nz
  done;
  let nz = Array.of_list !nz in
  let eliminate (target : Rat.t array) f =
    for k = 0 to Array.length nz - 1 do
      let j = nz.(k) in
      target.(j) <- Rat.sub target.(j) (Rat.mul f row.(j))
    done
  in
  for i = 0 to t.m - 1 do
    if i <> r then begin
      let f = t.a.(i).(c) in
      if not (Rat.is_zero f) then eliminate t.a.(i) f
    end
  done;
  if not (Rat.is_zero t.z.(c)) then eliminate t.z t.z.(c);
  t.basis.(r) <- c;
  t.state.(c) <- Basic r

let create ~c ~rows ~bounds =
  let nstruct = Array.length c in
  if Array.length bounds <> nstruct then
    invalid_arg "Simplex.create: bounds arity mismatch";
  List.iter
    (fun r ->
      if Array.length r.coeffs <> nstruct then
        invalid_arg "Simplex.solve: row arity mismatch")
    rows;
  (* Normalize Ge rows to Le so every slack has coefficient +1 and lower
     bound 0; an Eq slack is fixed at [0, 0]. *)
  let rows =
    Array.of_list rows
    |> Array.map (fun r ->
           match r.sense with
           | Model.Ge ->
               { coeffs = Array.map Rat.neg r.coeffs;
                 sense = Model.Le;
                 rhs = Rat.neg r.rhs }
           | Model.Le | Model.Eq -> r)
  in
  let m = Array.length rows in
  (* Residual of each row at the all-variables-at-lower-bound point. *)
  let resid =
    Array.map
      (fun r ->
        let acc = ref r.rhs in
        for j = 0 to nstruct - 1 do
          if not (Rat.is_zero r.coeffs.(j)) then
            acc := Rat.sub !acc (Rat.mul r.coeffs.(j) (fst bounds.(j)))
        done;
        !acc)
      rows
  in
  (* A row can start without an artificial iff its slack can absorb the
     residual: nonnegative for Le, exactly zero for Eq. *)
  let unsatisfied i =
    match rows.(i).sense with
    | Model.Le -> Rat.sign resid.(i) < 0
    | Model.Eq -> Rat.sign resid.(i) <> 0
    | Model.Ge -> assert false
  in
  (* Crash heuristic: flipping a bounded variable to its upper bound
     sometimes zeroes an Eq row's residual exactly (e.g. the Σx = 1
     assignment rows of mapping models, where any binary in the row
     works).  Each successful flip saves an artificial variable and the
     phase-1 pivots needed to drive it out.  A flip is only accepted if
     no currently-satisfied row becomes unsatisfied. *)
  let at_upper = Array.make nstruct false in
  for i = 0 to m - 1 do
    if rows.(i).sense = Model.Eq && Rat.sign resid.(i) <> 0 then begin
      let found = ref false in
      let j = ref 0 in
      while (not !found) && !j < nstruct do
        (match snd bounds.(!j) with
        | Some u when not at_upper.(!j) ->
            let cj = rows.(i).coeffs.(!j) in
            let w = Rat.sub u (fst bounds.(!j)) in
            if
              (not (Rat.is_zero cj))
              && Rat.sign w > 0
              && Rat.( = ) (Rat.mul cj w) resid.(i)
            then begin
              let ok = ref true in
              for k = 0 to m - 1 do
                if
                  !ok && k <> i
                  && (not (Rat.is_zero rows.(k).coeffs.(!j)))
                  && not (unsatisfied k)
                then begin
                  let r' =
                    Rat.sub resid.(k) (Rat.mul rows.(k).coeffs.(!j) w)
                  in
                  let bad =
                    match rows.(k).sense with
                    | Model.Le -> Rat.sign r' < 0
                    | Model.Eq -> Rat.sign r' <> 0
                    | Model.Ge -> assert false
                  in
                  if bad then ok := false
                end
              done;
              if !ok then begin
                at_upper.(!j) <- true;
                for k = 0 to m - 1 do
                  if not (Rat.is_zero rows.(k).coeffs.(!j)) then
                    resid.(k) <-
                      Rat.sub resid.(k) (Rat.mul rows.(k).coeffs.(!j) w)
                done;
                found := true
              end
            end
        | _ -> ());
        incr j
      done
    end
  done;
  (* The slack absorbs as much of the residual as its own bounds allow;
     an artificial picks up the rest. *)
  let sval =
    Array.init m (fun i ->
        match rows.(i).sense with
        | Model.Le -> if Rat.sign resid.(i) >= 0 then resid.(i) else Rat.zero
        | Model.Eq -> Rat.zero
        | Model.Ge -> assert false)
  in
  let needs_art = Array.init m (fun i -> not (Rat.( = ) sval.(i) resid.(i))) in
  let n_art = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 needs_art in
  let art_start = nstruct + m in
  let ncols = art_start + n_art in
  let a = Array.init m (fun _ -> Array.make ncols Rat.zero) in
  let basis = Array.make m (-1) in
  let state = Array.make ncols At_lower in
  let xval = Array.make ncols Rat.zero in
  let lo = Array.make ncols Rat.zero in
  let up = Array.make ncols None in
  let cost = Array.make ncols Rat.zero in
  for j = 0 to nstruct - 1 do
    let l, u = bounds.(j) in
    lo.(j) <- l;
    up.(j) <- u;
    cost.(j) <- c.(j);
    if at_upper.(j) then begin
      state.(j) <- At_upper;
      xval.(j) <- (match u with Some u -> u | None -> assert false)
    end
    else xval.(j) <- l
  done;
  let next_art = ref art_start in
  Array.iteri
    (fun i r ->
      let scol = nstruct + i in
      (match r.sense with
      | Model.Le -> up.(scol) <- None
      | Model.Eq -> up.(scol) <- Some Rat.zero
      | Model.Ge -> assert false);
      let delta = Rat.sub resid.(i) sval.(i) in
      if Rat.is_zero delta then begin
        (* Slack absorbs the whole residual: make it basic. *)
        Array.blit r.coeffs 0 a.(i) 0 nstruct;
        a.(i).(scol) <- Rat.one;
        basis.(i) <- scol;
        state.(scol) <- Basic i;
        xval.(scol) <- sval.(i)
      end
      else begin
        (* Scale the row so the artificial enters with coefficient +1
           and a nonnegative basic value. *)
        let sigma = if Rat.sign delta > 0 then Rat.one else Rat.minus_one in
        for j = 0 to nstruct - 1 do
          if not (Rat.is_zero r.coeffs.(j)) then
            a.(i).(j) <- Rat.mul sigma r.coeffs.(j)
        done;
        a.(i).(scol) <- sigma;
        let acol = !next_art in
        incr next_art;
        a.(i).(acol) <- Rat.one;
        basis.(i) <- acol;
        state.(acol) <- Basic i;
        xval.(acol) <- rat_abs delta;
        xval.(scol) <- sval.(i)
      end)
    rows;
  { m; nstruct; art_start; ncols; a; basis; state; xval; lo; up; cost;
    z = Array.make ncols Rat.zero }

let copy t =
  { t with
    a = Array.map Array.copy t.a;
    basis = Array.copy t.basis;
    state = Array.copy t.state;
    xval = Array.copy t.xval;
    lo = Array.copy t.lo;
    up = Array.copy t.up;
    z = Array.copy t.z }

(* Entering column for the primal, among non-artificial, non-fixed
   nonbasic columns whose reduced cost improves the objective in their
   feasible direction.  Dantzig pricing (largest |reduced cost|) by
   default; [bland] switches to smallest-index selection, which
   {!primal_iterate} enables during degenerate stalls so termination
   stays guaranteed. *)
let find_entering t ~bland =
  let best = ref (-1) in
  let best_score = ref Rat.zero in
  (try
     for j = 0 to t.art_start - 1 do
       let eligible =
         (not (is_fixed t j))
         && (match t.state.(j) with
            | Basic _ -> false
            | At_lower -> Rat.sign t.z.(j) < 0
            | At_upper -> Rat.sign t.z.(j) > 0)
       in
       if eligible then
         if bland then begin
           best := j;
           raise Exit
         end
         else begin
           let score = rat_abs t.z.(j) in
           if !best < 0 || Rat.( < ) !best_score score then begin
             best := j;
             best_score := score
           end
         end
     done
   with Exit -> ());
  !best

(* Shift every basic value for a move of nonbasic column [j] by [d]. *)
let shift_for t j d =
  for i = 0 to t.m - 1 do
    let aij = t.a.(i).(j) in
    if not (Rat.is_zero aij) then begin
      let k = t.basis.(i) in
      t.xval.(k) <- Rat.sub t.xval.(k) (Rat.mul aij d)
    end
  done

(* Primal iterations until optimal or unbounded.  Assumes the current
   point is primal feasible and [z] holds the current phase's reduced
   costs. *)
let primal_iterate t =
  (* Consecutive degenerate (zero-step) iterations before falling back
     from Dantzig to Bland pricing; any strict improvement resets it. *)
  let stall_limit = 20 + (2 * t.m) in
  let stalled = ref 0 in
  let rec loop () =
    Clara_obs.Metrics.incr c_iterations;
    let bland = !stalled > stall_limit in
    let e = find_entering t ~bland in
    if e < 0 then `Optimal
    else begin
      let dir =
        match t.state.(e) with
        | At_lower -> 1
        | At_upper -> -1
        | Basic _ -> assert false
      in
      (* Ratio test: best = -2 none, -1 bound flip of [e], i >= 0 row. *)
      let best = ref (-2) in
      let best_cap = ref Rat.zero in
      let best_leave_upper = ref false in
      (match t.up.(e) with
      | Some u ->
          best := -1;
          best_cap := Rat.sub u t.lo.(e)
      | None -> ());
      for i = 0 to t.m - 1 do
        let aie = t.a.(i).(e) in
        if not (Rat.is_zero aie) then begin
          let delta = if dir > 0 then aie else Rat.neg aie in
          let k = t.basis.(i) in
          let cand =
            if Rat.sign delta > 0 then
              Some (Rat.div (Rat.sub t.xval.(k) t.lo.(k)) delta, false)
            else
              match t.up.(k) with
              | Some uk -> Some (Rat.div (Rat.sub uk t.xval.(k)) (Rat.neg delta), true)
              | None -> None
          in
          match cand with
          | None -> ()
          | Some (cap, leave_upper) ->
              (* Tie-break: Bland mode picks the smallest leaving
                 variable index (termination); Dantzig mode picks the
                 largest, which drives artificials — the highest
                 columns — out of the basis as early as possible.  A
                 tied bound flip is kept (it strictly improves). *)
              let better =
                !best = -2
                || Rat.( < ) cap !best_cap
                || Rat.( = ) cap !best_cap
                   && !best >= 0
                   && (if bland then t.basis.(i) < t.basis.(!best)
                       else t.basis.(i) > t.basis.(!best))
              in
              if better then begin
                best := i;
                best_cap := cap;
                best_leave_upper := leave_upper
              end
        end
      done;
      if !best = -2 then `Unbounded
      else begin
        let d = if dir > 0 then !best_cap else Rat.neg !best_cap in
        if Rat.is_zero d then incr stalled
        else begin
          stalled := 0;
          shift_for t e d;
          t.xval.(e) <- Rat.add t.xval.(e) d
        end;
        if !best = -1 then begin
          (* Bound flip: [e] jumps to its opposite bound, no pivot. *)
          (match t.state.(e) with
          | At_lower ->
              t.state.(e) <- At_upper;
              t.xval.(e) <- (match t.up.(e) with Some u -> u | None -> assert false)
          | At_upper ->
              t.state.(e) <- At_lower;
              t.xval.(e) <- t.lo.(e)
          | Basic _ -> assert false)
        end
        else begin
          let r = !best in
          let k = t.basis.(r) in
          (* Snap the leaving variable exactly onto the bound it hits. *)
          if !best_leave_upper then
            t.xval.(k) <- (match t.up.(k) with Some uk -> uk | None -> assert false)
          else t.xval.(k) <- t.lo.(k);
          pivot t r e;
          t.state.(k) <- (if !best_leave_upper then At_upper else At_lower)
        end;
        loop ()
      end
    end
  in
  loop ()

(* Install phase-2 reduced costs: z = cost reduced w.r.t. the current
   basis.  Basic columns are identity, so one elimination per row. *)
let install_phase2_costs t =
  Array.blit t.cost 0 t.z 0 t.ncols;
  for i = 0 to t.m - 1 do
    let f = t.z.(t.basis.(i)) in
    if not (Rat.is_zero f) then
      for j = 0 to t.ncols - 1 do
        if not (Rat.is_zero t.a.(i).(j)) then
          t.z.(j) <- Rat.sub t.z.(j) (Rat.mul f t.a.(i).(j))
      done
  done

let empty_interval t =
  let bad = ref false in
  for j = 0 to t.ncols - 1 do
    match t.up.(j) with
    | Some u when Rat.( < ) u t.lo.(j) -> bad := true
    | _ -> ()
  done;
  !bad

let solve_primal t =
  Clara_obs.Metrics.incr c_solves;
  if empty_interval t then Infeasible
  else begin
    let feasible =
      if t.ncols = t.art_start then true
      else begin
        (* Phase 1: minimize the sum of artificials.  Initialize reduced
           costs so basic artificial columns read zero. *)
        Array.fill t.z 0 t.ncols Rat.zero;
        for j = t.art_start to t.ncols - 1 do
          t.z.(j) <- Rat.one
        done;
        for i = 0 to t.m - 1 do
          if t.basis.(i) >= t.art_start then
            for j = 0 to t.ncols - 1 do
              if not (Rat.is_zero t.a.(i).(j)) then
                t.z.(j) <- Rat.sub t.z.(j) t.a.(i).(j)
            done
        done;
        (match primal_iterate t with
        | `Unbounded -> assert false (* phase-1 objective bounded below by 0 *)
        | `Optimal -> ());
        let infeas = ref Rat.zero in
        for j = t.art_start to t.ncols - 1 do
          infeas := Rat.add !infeas t.xval.(j)
        done;
        if Rat.sign !infeas <> 0 then false
        else begin
          (* Drive zero-level basic artificials out with degenerate
             pivots where possible; a row with no eligible column is
             redundant and harmlessly keeps its artificial basic. *)
          for i = 0 to t.m - 1 do
            if t.basis.(i) >= t.art_start then begin
              let piv = ref (-1) in
              for j = 0 to t.art_start - 1 do
                if !piv < 0 && not (Rat.is_zero t.a.(i).(j)) then piv := j
              done;
              if !piv >= 0 then begin
                let k = t.basis.(i) in
                pivot t i !piv;
                t.state.(k) <- At_lower
              end
            end
          done;
          (* Pin artificials at zero: as fixed variables they can never
             re-enter, in this solve or any warm-started descendant. *)
          for j = t.art_start to t.ncols - 1 do
            t.lo.(j) <- Rat.zero;
            t.up.(j) <- Some Rat.zero
          done;
          true
        end
      end
    in
    if not feasible then Infeasible
    else begin
      install_phase2_costs t;
      match primal_iterate t with
      | `Optimal -> Optimal
      | `Unbounded -> Unbounded
    end
  end

let set_bound t j (l, u) =
  if j < 0 || j >= t.nstruct then invalid_arg "Simplex.set_bound: bad variable";
  t.lo.(j) <- l;
  t.up.(j) <- u;
  (* A nonbasic variable must sit exactly on its bound: slide it there
     and push the move into the basic values.  Basic variables are left
     alone; any bound violation is the dual simplex's job. *)
  match t.state.(j) with
  | Basic _ -> ()
  | At_lower ->
      let d = Rat.sub l t.xval.(j) in
      if not (Rat.is_zero d) then shift_for t j d;
      t.xval.(j) <- l
  | At_upper -> (
      match u with
      | Some u' ->
          let d = Rat.sub u' t.xval.(j) in
          if not (Rat.is_zero d) then shift_for t j d;
          t.xval.(j) <- u'
      | None ->
          let d = Rat.sub l t.xval.(j) in
          if not (Rat.is_zero d) then shift_for t j d;
          t.xval.(j) <- l;
          t.state.(j) <- At_lower)

let reoptimize t =
  Clara_obs.Metrics.incr c_warm;
  if empty_interval t then Infeasible
  else begin
    (* Dual simplex requires dual feasibility.  A copy of an optimal
       parent tableau with tightened bounds has it (reduced costs are
       untouched by set_bound); anything else must cold-start. *)
    for j = 0 to t.art_start - 1 do
      if not (is_fixed t j) then
        match t.state.(j) with
        | Basic _ -> ()
        | At_lower -> if Rat.sign t.z.(j) < 0 then raise Stalled
        | At_upper -> if Rat.sign t.z.(j) > 0 then raise Stalled
    done;
    let budget = ref (10_000 + (50 * (t.m + t.ncols))) in
    let rec loop () =
      Clara_obs.Metrics.incr c_iterations;
      decr budget;
      if !budget <= 0 then raise Stalled;
      (* Leaving: basic variable violating a bound, smallest variable
         index first (Bland). *)
      let row = ref (-1) in
      let below = ref false in
      for i = 0 to t.m - 1 do
        let k = t.basis.(i) in
        let viol_below = Rat.( < ) t.xval.(k) t.lo.(k) in
        let viol_above =
          match t.up.(k) with Some u -> Rat.( < ) u t.xval.(k) | None -> false
        in
        if (viol_below || viol_above) && (!row < 0 || k < t.basis.(!row)) then begin
          row := i;
          below := viol_below
        end
      done;
      if !row < 0 then Optimal
      else begin
        let r = !row in
        let k = t.basis.(r) in
        let going_up = !below in
        (* Entering: dual ratio test, min |z_j| / |a_rj| over columns
           whose sign keeps the reduced costs dual feasible; first
           (smallest) j wins ties. *)
        let q = ref (-1) in
        let best_theta = ref Rat.zero in
        for j = 0 to t.art_start - 1 do
          if not (is_fixed t j) then begin
            let arj = t.a.(r).(j) in
            if not (Rat.is_zero arj) then begin
              let compatible =
                match t.state.(j) with
                | Basic _ -> false
                | At_lower -> if going_up then Rat.sign arj < 0 else Rat.sign arj > 0
                | At_upper -> if going_up then Rat.sign arj > 0 else Rat.sign arj < 0
              in
              if compatible then begin
                let theta = Rat.div (rat_abs t.z.(j)) (rat_abs arj) in
                if !q < 0 || Rat.( < ) theta !best_theta then begin
                  q := j;
                  best_theta := theta
                end
              end
            end
          end
        done;
        if !q < 0 then Infeasible
        else begin
          let q = !q in
          let target =
            if going_up then t.lo.(k)
            else match t.up.(k) with Some u -> u | None -> assert false
          in
          let delta = Rat.div (Rat.sub t.xval.(k) target) t.a.(r).(q) in
          shift_for t q delta;
          t.xval.(q) <- Rat.add t.xval.(q) delta;
          t.xval.(k) <- target;
          pivot t r q;
          t.state.(k) <- (if going_up then At_lower else At_upper);
          loop ()
        end
      end
    in
    loop ()
  end

let objective_value t =
  let acc = ref Rat.zero in
  for j = 0 to t.nstruct - 1 do
    if not (Rat.is_zero t.cost.(j)) then
      acc := Rat.add !acc (Rat.mul t.cost.(j) t.xval.(j))
  done;
  !acc

let solution t = Array.sub t.xval 0 t.nstruct

let solve ~c ~rows =
  let nstruct = Array.length c in
  let bounds = Array.make nstruct (Rat.zero, None) in
  let t = create ~c ~rows ~bounds in
  match solve_primal t with
  | Infeasible ->
      { status = Infeasible; objective = Rat.zero;
        solution = Array.make nstruct Rat.zero }
  | Unbounded -> { status = Unbounded; objective = Rat.zero; solution = solution t }
  | Optimal ->
      { status = Optimal; objective = objective_value t; solution = solution t }
