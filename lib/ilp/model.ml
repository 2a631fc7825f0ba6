type vtype = Continuous | Integer | Binary
type sense = Le | Ge | Eq
type direction = Minimize | Maximize
type var = int

type vinfo = { vname : string; lb : Rat.t; ub : Rat.t option; vtype : vtype }
type cons = { cname : string; expr : Lin_expr.t; csense : sense; rhs : Rat.t }

(* Growable arrays: [add_var] appends in amortized O(1) and every
   per-variable read is a direct index. *)
type t = {
  mutable vars : vinfo array; (* first [nvars] slots used *)
  mutable nvars : int;
  mutable conss : cons array; (* first [nconss] slots used *)
  mutable nconss : int;
  mutable obj : direction * Lin_expr.t;
}

let create () =
  { vars = [||]; nvars = 0; conss = [||]; nconss = 0; obj = (Minimize, Lin_expr.zero) }

(* [arr] with room for one more element past [n], filled with [x]. *)
let grow arr n x =
  if n < Array.length arr then arr
  else begin
    let bigger = Array.make (max 8 (2 * n)) x in
    Array.blit arr 0 bigger 0 n;
    bigger
  end

let add_var ?name ?(lb = Rat.zero) ?ub m vtype =
  let id = m.nvars in
  let vname = match name with Some n -> n | None -> Printf.sprintf "x%d" id in
  let lb, ub =
    match vtype with Binary -> (Rat.zero, Some Rat.one) | Continuous | Integer -> (lb, ub)
  in
  let info = { vname; lb; ub; vtype } in
  m.vars <- grow m.vars id info;
  m.vars.(id) <- info;
  m.nvars <- id + 1;
  id

let add_constraint ?name m expr csense rhs =
  let cname =
    match name with Some n -> n | None -> Printf.sprintf "c%d" m.nconss
  in
  (* Move the expression's constant to the rhs so rows are pure linear
     forms. *)
  let k = Lin_expr.constant expr in
  let expr = Lin_expr.sub expr (Lin_expr.const k) in
  let rhs = Rat.sub rhs k in
  let c = { cname; expr; csense; rhs } in
  m.conss <- grow m.conss m.nconss c;
  m.conss.(m.nconss) <- c;
  m.nconss <- m.nconss + 1

let set_objective m dir e = m.obj <- (dir, e)
let num_vars m = m.nvars
let num_constraints m = m.nconss

let var_array m = Array.sub m.vars 0 m.nvars

let nth_var m v =
  if v < 0 || v >= m.nvars then invalid_arg "Model: bad variable id";
  m.vars.(v)

let var_name m v = (nth_var m v).vname
let var_type m v = (nth_var m v).vtype
let var_bounds m v =
  let i = nth_var m v in
  (i.lb, i.ub)

let objective m = m.obj

let iter_constraints m f =
  for i = 0 to m.nconss - 1 do
    let c = m.conss.(i) in
    f ~name:c.cname c.expr c.csense c.rhs
  done

let check m x =
  if Array.length x <> m.nvars then false
  else begin
    let vars = var_array m in
    let bounds_ok =
      Array.for_all2
        (fun info v ->
          Rat.( >= ) v info.lb
          && (match info.ub with None -> true | Some u -> Rat.( <= ) v u)
          && (match info.vtype with
             | Continuous -> true
             | Integer | Binary -> Rat.is_integer v))
        vars x
    in
    let cons_ok =
      Array.for_all
        (fun c ->
          let lhs = Lin_expr.eval (fun v -> x.(v)) c.expr in
          match c.csense with
          | Le -> Rat.( <= ) lhs c.rhs
          | Ge -> Rat.( >= ) lhs c.rhs
          | Eq -> Rat.( = ) lhs c.rhs)
        (Array.sub m.conss 0 m.nconss)
    in
    bounds_ok && cons_ok
  end

let pp_sense fmt = function
  | Le -> Format.pp_print_string fmt "<="
  | Ge -> Format.pp_print_string fmt ">="
  | Eq -> Format.pp_print_string fmt "="

let pp fmt m =
  let dir, obj = m.obj in
  Format.fprintf fmt "%s %a@."
    (match dir with Minimize -> "minimize" | Maximize -> "maximize")
    Lin_expr.pp obj;
  iter_constraints m (fun ~name e s rhs ->
      Format.fprintf fmt "  %s: %a %a %a@." name Lin_expr.pp e pp_sense s Rat.pp rhs);
  Array.iteri
    (fun i info ->
      Format.fprintf fmt "  %s (x%d): %a <= . %s, %s@." info.vname i Rat.pp info.lb
        (match info.ub with None -> "<= +inf" | Some u -> "<= " ^ Rat.to_string u)
        (match info.vtype with
        | Continuous -> "cont"
        | Integer -> "int"
        | Binary -> "bin"))
    (var_array m)
