module I = Clara_ilp
module L = Clara_lnic
module D = Clara_dataflow
module Ir = Clara_cir.Ir
module M = I.Model
module LE = I.Lin_expr

let obs = Clara_obs.Registry.default
let c_vars = Clara_obs.Registry.counter obs "mapping.ilp.vars"
let c_constraints = Clara_obs.Registry.counter obs "mapping.ilp.constraints"
let c_bb_nodes = Clara_obs.Registry.counter obs "mapping.ilp.bb_nodes"
let c_racy_states = Clara_obs.Registry.counter obs "mapping.sharing.racy_states"

let c_hardened =
  Clara_obs.Registry.counter obs "mapping.sharing.hardened_instrs"

let rat_of_cost c = I.Rat.of_int (int_of_float (Float.round c))

let rat_of_weight w =
  let scaled = int_of_float (Float.round (w *. 1000.)) in
  I.Rat.of_ints (max 0 scaled) 1000

(* The encoded model plus what decoding its solution needs. *)
type encoded = {
  model : M.t;
  initial_bound : I.Rat.t;
  nodes : D.Node.t array;
  nclasses : int;
  rep : int -> L.Unit_.t;
  x_vars : (int * int, M.var) Hashtbl.t; (* (node, class) -> choice vars *)
  y_mem : (string * int, M.var) Hashtbl.t; (* (state, mem id) *)
  y_acc : (string * L.Unit_.accel_kind, M.var) Hashtbl.t;
  states : Ir.state_obj list;
  shared_regions : L.Memory.t list;
  accel_kinds : L.Unit_.accel_kind list;
}

(* One way to run a node: a placement class, where the state it touches
   lives (nowhere for a stateless node), and its price there. *)
type pairing = Stateless | In_region of int | In_sram of L.Unit_.accel_kind
type candidate = { ci : int; pairing : pairing; cost : float }

(* What the model is built from. *)
type priced = {
  classes : L.Graph.placement_class array;
  accel_kinds : L.Unit_.accel_kind list;  (* of the usable classes *)
  nodes : D.Node.t array;  (* hardened *)
  weights : float array;
  state_options : (Ir.state_obj * L.Memory.t list * L.Unit_.accel_kind list) list;
      (* Γ's options per state: regions, accelerator SRAMs *)
  candidates : candidate list array;  (* by node id *)
}

(* Price every candidate placement of every node.  [Error] names the
   last state with no option or, when there is one, the last node with
   no candidate. *)
let price ~(options : Mapping.options) lnic (df : D.Graph.t) ~sizes ~prob =
  let p = df.D.Graph.cir in
  (* A state the sharing analysis judged racy gets hardened: its raw
     loads/stores are priced as atomics (the cost the program pays once
     the race is fixed), and it never moves into accelerator SRAM. *)
  let racy s =
    List.assoc_opt s options.Mapping.sharing = Some Clara_analysis.Sharing.Racy
  in
  List.iter
    (fun (_, v) ->
      if v = Clara_analysis.Sharing.Racy then
        Clara_obs.Metrics.incr c_racy_states)
    options.Mapping.sharing;
  let harden_node (n : D.Node.t) =
    match n.D.Node.kind with
    | D.Node.N_compute is
      when List.exists
             (function
               | (Ir.Load (Ir.L_state s) | Ir.Store (Ir.L_state s)) -> racy s
               | _ -> false)
             is ->
        let is' =
          List.map
            (function
              | (Ir.Load (Ir.L_state s) | Ir.Store (Ir.L_state s))
                when racy s ->
                  Clara_obs.Metrics.incr c_hardened;
                  Ir.Atomic_op (Ir.L_state s)
              | i -> i)
            is
        in
        { n with D.Node.kind = D.Node.N_compute is' }
    | _ -> n
  in
  let classes = Array.of_list (Mapping.usable_classes options lnic) in
  let nodes = Array.map harden_node df.D.Graph.nodes in
  let weights = D.Flow.node_weights df ~prob in
  let footprint s = Ir.state_bytes (Ir.state_obj p s) in
  (* A node touching an undeclared state would otherwise surface as a
     generic "cannot run on any unit" (no y variable to pair with). *)
  Array.iter
    (fun (n : D.Node.t) ->
      match D.Node.state n with
      | Some s when Ir.state_obj_opt p s = None -> raise (Ir.Unknown_state s)
      | _ -> ())
    nodes;
  let sizes = Mapping.with_declared_entries p sizes in
  let accel_kinds =
    Array.to_list classes
    |> List.filter_map (fun (c : L.Graph.placement_class) ->
           match c.L.Graph.rep.L.Unit_.kind with
           | L.Unit_.Accelerator k -> Some k
           | L.Unit_.General_core _ -> None)
  in
  (* Γ's options per state: the shared regions it fits (on its pinned
     level, if any) and the accelerators that could host it whole. *)
  let shared_regions = L.Graph.shared_memories lnic in
  let blockers = Clara_analysis.Feasibility.accel_blockers p lnic.L.Graph.params in
  let pinned s = List.assoc_opt s options.Mapping.pin_state in
  let state_options =
    List.map
      (fun (st : Ir.state_obj) ->
        let s = st.Ir.st_name in
        let mems =
          List.filter
            (fun (m : L.Memory.t) ->
              footprint s <= m.L.Memory.size_bytes
              && match pinned s with None -> true | Some lvl -> m.L.Memory.level = lvl)
            shared_regions
        and accs =
          List.filter
            (fun k ->
              blockers k st ~racy:(racy s) ~pinned:(pinned s <> None) = [])
            accel_kinds
        in
        (st, mems, accs))
      (D.Graph.states df)
  in
  let options_of = Hashtbl.create 8 in
  let errors = ref [] in
  List.iter
    (fun ((st : Ir.state_obj), mems, accs) ->
      Hashtbl.replace options_of st.Ir.st_name (mems, accs);
      if mems = [] && accs = [] then
        errors := Printf.sprintf "state '%s' fits no memory region" st.Ir.st_name :: !errors)
    state_options;
  let pairings (n : D.Node.t) ci =
    match D.Node.state n with
    | None -> [ Stateless ]
    | Some s -> (
        let mems, accs = Hashtbl.find options_of s in
        match classes.(ci).L.Graph.rep.L.Unit_.kind with
        | L.Unit_.General_core _ ->
            List.map (fun (m : L.Memory.t) -> In_region m.L.Memory.id) mems
        | L.Unit_.Accelerator k -> if List.mem k accs then [ In_sram k ] else [])
  in
  let candidate (n : D.Node.t) ci pairing =
    let state_region =
      match pairing with
      | In_region m -> fun _ -> m
      | Stateless | In_sram _ -> fun _ -> invalid_arg "Encode: no state region"
    in
    let place =
      D.Cost.placement lnic classes.(ci).L.Graph.rep ~packet_bytes:sizes.D.Cost.packet_bytes
        ~state_region ~state_footprint:footprint
    in
    Option.map (fun cost -> { ci; pairing; cost }) (D.Cost.node_cycles { D.Cost.place; sizes } n)
  in
  let candidates =
    Array.map
      (fun (n : D.Node.t) ->
        let cs =
          List.concat_map
            (fun ci -> List.filter_map (candidate n ci) (pairings n ci))
            (List.init (Array.length classes) Fun.id)
        in
        if cs = [] then
          errors := Printf.sprintf "node n%d cannot run on any unit" n.D.Node.id :: !errors;
        cs)
      nodes
  in
  match !errors with
  | e :: _ -> Error e
  | [] -> Ok { classes; accel_kinds; nodes; weights; state_options; candidates }

(* Create the variables and constraints of a priced problem, in a fixed
   order: state placements, node choices (each tied to the placement it
   prices), pipeline ordering, capacities. *)
let build ?dump_lp lnic (df : D.Graph.t) pr =
  let { classes; accel_kinds; nodes; weights; state_options; candidates } = pr in
  let nclasses = Array.length classes in
  let rep ci = classes.(ci).L.Graph.rep in
  let stage ci = (rep ci).L.Unit_.stage in
  let states = D.Graph.states df in
  let footprint s = Ir.state_bytes (Ir.state_obj df.D.Graph.cir s) in
  let shared_regions = L.Graph.shared_memories lnic in
  let model = M.create () in
  (* ---- state placement variables ---- *)
  let y_mem = Hashtbl.create 16 (* (state, mem id) -> var *) in
  let y_acc = Hashtbl.create 16 (* (state, accel kind) -> var *) in
  List.iter
    (fun ((st : Ir.state_obj), mems, accs) ->
      let s = st.Ir.st_name in
      let ym =
        List.map
          (fun (m : L.Memory.t) ->
            let v = M.add_var model ~name:(Printf.sprintf "y_%s_m%d" s m.L.Memory.id) M.Binary in
            Hashtbl.add y_mem (s, m.L.Memory.id) v;
            v)
          mems
      in
      let ya =
        List.map
          (fun k ->
            let v = M.add_var model ~name:(Printf.sprintf "y_%s_acc" s) M.Binary in
            Hashtbl.add y_acc (s, k) v;
            v)
          accs
      in
      M.add_constraint model ~name:(Printf.sprintf "place_%s" s)
        (LE.sum (List.rev_map LE.var (ym @ ya)))
        M.Eq I.Rat.one)
    state_options;
  (* ---- node choice variables ---- *)
  let x_vars = Hashtbl.create 64 (* (node, class) -> var list (z's share class) *) in
  let objective = ref LE.zero in
  (* Worst candidate cost per node.  Exactly one choice var per node is
     set in any feasible assignment, so the sum of per-node maxima is an
     inclusive upper bound on the optimum — handed to branch & bound as
     an initial incumbent-style cutoff (static bounds made concrete in
     the ILP's own rational arithmetic). *)
  let node_worst : (int, I.Rat.t) Hashtbl.t = Hashtbl.create 64 in
  let add_obj n cost var =
    let r = I.Rat.mul (rat_of_weight weights.(n)) (rat_of_cost cost) in
    (match Hashtbl.find_opt node_worst n with
    | Some w when not (I.Rat.( < ) w r) -> ()
    | _ -> Hashtbl.replace node_worst n r);
    objective := LE.add !objective (LE.var ~coeff:r var)
  in
  Array.iteri
    (fun i (n : D.Node.t) ->
      let nid = n.D.Node.id in
      let y key tbl = Hashtbl.find tbl (Option.get (D.Node.state n), key) in
      let xs =
        List.map
          (fun { ci; pairing; cost } ->
            let name, y =
              match pairing with
              | Stateless -> (Printf.sprintf "x_n%d_c%d" nid ci, None)
              | In_region m -> (Printf.sprintf "z_n%d_c%d_m%d" nid ci m, Some (y m y_mem))
              | In_sram k -> (Printf.sprintf "xa_n%d_c%d" nid ci, Some (y k y_acc))
            in
            let v = M.add_var model ~name M.Binary in
            Hashtbl.add x_vars (nid, ci) v;
            add_obj nid cost v;
            (* The choice implies the state placement it was priced at. *)
            Option.iter
              (fun y -> M.add_constraint model (LE.sub (LE.var v) (LE.var y)) M.Le I.Rat.zero)
              y;
            v)
          candidates.(i)
      in
      M.add_constraint model ~name:(Printf.sprintf "assign_n%d" nid)
        (LE.sum (List.rev_map LE.var xs))
        M.Eq I.Rat.one)
    nodes;
  (* ---- pipeline ordering along dataflow edges ---- *)
  let stage_expr nid =
    let e = ref LE.zero in
    for ci = 0 to nclasses - 1 do
      List.iter
        (fun v -> e := LE.add !e (LE.var ~coeff:(I.Rat.of_int (stage ci)) v))
        (Hashtbl.find_all x_vars (nid, ci))
    done;
    !e
  in
  List.iter
    (fun (t, k) ->
      M.add_constraint model ~name:(Printf.sprintf "pipe_%d_%d" t k)
        (LE.sub (stage_expr k) (stage_expr t))
        M.Ge I.Rat.zero)
    df.D.Graph.edges;
  (* ---- capacities ---- *)
  List.iter
    (fun (m : L.Memory.t) ->
      let terms =
        List.filter_map
          (fun (st : Ir.state_obj) ->
            Option.map
              (fun v -> LE.var ~coeff:(I.Rat.of_int (footprint st.Ir.st_name)) v)
              (Hashtbl.find_opt y_mem (st.Ir.st_name, m.L.Memory.id)))
          states
      in
      if terms <> [] then
        M.add_constraint model
          ~name:(Printf.sprintf "cap_m%d" m.L.Memory.id)
          (LE.sum terms) M.Le
          (I.Rat.of_int m.L.Memory.size_bytes))
    shared_regions;
  List.iter
    (fun k ->
      let terms =
        List.filter_map
          (fun (st : Ir.state_obj) ->
            Option.map
              (fun v -> LE.var ~coeff:(I.Rat.of_int (footprint st.Ir.st_name)) v)
              (Hashtbl.find_opt y_acc (st.Ir.st_name, k)))
          states
      in
      if terms <> [] then
        M.add_constraint model (LE.sum terms) M.Le
          (I.Rat.of_int (L.Params.accel_sram lnic.L.Graph.params k)))
    accel_kinds;
  M.set_objective model M.Minimize !objective;
  Clara_obs.Metrics.add c_vars (M.num_vars model);
  Clara_obs.Metrics.add c_constraints (M.num_constraints model);
  Option.iter (fun path -> I.Lp_format.write_file path model) dump_lp;
  let initial_bound =
    Hashtbl.fold (fun _ w acc -> I.Rat.add w acc) node_worst I.Rat.zero
  in
  { model; initial_bound; nodes; nclasses; rep; x_vars; y_mem; y_acc;
    states; shared_regions; accel_kinds }

let encode ~options ?dump_lp lnic df ~sizes ~prob =
  match
    Clara_obs.Registry.span obs "price" (fun () -> price ~options lnic df ~sizes ~prob)
  with
  | Error e -> Error e
  | Ok pr -> Ok (Clara_obs.Registry.span obs "model" (fun () -> build ?dump_lp lnic df pr))

let solve_and_decode ~(options : Mapping.options) lnic e =
  let { model; initial_bound; nodes; nclasses; rep; x_vars; y_mem; y_acc;
        states; shared_regions; accel_kinds } =
    e
  in
  match
    Clara_obs.Registry.span obs "solve" (fun () ->
        I.Branch_bound.solve ~node_limit:options.Mapping.node_limit
          ~initial_bound model)
  with
  | { I.Branch_bound.status = I.Branch_bound.Infeasible; _ } ->
      Error "mapping ILP infeasible (pipeline ordering vs capacities)"
  | { I.Branch_bound.status = I.Branch_bound.Unbounded; _ } ->
      Error "mapping ILP unbounded (encoding bug)"
  | { I.Branch_bound.status = I.Branch_bound.Node_limit; incumbent = false; _ } ->
      Error "ILP node limit exceeded with no feasible mapping"
  | { I.Branch_bound.status = I.Branch_bound.Optimal | I.Branch_bound.Node_limit;
      objective = obj; values; nodes = bb; gap; _ } ->
      Clara_obs.Metrics.add c_bb_nodes bb;
      Clara_obs.Registry.span obs "decode" @@ fun () ->
        let node_unit =
          Array.map
            (fun (n : D.Node.t) ->
              let nid = n.D.Node.id in
              let found = ref None in
              for ci = 0 to nclasses - 1 do
                List.iter
                  (fun v ->
                    if I.Rat.equal values.(v) I.Rat.one then found := Some ci)
                  (Hashtbl.find_all x_vars (nid, ci))
              done;
              match !found with
              | Some ci -> (rep ci).L.Unit_.id
              | None -> failwith "Encode: node left unassigned (solver bug)")
            nodes
        in
        let state_place =
          List.map
            (fun (st : Ir.state_obj) ->
              let s = st.Ir.st_name in
              let mem_hit =
                List.find_opt
                  (fun (m : L.Memory.t) ->
                    match Hashtbl.find_opt y_mem (s, m.L.Memory.id) with
                    | Some v -> I.Rat.equal values.(v) I.Rat.one
                    | None -> false)
                  shared_regions
              in
              match mem_hit with
              | Some m -> (s, Mapping.In_memory m.L.Memory.id)
              | None -> (
                  let acc_hit =
                    List.find_opt
                      (fun k ->
                        match Hashtbl.find_opt y_acc (s, k) with
                        | Some v -> I.Rat.equal values.(v) I.Rat.one
                        | None -> false)
                      accel_kinds
                  in
                  match acc_hit with
                  | Some k -> (
                      match L.Graph.find_accelerator lnic k with
                      | Some u -> (s, Mapping.In_accel u.L.Unit_.id)
                      | None -> failwith "Encode: accel vanished")
                  | None -> failwith "Encode: state left unplaced (solver bug)"))
            states
        in
        Ok
          {
            Mapping.node_unit;
            state_place;
            objective_cycles = I.Rat.to_float obj;
            ilp_nodes = bb;
            ilp_vars = M.num_vars model;
            (* A node-limited solve yields a degraded-but-usable
               mapping; the gap tells the caller how far off it can
               be.  [gap] is [None] on exact solves. *)
            ilp_gap = Option.map I.Rat.to_float gap;
          }

let map_nf_exn ~options ?dump_lp lnic df ~sizes ~prob =
  match
    Clara_obs.Registry.span obs "encode" (fun () ->
        encode ~options ?dump_lp lnic df ~sizes ~prob)
  with
  | Error e -> Error e
  | Ok e -> solve_and_decode ~options lnic e

let map_nf ?(options = Mapping.default_options) ?dump_lp lnic df ~sizes ~prob =
  Mapping.undeclared (fun () -> map_nf_exn ~options ?dump_lp lnic df ~sizes ~prob)

let ilp_model ?(options = Mapping.default_options) lnic df ~sizes ~prob =
  Mapping.undeclared (fun () ->
      Result.map (fun e -> e.model) (encode ~options lnic df ~sizes ~prob))
