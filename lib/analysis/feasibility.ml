module Ir = Clara_cir.Ir
module L = Clara_lnic

let rec size_has_opaque = function
  | Ir.S_opaque -> true
  | Ir.S_scaled (e, _) -> size_has_opaque e
  | Ir.S_plus (e, _) -> size_has_opaque e
  | Ir.S_const _ | Ir.S_payload | Ir.S_packet | Ir.S_header
  | Ir.S_state_entries _ ->
      false

let vcall_supported (g : L.Graph.t) vc =
  L.Params.core_vcall_cost g.L.Graph.params vc <> None
  || List.exists
       (fun (u : L.Unit_.t) ->
         match u.L.Unit_.kind with
         | L.Unit_.Accelerator k ->
             L.Params.accel_vcall_cost g.L.Graph.params k vc <> None
         | L.Unit_.General_core _ -> false)
       (L.Graph.accelerators g)

let accel_blockers (p : Ir.program) =
  (* Per state: the distinct vcalls naming it (latest first), and
     whether a raw load, store or atomic touches it. *)
  let touches = Hashtbl.create 8 in
  let touch s = Option.value ~default:([], false) (Hashtbl.find_opt touches s) in
  Array.iter
    (fun (b : Ir.block) ->
      List.iter
        (function
          | Ir.Vcall { vc; state = Some s; _ } ->
              let vcs, raw = touch s in
              if not (List.mem vc vcs) then Hashtbl.replace touches s (vc :: vcs, raw)
          | Ir.Load (Ir.L_state s) | Ir.Store (Ir.L_state s) | Ir.Atomic_op (Ir.L_state s) ->
              Hashtbl.replace touches s (fst (touch s), true)
          | _ -> ())
        b.Ir.instrs)
    p.Ir.blocks;
  fun params kind (st : Ir.state_obj) ~racy ~pinned ->
    let vcs, raw = touch st.Ir.st_name in
    let unsupported =
      List.rev (List.filter (fun vc -> L.Params.accel_vcall_cost params kind vc = None) vcs)
    in
    let sram = L.Params.accel_sram params kind and bytes = Ir.state_bytes st in
    let engine =
      match kind with
      | L.Unit_.Eswitch -> "the eSwitch"
      | k -> Printf.sprintf "the %s engine" (L.Unit_.accel_name k)
    in
    List.concat
      [ (if unsupported = [] then []
         else
           [ Printf.sprintf "vcall%s %s not implemented by %s"
               (if List.length unsupported > 1 then "s" else "")
               (String.concat ", " (List.map L.Params.vcall_name unsupported))
               engine ]);
        (if raw then [ "raw loads/stores touch it outside any vcall" ] else []);
        (if racy then [ "the sharing analysis judged it racy" ] else []);
        (if bytes > sram then
           [ Printf.sprintf "its %d bytes exceed the %d-byte flow cache" bytes sram ]
         else []);
        (if pinned then [ "it is pinned to a memory level" ] else []) ]

let analyze ~(lnic : L.Graph.t) (p : Ir.program) =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  (* CLARA101 / CLARA104: per-vcall checks, reported once per vcall kind
     (first occurrence) to keep reports readable on unrolled bodies. *)
  let seen_unsupported = Hashtbl.create 4 in
  let seen_opaque_size = Hashtbl.create 4 in
  Array.iter
    (fun (b : Ir.block) ->
      List.iteri
        (fun i instr ->
          match instr with
          | Ir.Vcall { vc; size; _ } ->
              if
                (not (vcall_supported lnic vc))
                && not (Hashtbl.mem seen_unsupported vc)
              then (
                Hashtbl.add seen_unsupported vc ();
                emit
                  (Diag.make ~block:b.Ir.bid ~instr:i ~code:"CLARA101"
                     ~severity:Diag.Error ~pass:"feasibility"
                     (Printf.sprintf
                        "vcall '%s' (b%d) has no supporting compute unit on \
                         target '%s': cores lack a software path and no \
                         present accelerator implements it"
                        (L.Params.vcall_name vc) b.Ir.bid lnic.L.Graph.name)));
              if size_has_opaque size && not (Hashtbl.mem seen_opaque_size vc)
              then (
                Hashtbl.add seen_opaque_size vc ();
                emit
                  (Diag.make ~block:b.Ir.bid ~instr:i ~code:"CLARA104"
                     ~severity:Diag.Info ~pass:"feasibility"
                     (Printf.sprintf
                        "vcall '%s' (b%d) is sized by a statically-unknown \
                         expression; its predicted cost is a guess"
                        (L.Params.vcall_name vc) b.Ir.bid)))
          | _ -> ())
        b.Ir.instrs;
      (* CLARA103: opaque trip counts defeat latency prediction. *)
      match b.Ir.term with
      | Ir.Loop { trip; _ } when size_has_opaque trip ->
          emit
            (Diag.make ~block:b.Ir.bid ~code:"CLARA103" ~severity:Diag.Warn
               ~pass:"feasibility"
               (Printf.sprintf
                  "loop headed at b%d has a statically-unknown trip count; \
                   prediction assumes a fixed opaque-trip guess, losing \
                   latency clarity on this path"
                  b.Ir.bid))
      | _ -> ())
    p.Ir.blocks;
  (* CLARA102: state must fit somewhere sharable. *)
  let shared_mems = L.Graph.shared_memories lnic in
  let accel_srams =
    List.filter_map
      (fun (u : L.Unit_.t) ->
        match u.L.Unit_.kind with
        | L.Unit_.Accelerator k ->
            let s = L.Params.accel_sram lnic.L.Graph.params k in
            if s > 0 then Some s else None
        | L.Unit_.General_core _ -> None)
      (L.Graph.accelerators lnic)
  in
  let largest =
    List.fold_left
      (fun acc (m : L.Memory.t) -> max acc m.L.Memory.size_bytes)
      (List.fold_left max 0 accel_srams)
      shared_mems
  in
  List.iter
    (fun (st : Ir.state_obj) ->
      let bytes = Ir.state_bytes st in
      if bytes > largest then
        emit
          (Diag.make ~code:"CLARA102" ~severity:Diag.Error ~pass:"feasibility"
             (Printf.sprintf
                "state '%s' (%d bytes) exceeds every memory tier on target \
                 '%s' (largest sharable region: %d bytes)"
                st.Ir.st_name bytes lnic.L.Graph.name largest)))
    p.Ir.states;
  (* CLARA105: off-path fast-path demotions.  On a target with an eSwitch,
     explain why a vcall-touched state cannot ride the hardware fast path
     (accel_blockers, the mapper's rule) so `clara lint --target
     bluefield` shows the slow-path demotion before mapping runs. *)
  (if L.Graph.find_accelerator lnic L.Unit_.Eswitch <> None then
     let sharing, _ = Sharing.analyze p in
     let blockers = accel_blockers p lnic.L.Graph.params L.Unit_.Eswitch in
     let vcalls = Ir.vcalls_of p in
     List.iter
       (fun (st : Ir.state_obj) ->
         let s = st.Ir.st_name in
         (* A state no vcall touches has nothing to offload. *)
         if List.exists (fun (v : Ir.vcall_info) -> v.Ir.state = Some s) vcalls then
           match
             blockers st ~racy:(List.assoc_opt s sharing = Some Sharing.Racy) ~pinned:false
           with
           | [] -> ()
           | reasons ->
               emit
                 (Diag.make ~code:"CLARA105" ~severity:Diag.Warn
                    ~pass:"feasibility"
                    (Printf.sprintf
                       "state '%s' cannot ride the eSwitch fast path on \
                        target '%s' (%s): its packets take the core slow \
                        path, paying the upcall on every flow-cache miss"
                       s lnic.L.Graph.name
                       (String.concat "; " reasons))))
       p.Ir.states);
  List.rev !diags
