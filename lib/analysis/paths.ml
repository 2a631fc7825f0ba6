module Ir = Clara_cir.Ir

(* A fact is an atomic guard plus the polarity under which it is known
   to hold.  Only packet-stable atoms participate (see .mli). *)
type fact = Ir.guard * bool

module L = struct
  type t = Unreached | Facts of fact list (* canonical: sorted, duplicate-free *)

  let bottom = Unreached

  (* Fact lists are sets; compare and intersect canonically so an
     order- or duplicate-perturbed list still behaves as the same
     element.  (The old structural [=] made [join]'s filter order-
     dependent: intersecting two differently-ordered equal sets could
     oscillate against [equal] and burn worklist iterations.) *)
  let canon fs = List.sort_uniq compare fs

  let equal a b =
    match (a, b) with
    | Unreached, Unreached -> true
    | Facts x, Facts y -> canon x = canon y
    | _ -> false

  let join a b =
    match (a, b) with
    | Unreached, x | x, Unreached -> x
    | Facts x, Facts y ->
        Facts (canon (List.filter (fun f -> List.mem f y) x))
end

module Solver = Dfa.Make (L)

let trackable = function Ir.G_proto _ | Ir.G_flag _ -> true | _ -> false

(* Decompose a guard into the atomic facts implied by it evaluating to
   [pol].  A true disjunction pins down neither arm; a false one
   falsifies both. *)
let rec facts_of_guard g pol =
  match Ir.simplify_guard g with
  | Ir.G_not h -> facts_of_guard h (not pol)
  | Ir.G_or (a, b) ->
      if pol then [] else facts_of_guard a false @ facts_of_guard b false
  | atom -> if trackable atom then [ (atom, pol) ] else []

(* Two facts that cannot hold simultaneously: same atom with opposite
   polarity, or two different protocols both asserted. *)
let conflicts (a, pa) (b, pb) =
  (a = b && pa <> pb)
  || pa && pb
     && (match (a, b) with
        | Ir.G_proto x, Ir.G_proto y -> x <> y
        | _ -> false)

let add_fact fs f =
  if List.exists (conflicts f) fs then None
  else if List.mem f fs then Some fs
  else Some (List.sort compare (f :: fs))

let assuming fs g pol =
  List.fold_left
    (fun acc f -> match acc with None -> None | Some fs -> add_fact fs f)
    (Some fs) (facts_of_guard g pol)

let edge ~(src : Ir.block) ~dst x =
  match x with
  | L.Unreached -> L.Unreached
  | L.Facts fs -> (
      match src.Ir.term with
      | Ir.Cond { guard; then_; else_ } when then_ <> else_ -> (
          match assuming fs guard (dst = then_) with
          | None -> L.Unreached
          | Some fs' -> L.Facts fs')
      | _ -> x)

let analyze (p : Ir.program) =
  match
    Solver.solve ~edge ~init:(L.Facts []) ~transfer:(fun _ x -> x) p
  with
  | Solver.Budget_exhausted { budget; _ } ->
      (* Degrade instead of crashing the lint run: the partial facts are
         an under-approximation, so none of the CLARA201-203 claims
         ("on every path") would be sound to emit from them. *)
      [
        Diag.make ~code:"CLARA204" ~severity:Diag.Warn ~pass:"paths"
          (Printf.sprintf
             "path analysis exhausted its %d-step iteration budget before \
              reaching a fixed point; guard-fact diagnostics skipped"
             budget);
      ]
  | Solver.Fixpoint r ->
      let reachable = Ir.reachable p in
      let diags = ref [] in
      let emit d = diags := d :: !diags in
      Array.iter
        (fun (b : Ir.block) ->
          let bid = b.Ir.bid in
          match r.Solver.input.(bid) with
          | L.Unreached ->
              (* CFG-unreachable blocks are eliminate_dead_blocks' problem;
                 only report blocks a CFG walk believes are live. *)
              if reachable.(bid) then
                emit
                  (Diag.make ~block:bid ~code:"CLARA202" ~severity:Diag.Warn
                     ~pass:"paths"
                     (Printf.sprintf
                        "block b%d is unreachable: every path to it carries \
                         contradictory guard facts"
                        bid))
          | L.Facts fs -> (
              match b.Ir.term with
              | Ir.Cond { guard; then_; else_ } when then_ <> else_ ->
                  let dead pol = assuming fs guard pol = None in
                  let guard_str = Format.asprintf "%a" Ir.pp_guard guard in
                  if dead true then
                    emit
                      (Diag.make ~block:bid ~code:"CLARA201"
                         ~severity:Diag.Warn ~pass:"paths"
                         (Printf.sprintf
                            "guard '%s' at b%d contradicts facts established \
                             on every path here; its then-branch (b%d) never \
                             executes"
                            guard_str bid then_))
                  else if dead false then
                    emit
                      (Diag.make ~block:bid ~code:"CLARA203"
                         ~severity:Diag.Info ~pass:"paths"
                         (Printf.sprintf
                            "guard '%s' at b%d is implied by earlier guards; \
                             its else-branch (b%d) is dead"
                            guard_str bid else_))
              | _ -> ()))
        p.Ir.blocks;
      List.rev !diags
