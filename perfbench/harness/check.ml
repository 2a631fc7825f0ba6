(* Output checks and failure accounting.

   Two ledgers are kept apart: operations (a cell of a sequence, which
   may fail the way the user would see it fail: a mapping error, a
   simulator exception) and output checks (a wrong answer).  Both count
   in the result's [failed]; only a failed check makes the run incorrect. *)

module Lat = Clara_predict.Latency
module Eng = Clara_nicsim.Engine
module B = Clara_analysis.Bounds
module I = Clara_analysis.Interval

type ledger = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (* newest first *)
}

let ledger () = { attempted = 0; failed = 0; failures = [] }

let record l = function
  | Ok () -> l.attempted <- l.attempted + 1
  | Error why ->
      l.attempted <- l.attempted + 1;
      l.failed <- l.failed + 1;
      l.failures <- why :: l.failures

let failures l = List.rev l.failures

(* Bit-level equality: NaN equals NaN, 0. differs from -0. *)
let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let expect what ok = if ok then Ok () else Error what

let same_prediction (a : Lat.prediction) (b : Lat.prediction) =
  expect "prediction differs from Clara.predict"
    (List.for_all2 same_float
       [ a.mean_cycles; a.p50_cycles; a.p99_cycles; a.tcp_mean; a.udp_mean;
         a.syn_mean; a.emitted_fraction ]
       [ b.mean_cycles; b.p50_cycles; b.p99_cycles; b.tcp_mean; b.udp_mean;
         b.syn_mean; b.emitted_fraction ])

(* The pc_total identity: attribution re-walks the trace and its mean
   must be predict_trace's mean bit for bit; the "all" row's component
   means sum to that mean up to rounding. *)
let attribution_identity (p : Lat.prediction) (a : Lat.attribution) =
  if not (same_float a.att_mean p.mean_cycles) then
    Error
      (Printf.sprintf "attribution mean %h <> predicted mean %h" a.att_mean
         p.mean_cycles)
  else
    match List.find_opt (fun r -> r.Lat.at_type = "all") a.att_rows with
    | None -> Error "attribution has no \"all\" row"
    | Some r ->
        expect
          (Printf.sprintf "\"all\" components sum to %.17g, mean is %.17g"
             r.at_total p.mean_cycles)
          (Float.abs (r.at_total -. p.mean_cycles)
          <= 1e-9 *. Float.abs p.mean_cycles)

let same_sim_result (a : Eng.result) (b : Eng.result) =
  expect "fast path result differs from the event path"
    (compare a.summary b.summary = 0
    && same_float a.emem_hit_rate b.emem_hit_rate
    && same_float a.flow_cache_hit_rate b.flow_cache_hit_rate
    && a.freq_mhz = b.freq_mhz)

let lint_expectation ~broken ~has_errors =
  match (broken, has_errors) with
  | true, false -> Error "broken source linted without errors"
  | false, true -> Error "corpus source linted with errors"
  | _ -> Ok ()

(* Each simulated per-type mean must lie inside the static interval of
   the same traffic class.  Returns one message per violation. *)
let bounds_violations (b : B.t) (s : Clara_nicsim.Stats.summary) =
  [ ("all", s.mean_cycles); ("tcp", s.tcp_mean); ("tcp-syn", s.syn_mean);
    ("udp", s.udp_mean) ]
  |> List.filter_map (fun (ty, mean) ->
         if Float.is_nan mean || s.packets = 0 then None
         else
           match B.find b ty with
           | None -> Some (Printf.sprintf "no static interval for %s" ty)
           | Some row ->
               let lo = I.lo row.B.tb_total and hi = I.hi row.B.tb_total in
               if mean < lo || mean > hi then
                 Some
                   (Printf.sprintf "sim %s mean %.1f outside static [%.1f, %.1f]"
                      ty mean lo hi)
               else None)
