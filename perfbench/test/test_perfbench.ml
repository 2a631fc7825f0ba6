(* Self-tests of the benchmark's arithmetic and output checks. *)

module H = Perfbench_harness
module Stat = H.Stat
module Sp = H.Spans
module Check = H.Check
module W = Clara_workload
module Lat = Clara_predict.Latency
module B = Clara_analysis.Bounds
module I = Clara_analysis.Interval

let feq = Alcotest.float 1e-12
let ten = List.init 10 (fun i -> float_of_int (i + 1))

let test_percentile () =
  Alcotest.check feq "p50 of 1..10" 5. (Stat.percentile ten 50.);
  Alcotest.check feq "p70 of 1..10" 7. (Stat.percentile ten 70.);
  Alcotest.check feq "p100" 10. (Stat.percentile ten 100.);
  Alcotest.check feq "p0 clamps to the minimum" 1. (Stat.percentile ten 0.);
  Alcotest.check feq "order does not matter" 7. (Stat.percentile (List.rev ten) 70.);
  (* 12 NFs x 3 targets: p70 is the 26th cell, with 10 beyond it. *)
  Alcotest.(check int) "rank of p70 in 36" 26 (Stat.rank ~n:36 70.);
  Alcotest.(check int) "cells beyond p70" 10 (Stat.beyond ~n:36 70.);
  Alcotest.(check int) "rank of p50 in 36" 18 (Stat.rank ~n:36 50.)

let test_median () =
  Alcotest.check feq "odd" 3. (Stat.median [ 5.; 1.; 3. ]);
  Alcotest.check feq "even averages the middle pair" 2.5 (Stat.median [ 4.; 1.; 2.; 3. ]);
  Alcotest.check feq "relative error" 10.
    (Stat.rel_err_pct ~predicted:90. ~simulated:100.)

let test_failure_ledger () =
  let l = Check.ledger () in
  Check.record l (Ok ());
  Check.record l (Error "a");
  Check.record l (Ok ());
  Check.record l (Error "b");
  Alcotest.(check int) "attempted" 4 l.Check.attempted;
  Alcotest.(check int) "failed" 2 l.Check.failed;
  Alcotest.(check (list string)) "failures in order" [ "a"; "b" ] (Check.failures l)

(* A clock that reads a scripted sequence of instants. *)
let scripted times =
  let q = ref times in
  fun () ->
    match !q with
    | t :: rest ->
        q := rest;
        t
    | [] -> failwith "clock exhausted"

let test_self_time () =
  (* phase [0,10] > cell [1,9] > a [2,5], b [5,8] *)
  let t = Sp.create ~clock:(scripted [ 0.; 1.; 2.; 5.; 5.; 8.; 9.; 10. ]) ~enabled:true () in
  Sp.record t "phase.x" (fun () ->
      Sp.record t "cell" (fun () ->
          Sp.record t "a" (fun () -> ());
          Sp.record t "b" (fun () -> ())));
  let spans = Sp.spans t in
  let self name =
    List.assoc name (List.map (fun ((s : Sp.span), v) -> (s.name, v)) (Sp.self_times spans))
  in
  Alcotest.check feq "phase self" 2. (self "phase.x");
  Alcotest.check feq "cell self" 2. (self "cell");
  Alcotest.check feq "a self" 3. (self "a");
  Alcotest.check feq "b self" 3. (self "b");
  match Sp.phases spans with
  | [ ph ] ->
      Alcotest.(check string) "phase name" "phase.x" ph.Sp.ph_name;
      Alcotest.check feq "phase wall" 10. ph.Sp.ph_wall;
      Alcotest.check feq "layer coverage" 0.6
        (Sp.coverage ~is_layer:(fun n -> n = "a" || n = "b") ph)
  | _ -> Alcotest.fail "expected one phase"

let test_span_exception () =
  let t = Sp.create ~clock:(scripted [ 0.; 1.; 2.; 3. ]) ~enabled:true () in
  (try Sp.record t "outer" (fun () -> Sp.record t "inner" (fun () -> failwith "boom"))
   with Failure _ -> ());
  Alcotest.(check int) "both spans closed" 2 (List.length (Sp.spans t));
  let off = Sp.create ~clock:(fun () -> failwith "clock read while off") ~enabled:false () in
  Alcotest.(check int) "disabled: plain call" 7 (Sp.record off "x" (fun () -> 7))

(* A real cell, small: nat on the soc target. *)
let profile =
  W.Profile.make ~payload:(W.Dist.Fixed 300) ~packets:300 ~flow_count:100 ~rate_pps:60_000.
    ~tcp_fraction:0.8 ()

let trace = W.Trace.synthesize ~seed:7L profile
let lnic = Clara_lnic.Soc_nic.default
let nat = Option.get (Clara_nfs.Corpus.find "nat")

let expect_ok what = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" what e

let expect_error what = function
  | Ok () -> Alcotest.failf "%s: perturbed output passed its check" what
  | Error _ -> ()

let test_perturbed_prediction () =
  let a = Result.get_ok (Clara.analyze_for_profile lnic ~source:nat.source ~profile) in
  let p = Lat.create lnic a.Clara.df a.Clara.mapping in
  let pred = Lat.predict_trace p trace in
  let att = Lat.attribute_trace p trace in
  expect_ok "attribution identity" (Check.attribution_identity pred att);
  expect_ok "same prediction" (Check.same_prediction pred (Clara.predict a trace));
  expect_error "attribution mean off by one ulp"
    (Check.attribution_identity pred { att with Lat.att_mean = Float.succ att.Lat.att_mean });
  expect_error "prediction p99 changed"
    (Check.same_prediction pred { pred with Lat.p99_cycles = pred.Lat.p99_cycles +. 1. })

let test_perturbed_sim () =
  let r = Clara_nicsim.Engine.run lnic nat.ported trace in
  let ir = fst (Clara_cir.Patterns.run (Clara_cir.Lower.lower_source nat.source)) in
  let b = B.analyze ~lnic ir in
  Alcotest.(check (list string)) "inside bounds" [] (Check.bounds_violations b r.summary);
  let hi = I.hi (Option.get (B.find b "all")).B.tb_total in
  let bad = { r.summary with Clara_nicsim.Stats.mean_cycles = hi +. 1. } in
  Alcotest.(check int) "mean above the interval" 1
    (List.length (Check.bounds_violations b bad));
  expect_ok "same result" (Check.same_sim_result r r);
  expect_error "fast path drifted"
    (Check.same_sim_result r
       { r with summary = { r.summary with Clara_nicsim.Stats.drops = r.summary.drops + 1 } });
  expect_ok "clean corpus source" (Check.lint_expectation ~broken:false ~has_errors:false);
  expect_error "broken source lints clean" (Check.lint_expectation ~broken:true ~has_errors:false)

let () =
  Alcotest.run "perfbench"
    [ ( "arithmetic",
        [ Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "failure ledger" `Quick test_failure_ledger;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "span exception" `Quick test_span_exception ] );
      ( "checks",
        [ Alcotest.test_case "perturbed prediction" `Quick test_perturbed_prediction;
          Alcotest.test_case "perturbed sim" `Quick test_perturbed_sim ] ) ]
