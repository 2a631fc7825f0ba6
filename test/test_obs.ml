(* Tests for the observability layer (lib/obs): counter / histogram /
   span semantics, JSON export, and end-to-end population of the
   registry by a full pipeline + simulator run. *)

module Obs = Clara_obs
module J = Clara_util.Json
module W = Clara_workload
module L = Clara_lnic

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)

let test_counter_semantics () =
  let r = Obs.Registry.create () in
  let c = Obs.Registry.counter r "c" in
  check_int "starts at 0" 0 (Obs.Metrics.value c);
  Obs.Metrics.incr c;
  Obs.Metrics.add c 41;
  check_int "incr + add" 42 (Obs.Metrics.value c);
  (* Find-or-create returns the same instrument. *)
  Obs.Metrics.incr (Obs.Registry.counter r "c");
  check_int "aliased" 43 (Obs.Metrics.value c);
  check "monotonic: negative add rejected" true
    (try Obs.Metrics.add c (-1); false with Invalid_argument _ -> true);
  check "kind clash rejected" true
    (try ignore (Obs.Registry.histogram r "c"); false with Invalid_argument _ -> true);
  Obs.Metrics.reset_counter c;
  check_int "reset" 0 (Obs.Metrics.value c);
  check_int "absent counter reads 0" 0 (Obs.Registry.counter_value r "nope")

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)

let test_histogram_semantics () =
  let r = Obs.Registry.create () in
  let h = Obs.Registry.histogram r "h" in
  check_int "empty count" 0 (Obs.Metrics.hist_count h);
  check_int "empty quantile" 0 (Obs.Metrics.quantile h 0.5);
  List.iter (Obs.Metrics.observe h) [ 1; 2; 3; 4; 100 ];
  check_int "count" 5 (Obs.Metrics.hist_count h);
  check_int "sum" 110 (Obs.Metrics.hist_sum h);
  check_int "min" 1 (Obs.Metrics.hist_min h);
  check_int "max" 100 (Obs.Metrics.hist_max h);
  (* Nearest-rank through log2 buckets: p50 is the 3rd smallest (3),
     resolved to its bucket's upper bound (4). *)
  check_int "p50 bucket upper bound" 4 (Obs.Metrics.quantile h 0.5);
  check_int "p100 tightened by true max" 100 (Obs.Metrics.quantile h 1.0);
  (* Bucket layout: 1 -> bucket 0 (<=1); 2 -> (1,2]; 3,4 -> (2,4];
     100 -> (64,128]. *)
  check "buckets" true
    (Obs.Metrics.nonzero_buckets h = [ (1, 1); (2, 1); (4, 2); (128, 1) ]);
  (* Negative observations clamp to zero rather than corrupting. *)
  Obs.Metrics.observe h (-5);
  check_int "negative clamps" 0 (Obs.Metrics.hist_min h);
  Obs.Metrics.reset_histogram h;
  check_int "reset count" 0 (Obs.Metrics.hist_count h);
  check_int "reset max" 0 (Obs.Metrics.hist_max h)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

let test_span_nesting () =
  let r = Obs.Registry.create () in
  check "no active path" true (Obs.Registry.current_path r = None);
  let v =
    Obs.Registry.span r "outer" (fun () ->
        check "outer active" true (Obs.Registry.current_path r = Some "outer");
        Obs.Registry.span r "inner" (fun () ->
            check "nested path" true (Obs.Registry.current_path r = Some "outer/inner");
            7))
  in
  check_int "span returns the body's value" 7 v;
  check "outer recorded" true (Obs.Registry.mem r "outer");
  check "outer/inner recorded" true (Obs.Registry.mem r "outer/inner");
  (match Obs.Registry.find r "outer/inner" with
  | Some (Obs.Registry.Span s) ->
      check_int "inner count" 1 (Obs.Span.count s);
      check "non-negative duration" true (Obs.Span.total_ns s >= 0);
      check "min <= max" true (Obs.Span.min_ns s <= Obs.Span.max_ns s)
  | _ -> Alcotest.fail "expected a span metric");
  (* Exception safety: the stack pops even when the body raises. *)
  (try Obs.Registry.span r "boom" (fun () -> failwith "x") with Failure _ -> ());
  check "stack popped after raise" true (Obs.Registry.current_path r = None);
  (match Obs.Registry.find r "boom" with
  | Some (Obs.Registry.Span s) -> check_int "raising span still recorded" 1 (Obs.Span.count s)
  | _ -> Alcotest.fail "expected boom span");
  (* Re-entering accumulates under the same path. *)
  Obs.Registry.span r "outer" (fun () -> ());
  (match Obs.Registry.find r "outer" with
  | Some (Obs.Registry.Span s) -> check_int "outer count accumulates" 2 (Obs.Span.count s)
  | _ -> Alcotest.fail "expected outer span")

(* ------------------------------------------------------------------ *)
(* Export                                                              *)

let field name = function
  | J.Obj kvs -> (
      match List.assoc_opt name kvs with
      | Some v -> v
      | None -> Alcotest.fail ("missing field " ^ name))
  | _ -> Alcotest.fail "expected a JSON object"

let test_json_export () =
  let r = Obs.Registry.create () in
  Obs.Metrics.add (Obs.Registry.counter r "cnt") 5;
  Obs.Metrics.observe (Obs.Registry.histogram r "hist") 3;
  Obs.Registry.span r "sp" (fun () -> ());
  let j = Obs.Export.to_json r in
  (match field "counters" j with
  | J.Obj [ ("cnt", J.Int 5) ] -> ()
  | _ -> Alcotest.fail "counters shape");
  (match field "histograms" j with
  | J.Obj [ ("hist", h) ] ->
      check "hist count" true (field "count" h = J.Int 1);
      check "hist sum" true (field "sum" h = J.Int 3);
      (match field "buckets" h with
      | J.List [ J.Obj [ ("lo", J.Int 2); ("hi", J.Int 4); ("count", J.Int 1) ] ] -> ()
      | _ -> Alcotest.fail "buckets shape")
  | _ -> Alcotest.fail "histograms shape");
  (match field "spans" j with
  | J.Obj [ ("sp", s) ] ->
      check "span count" true (field "count" s = J.Int 1);
      check "span total" true
        (match field "total_ns" s with J.Int n -> n >= 0 | _ -> false)
  | _ -> Alcotest.fail "spans shape");
  (* Serialized form round-trips through the writer without raising and
     mentions every section. *)
  let s = J.to_string j in
  let mentions sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  check "mentions counters" true (mentions "\"counters\"");
  check "mentions histograms" true (mentions "\"histograms\"");
  check "mentions spans" true (mentions "\"spans\"");
  (* write_json produces a readable file with the same content. *)
  let path = Filename.temp_file "clara_obs" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Export.write_json path r;
      let ic = open_in path in
      let len = in_channel_length ic in
      let contents = really_input_string ic len in
      close_in ic;
      check "file content matches to_json" true
        (String.trim contents = String.trim (J.to_string (Obs.Export.to_json r))))

(* ------------------------------------------------------------------ *)
(* End-to-end: a pipeline + simulator run populates the registry       *)

let test_pipeline_populates_registry () =
  let reg = Obs.Registry.default in
  Obs.Registry.reset reg;
  let lnic = L.Netronome.default in
  let prof =
    W.Profile.make ~payload:(W.Dist.Fixed 300) ~packets:500 ~flow_count:100
      ~rate_pps:60_000. ~tcp_fraction:0.8 ()
  in
  (match Clara.analyze_for_profile lnic ~source:(Clara_nfs.Nat.source ()) ~profile:prof with
  | Error e -> Alcotest.fail e
  | Ok a ->
      let trace = W.Trace.synthesize ~seed:3L prof in
      ignore (Clara.predict a trace);
      ignore
        (Clara_nicsim.Engine.run lnic (Clara_nfs.Nat.ported ~checksum_engine:true ()) trace));
  List.iter
    (fun name ->
      match Obs.Registry.find reg name with
      | Some (Obs.Registry.Span s) ->
          check (name ^ " ran") true (Obs.Span.count s > 0);
          check (name ^ " non-negative") true (Obs.Span.total_ns s >= 0)
      | _ -> Alcotest.fail ("missing span " ^ name))
    [ "pipeline"; "pipeline/lower"; "pipeline/coarsen"; "pipeline/dataflow";
      "pipeline/mapping"; "pipeline/mapping/encode";
      "pipeline/mapping/encode/price"; "pipeline/mapping/encode/model";
      "pipeline/mapping/solve";
      "pipeline/mapping/solve/presolve"; "pipeline/mapping/solve/lp";
      "pipeline/mapping/decode"; "predict"; "nicsim" ];
  check "simplex solves" true (Obs.Registry.counter_value reg "ilp.simplex.solves" > 0);
  check "simplex pivots" true (Obs.Registry.counter_value reg "ilp.simplex.pivots" > 0);
  check "bb nodes" true (Obs.Registry.counter_value reg "ilp.bb.nodes" > 0);
  check "mapping vars" true (Obs.Registry.counter_value reg "mapping.ilp.vars" > 0);
  check "mapping constraints" true
    (Obs.Registry.counter_value reg "mapping.ilp.constraints" > 0);
  check "nicsim packets" true (Obs.Registry.counter_value reg "nicsim.packets" > 0);
  (match Obs.Registry.find reg "nicsim.queue_depth" with
  | Some (Obs.Registry.Histogram h) ->
      check "queue depth observed per packet" true (Obs.Metrics.hist_count h >= 500)
  | _ -> Alcotest.fail "missing nicsim.queue_depth histogram");
  (* The JSON dump of a populated registry has all three sections
     non-empty. *)
  let j = Obs.Export.to_json reg in
  (match field "spans" j with
  | J.Obj (_ :: _) -> ()
  | _ -> Alcotest.fail "expected non-empty spans");
  match field "counters" j with
  | J.Obj (_ :: _) -> ()
  | _ -> Alcotest.fail "expected non-empty counters"

let suite =
  [ Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
    Alcotest.test_case "histogram semantics" `Quick test_histogram_semantics;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "JSON export" `Quick test_json_export;
    Alcotest.test_case "pipeline populates registry" `Quick
      test_pipeline_populates_registry ]
