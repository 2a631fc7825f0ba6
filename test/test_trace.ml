(* Tests for the per-packet tracing layer: ring-buffer sink semantics,
   the tiling invariant attribution relies on, tracing's zero effect on
   simulation results, run_pair event tagging, Perfetto export, and the
   predictor-side views (attribution, components, timeline) of its one
   walk over every corpus NF and target. *)

module Trace = Clara_nicsim.Trace
module Attr = Clara_nicsim.Attribution
module Export = Clara_nicsim.Trace_export
module Dev = Clara_nicsim.Device
module Eng = Clara_nicsim.Engine
module Stats = Clara_nicsim.Stats
module Lat = Clara_predict.Latency
module J = Clara_util.Json
module L = Clara_lnic
module W = Clara_workload

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let lnic = L.Netronome.default

let workload ?(tcp = 0.8) ?(rate = 60_000.) ~packets () =
  W.Trace.synthesize ~seed:5L
    (W.Profile.make ~packets ~rate_pps:rate ~flow_count:100 ~tcp_fraction:tcp
       ~payload:(W.Dist.Fixed 300) ())

let nat = Clara_nfs.Nat.ported ~checksum_engine:true

(* ------------------------------------------------------------------ *)
(* Ring buffer                                                         *)

let test_ring_semantics () =
  let t = Trace.create ~limit:10 () in
  check_int "empty" 0 (Array.length (Trace.events t));
  for i = 0 to 24 do
    Trace.record t ~seq:i ~prog:0 ~thread:0 ~kind:Trace.Compute ~label:"x"
      ~t0:i ~t1:(i + 1) ~arg:0
  done;
  let evs = Trace.events t in
  check_int "bounded by limit" 10 (Array.length evs);
  check_int "total counts everything" 25 (Trace.total t);
  check_int "dropped = total - retained" 15 (Trace.dropped t);
  check_int "oldest surviving event" 15 evs.(0).Trace.seq;
  check "oldest-first order" true
    (Array.for_all (fun i -> evs.(i).Trace.seq < evs.(i + 1).Trace.seq)
       (Array.init 9 Fun.id));
  Trace.clear t;
  check_int "clear forgets events" 0 (Array.length (Trace.events t));
  check_int "clear resets total" 0 (Trace.total t);
  check "limit < 1 rejected" true
    (try ignore (Trace.create ~limit:0 ()); false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Tracing must not change simulation results                          *)

let test_sink_off_identical () =
  let tr = workload ~packets:2_000 () in
  let r_off = Eng.run lnic (nat ()) tr in
  let sink = Trace.create () in
  let r_on = Eng.run lnic (nat ()) ~sink tr in
  (* [compare], not [=]: NaN hit rates must compare equal. *)
  check "summary byte-identical" true
    (compare r_off.Eng.summary r_on.Eng.summary = 0);
  check "emem hit rate identical" true
    (compare r_off.Eng.emem_hit_rate r_on.Eng.emem_hit_rate = 0);
  check "flow cache hit rate identical" true
    (compare r_off.Eng.flow_cache_hit_rate r_on.Eng.flow_cache_hit_rate = 0);
  check "events recorded" true (Trace.total sink > 0)

(* ------------------------------------------------------------------ *)
(* Tiling invariant: spans sum to latency, per packet                  *)

let test_tiling_invariant () =
  let tr = workload ~packets:2_000 ~rate:1_500_000. () in
  let sink = Trace.create () in
  let r = Eng.run lnic (nat ()) ~sink tr in
  let report = Attr.analyze sink in
  check_int "no ring truncation at this size" 0 report.Attr.incomplete;
  check_int "every retired packet attributed" r.Eng.summary.Stats.packets
    (Array.length report.Attr.packets);
  Array.iter
    (fun p ->
      check_int
        (Printf.sprintf "packet %d components tile latency" p.Attr.p_seq)
        (p.Attr.p_retire - p.Attr.p_arrival)
        (Attr.ctotal p.Attr.p_comp))
    report.Attr.packets;
  (* Row means carry the same invariant, and the "all" row's mean
     matches the engine's own summary. *)
  List.iter
    (fun row ->
      let sum =
        row.Attr.r_queue +. row.Attr.r_compute +. row.Attr.r_accel_wait
        +. row.Attr.r_mem +. row.Attr.r_wire
      in
      check (row.Attr.r_type ^ " row sums to total") true
        (Float.abs (sum -. row.Attr.r_total) < 1e-6))
    report.Attr.rows;
  let all = List.find (fun r -> r.Attr.r_type = "all") report.Attr.rows in
  check "all-row mean = engine mean" true
    (Float.abs (all.Attr.r_total -. r.Eng.summary.Stats.mean_cycles) < 0.5);
  check_int "all-row count = packets" r.Eng.summary.Stats.packets all.Attr.r_count

let test_ring_truncation_counted () =
  let tr = workload ~packets:2_000 () in
  let sink = Trace.create ~limit:5_000 () in
  ignore (Eng.run lnic (nat ()) ~sink tr);
  check "ring wrapped" true (Trace.dropped sink > 0);
  let report = Attr.analyze sink in
  (* Truncated heads are skipped, never misattributed; the surviving
     tail still analyzes cleanly. *)
  check "incomplete counted" true (report.Attr.incomplete > 0);
  Array.iter
    (fun p ->
      check_int "surviving packets still tile"
        (p.Attr.p_retire - p.Attr.p_arrival)
        (Attr.ctotal p.Attr.p_comp))
    report.Attr.packets

(* ------------------------------------------------------------------ *)
(* run_pair: merged arrivals, per-program tagging, half-queue clamp    *)

let test_run_pair_tracing () =
  let prog_a = nat () in
  let prog_b = Clara_nfs.Firewall.ported ~entries:8192 ~placement:Dev.P_imem () in
  let tr_a = workload ~packets:1_000 ~rate:400_000. () in
  let tr_b =
    W.Trace.synthesize ~seed:7L
      (W.Profile.make ~packets:1_000 ~rate_pps:400_000. ~flow_count:100
         ~payload:(W.Dist.Fixed 300) ())
  in
  let sink = Trace.create () in
  let ra, rb = Eng.run_pair lnic prog_a prog_b ~sink tr_a tr_b in
  check "progs named" true
    (Trace.progs sink = [| prog_a.Dev.name; prog_b.Dev.name |]);
  let evs = Trace.events sink in
  let count p k =
    Array.fold_left
      (fun n e -> if e.Trace.prog = p && e.Trace.kind = k then n + 1 else n)
      0 evs
  in
  check_int "prog 0 arrivals tagged" 1_000 (count 0 Trace.Arrival);
  check_int "prog 1 arrivals tagged" 1_000 (count 1 Trace.Arrival);
  check_int "prog 0 retires" ra.Eng.summary.Stats.packets (count 0 Trace.Retire);
  check_int "prog 1 retires" rb.Eng.summary.Stats.packets (count 1 Trace.Retire);
  (* The engine consumes the two streams as one merged arrival-ordered
     stream: Arrival events must appear in nondecreasing time order. *)
  let arrivals = Array.to_list evs |> List.filter (fun e -> e.Trace.kind = Trace.Arrival) in
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Trace.t0 <= b.Trace.t0 && sorted rest
    | _ -> true
  in
  check "merged arrival ordering" true (sorted arrivals);
  check "global seq unique across programs" true
    (let seen = Hashtbl.create 2048 in
     List.for_all
       (fun e ->
         if Hashtbl.mem seen e.Trace.seq then false
         else (Hashtbl.add seen e.Trace.seq (); true))
       arrivals);
  (* Attribution splits rows by program. *)
  let report = Attr.analyze sink in
  check "rows for both programs" true
    (List.exists (fun r -> r.Attr.r_prog = 0) report.Attr.rows
    && List.exists (fun r -> r.Attr.r_prog = 1) report.Attr.rows)

let test_run_pair_clamp_traced () =
  (* The half-queue clamp regression, now with a sink attached: a
     capacity-1 ingress hub must still clamp to >= 1 and the trace must
     show no Dropped events. *)
  let hubs =
    Array.map
      (fun (h : L.Hub.t) ->
        if h.L.Hub.kind = `Ingress then { h with L.Hub.queue_capacity = 1 } else h)
      lnic.L.Graph.hubs
  in
  let tiny = { lnic with L.Graph.hubs = hubs } in
  let mk arrival_ns =
    { W.Packet.src_ip = 1l; dst_ip = 2l; src_port = 1; dst_port = 2;
      proto = W.Packet.Udp; flags = 0; payload_bytes = 64; arrival_ns }
  in
  let noop name =
    { Dev.name; tables = []; handler = (fun ctx _ -> Dev.alu ctx 10; Dev.Emit) }
  in
  let sink = Trace.create () in
  let ra, _rb =
    Eng.run_pair ~threads:2 tiny (noop "a") (noop "b") ~sink
      (W.Trace.of_packets [| mk 0L; mk 10L |])
      (W.Trace.of_packets [||])
  in
  check_int "both packets accepted" 2 ra.Eng.summary.Stats.packets;
  check "no Dropped events in trace" true
    (Array.for_all (fun e -> e.Trace.kind <> Trace.Dropped) (Trace.events sink))

(* ------------------------------------------------------------------ *)
(* Perfetto export                                                     *)

let field name = function
  | J.Obj kvs -> (
      match List.assoc_opt name kvs with
      | Some v -> v
      | None -> Alcotest.fail ("missing field " ^ name))
  | _ -> Alcotest.fail "expected a JSON object"

let test_perfetto_export () =
  let tr = workload ~packets:300 () in
  let sink = Trace.create () in
  let r = Eng.run lnic (nat ()) ~sink tr in
  let j = Export.perfetto sink ~freq_mhz:r.Eng.freq_mhz in
  (* Round-trips through our own writer and parser (integral floats may
     come back as Ints, so compare shape, not structure). *)
  let j' = J.parse_exn (J.to_string j) in
  (match (field "traceEvents" j, field "traceEvents" j') with
  | J.List a, J.List b ->
      check "round-trip preserves event count" true
        (List.length a = List.length b)
  | _ -> Alcotest.fail "traceEvents shape after round-trip");
  (match field "traceEvents" j with
  | J.List evs ->
      check "events present" true (List.length evs > 0);
      List.iter
        (fun e ->
          match field "ph" e with
          | J.String ("X" | "i" | "M" | "C") -> ()
          | _ -> Alcotest.fail "unexpected phase")
        evs;
      (* Complete events must carry non-negative µs durations. *)
      List.iter
        (fun e ->
          match (field "ph" e, e) with
          | J.String "X", _ -> (
              match field "dur" e with
              | J.Float d -> check "dur >= 0" true (d >= 0.)
              | J.Int d -> check "dur >= 0" true (d >= 0)
              | _ -> Alcotest.fail "dur type")
          | _ -> ())
        evs
  | _ -> Alcotest.fail "traceEvents shape");
  match field "otherData" j with
  | J.Obj _ -> ()
  | _ -> Alcotest.fail "otherData shape"

(* ------------------------------------------------------------------ *)
(* Predictor-side attribution                                          *)

(* Every corpus NF on every offload family, plus the off-path target with
   the flow-cache hit ratio pinned (the analytic two-regime blend). *)
let predictors () =
  let prof =
    W.Profile.make ~payload:(W.Dist.Fixed 300) ~packets:1_000 ~flow_count:100
      ~rate_pps:60_000. ~tcp_fraction:0.8 ()
  in
  let tr = W.Trace.synthesize ~seed:3L prof in
  let blend = { Lat.default_config with Lat.flow_cache_hit_ratio = Some 0.5 } in
  let cells =
    List.map (fun nic -> (nic, "", Lat.default_config)) [ "netronome"; "soc"; "bluefield" ]
    @ [ ("bluefield", " hit=0.5", blend) ]
  in
  List.concat_map
    (fun (e : Clara_nfs.Corpus.entry) ->
      List.map
        (fun (nic, label, config) ->
          let lnic = Option.get (L.Targets.find nic) in
          let name = Printf.sprintf "%s@%s%s" e.Clara_nfs.Corpus.name nic label in
          match
            Clara.analyze_for_profile lnic ~source:e.Clara_nfs.Corpus.source ~profile:prof
          with
          | Error err -> Alcotest.fail (name ^ ": " ^ err)
          | Ok a -> (name, Lat.create ~config lnic a.Clara.df a.Clara.mapping, tr))
        cells)
    Clara_nfs.Corpus.all

let test_predict_attribution () =
  List.iter
    (fun (name, t, tr) ->
      let p = Lat.predict_trace t tr in
      let att = Lat.attribute_trace t tr in
      check (name ^ ": attribution mean = prediction mean") true
        (Int64.bits_of_float att.Lat.att_mean = Int64.bits_of_float p.Lat.mean_cycles);
      check (name ^ ": has per-type rows and all row") true
        (List.exists (fun r -> r.Lat.at_type = "all") att.Lat.att_rows
        && List.length att.Lat.att_rows >= 2);
      List.iter
        (fun r ->
          let sum = r.Lat.at_compute +. r.Lat.at_mem +. r.Lat.at_accel +. r.Lat.at_wire in
          check (name ^ ": " ^ r.Lat.at_type ^ " components sum") true
            (Float.abs (sum -. r.Lat.at_total) < 1e-6))
        att.Lat.att_rows;
      let all = List.find (fun r -> r.Lat.at_type = "all") att.Lat.att_rows in
      check (name ^ ": all-row total = mean") true
        (Float.abs (all.Lat.at_total -. att.Lat.att_mean) < 1e-6))
    (predictors ())

let packets tr = Array.of_list (List.rev (W.Trace.fold (fun acc p -> p :: acc) [] tr))

let test_predict_packet_components () =
  List.iter
    (fun (name, t, tr) ->
      let pkts = packets tr in
      Lat.reset_state t;
      let comps = Array.map (Lat.packet_components t) pkts in
      Lat.reset_state t;
      let lats = Array.map (Lat.packet_latency t) pkts in
      Array.iteri
        (fun i c ->
          check (name ^ ": pc_total bit-identical to packet_latency") true
            (Int64.bits_of_float c.Lat.pc_total
            = Int64.bits_of_float lats.(i).Lat.cycles);
          check (name ^ ": components sum exactly") true
            (Float.abs
               (c.Lat.pc_compute +. c.Lat.pc_mem +. c.Lat.pc_accel +. c.Lat.pc_wire
              -. c.Lat.pc_total)
            < 1e-9))
        comps)
    (predictors ())

let num = function
  | J.Float f -> f
  | J.Int i -> float_of_int i
  | _ -> Alcotest.fail "expected a number"

let test_predict_timeline_json () =
  List.iter
    (fun (name, t, tr) ->
      let j = Lat.perfetto_timeline t tr in
      let j' = J.parse_exn (J.to_string j) in
      let evs =
        match (field "traceEvents" j, field "traceEvents" j') with
        | J.List evs, J.List evs' ->
            check (name ^ ": timeline has events") true (List.length evs > 0);
            check (name ^ ": timeline round-trips") true
              (List.length evs = List.length evs');
            evs
        | _ -> Alcotest.fail "traceEvents shape"
      in
      (* Each packet's spans tile its predicted latency. *)
      let freq = num (field "freq_mhz" (field "otherData" j)) in
      let pkts = packets tr in
      let spans = Array.make (Array.length pkts) 0. in
      List.iter
        (fun e ->
          if field "ph" e = J.String "X" then
            let seq = int_of_float (num (field "seq" (field "args" e))) in
            spans.(seq) <- spans.(seq) +. num (field "dur" e))
        evs;
      Lat.reset_state t;
      Array.iteri
        (fun i pkt ->
          let total = (Lat.packet_components t pkt).Lat.pc_total /. freq in
          check
            (Printf.sprintf "%s: packet %d spans sum to pc_total" name i)
            true
            (Float.abs (spans.(i) -. total) <= 1e-9 *. total))
        pkts)
    (predictors ())

let suite =
  [ Alcotest.test_case "ring buffer semantics" `Quick test_ring_semantics;
    Alcotest.test_case "sink off = byte-identical results" `Quick test_sink_off_identical;
    Alcotest.test_case "tiling invariant (spans sum to latency)" `Quick
      test_tiling_invariant;
    Alcotest.test_case "ring truncation counted, never misattributed" `Quick
      test_ring_truncation_counted;
    Alcotest.test_case "run_pair tracing: merge order + tagging" `Quick
      test_run_pair_tracing;
    Alcotest.test_case "run_pair half-queue clamp with sink" `Quick
      test_run_pair_clamp_traced;
    Alcotest.test_case "perfetto export parses" `Quick test_perfetto_export;
    Alcotest.test_case "predict attribution sums + matches mean" `Quick
      test_predict_attribution;
    Alcotest.test_case "predict per-packet components exact" `Quick
      test_predict_packet_components;
    Alcotest.test_case "predicted timeline JSON" `Quick test_predict_timeline_json ]
