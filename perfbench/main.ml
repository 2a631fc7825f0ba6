(* perfbench — the repository benchmark.

   For one workload (a traffic profile and a seed) it runs, one
   (source, target) cell at a time in a single-domain closed loop, the
   three user-facing sequences over every corpus NF x {netronome, soc,
   bluefield}:

   - predict: lower, coarsen, lint, dataflow, mapping, then
     Latency.create / predict_trace / attribute_trace and
     Throughput.latency_at_rate, as `clara predict` does;
   - sim: the sharing verdict picks the fast path, then Engine.run, as
     `clara sim` does;
   - static: lower, coarsen, lint, bounds, dataflow, mapping over every
     corpus source plus examples/nf_sources/broken_*.clara.

   Layer calls are timed from outside, through each layer's public
   functions.  Rounds of the three sequences repeat for --seconds; a
   cell's time is its median over the run's passes, each scaled to a
   fixed speed of a reference task timed around it.
   Output checks run after the timed rounds.  With --trace 1 rounds
   alternate untraced/traced and the per-layer split comes from spans of
   the traced rounds.

   The last stdout line is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  Exit code 1 when an
   output check fails, 2 on bad arguments. *)

module W = Clara_workload
module L = Clara_lnic
module Lat = Clara_predict.Latency
module Eng = Clara_nicsim.Engine
module B = Clara_analysis.Bounds
module I = Clara_analysis.Interval
module Suite = Clara_analysis.Suite
module Diag = Clara_analysis.Diag
module Corpus = Clara_nfs.Corpus
module Mapping = Clara_mapping.Mapping
module Reg = Clara_obs.Registry
module H = Perfbench_harness
module Stat = H.Stat
module Sp = H.Spans
module Check = H.Check

(* ---- command line --------------------------------------------------- *)

let workload_arg = ref ""
let seed_arg = ref 1
let seconds_arg = ref 10
let trace_arg = ref 0
let spans_dir = ".perfbench"

let usage =
  "perfbench --workload paper-mix|imix-spread --seed N --seconds S --trace 0|1"

let () =
  let specs =
    [ ("--workload", Arg.Set_string workload_arg, "NAME workload to run");
      ("--seed", Arg.Set_int seed_arg, "N trace synthesis seed");
      ("--seconds", Arg.Set_int seconds_arg, "S measuring time");
      ("--trace", Arg.Set_int trace_arg, "0|1 per-layer traced run") ]
  in
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv specs (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage
   with Arg.Bad m | Arg.Help m -> fail m);
  if !seconds_arg < 1 then fail "--seconds must be >= 1";
  if !trace_arg <> 0 && !trace_arg <> 1 then fail "--trace must be 0 or 1"

(* ---- workloads ------------------------------------------------------ *)

(* Packets per sim cell: enough for the simulator's fast path
   (1000-packet warm-up, as `clara sim` defaults) to reach steady state.
   Predict cells take the trace's first [predict_packets], which gives
   each predict cell more samples in a run; pred_err_p50_pct compares a
   whole-trace prediction, made after the timed rounds, with the
   simulation. *)
let packets = 3_000
let predict_packets = 1_000

type workload = { wname : string; profile : W.Profile.t }

let workloads =
  [ (* `clara predict`'s defaults, the paper's running example: few
       distinct (type, size, table-hit) keys. *)
    { wname = "paper-mix";
      profile =
        W.Profile.make ~payload:(W.Dist.Fixed 300) ~packets ~flow_count:10_000
          ~flow_skew:1.1 ~rate_pps:60_000. ~tcp_fraction:0.8 ~new_flow_syn:true () };
    (* Hostile: spread payloads, even mix, many uniform flows — keys
       almost never repeat. *)
    { wname = "imix-spread";
      profile =
        W.Profile.make ~payload:(W.Dist.Uniform (64, 1460)) ~packets
          ~flow_count:40_000 ~flow_skew:0. ~rate_pps:60_000. ~tcp_fraction:0.5
          ~new_flow_syn:true () } ]

let target_names = [ "netronome"; "soc"; "bluefield" ]

let targets =
  List.map
    (fun n ->
      match L.Targets.of_name n with Ok g -> (n, g) | Error e -> failwith e)
    target_names

type source = { sname : string; text : string; broken : bool }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let broken_dir = Filename.concat "examples" "nf_sources"

let load_sources () =
  let corpus =
    List.map
      (fun (e : Corpus.entry) -> { sname = e.name; text = e.source; broken = false })
      Corpus.all
  in
  let broken =
    Sys.readdir broken_dir |> Array.to_list
    |> List.filter (fun f ->
           String.starts_with ~prefix:"broken_" f && Filename.check_suffix f ".clara")
    |> List.sort compare
    |> List.map (fun f ->
           { sname = Filename.chop_suffix f ".clara";
             text = read_file (Filename.concat broken_dir f);
             broken = true })
  in
  if broken = [] then failwith ("no broken_*.clara sources under " ^ broken_dir);
  corpus @ broken

(* ---- the three sequences -------------------------------------------- *)

let tr = Sp.create ~enabled:false ()
let span name f = Sp.record tr name f

let lower text = span "cir.lower" (fun () -> Clara_cir.Lower.lower_source text)

(* Pipeline.analyze's layers, in its order, called one by one. *)
let analyze_layers lnic ir =
  let ir, _ = span "cir.coarsen" (fun () -> Clara_cir.Patterns.run ir) in
  let lint = span "analysis.lint" (fun () -> Suite.run ~lnic ir) in
  let options = { Mapping.default_options with Mapping.sharing = lint.Suite.sharing } in
  (ir, lint, options)

let build_and_map lnic ~sizes ~prob ~options ir =
  let df = span "dataflow.build" (fun () -> Clara_dataflow.Build.of_ir ir) in
  let m =
    span "mapping.map" (fun () ->
        Clara_mapping.Encode.map_nf ~options lnic df ~sizes ~prob)
  in
  (df, m)

type pred_out = {
  objective : float;
  pred : Lat.prediction;
  att : Lat.attribution;
  loaded : float option;
}

let predict_cell ~profile ~trace lnic text =
  let sizes = Clara.sizes_of_profile profile and prob = Clara.prob_of_profile profile in
  let ir, _, options = analyze_layers lnic (lower text) in
  match build_and_map lnic ~sizes ~prob ~options ir with
  | _, Error e -> Error ("mapping: " ^ e)
  | df, Ok m ->
      let p = span "predict.create" (fun () -> Lat.create lnic df m) in
      let pred = span "predict.walk" (fun () -> Lat.predict_trace p trace) in
      let att = span "predict.attribute" (fun () -> Lat.attribute_trace p trace) in
      let loaded =
        span "predict.queueing" (fun () ->
            Clara_predict.Throughput.latency_at_rate
              ~base_cycles:pred.Lat.mean_cycles
              ~rate_pps:profile.W.Profile.rate_pps lnic df m)
      in
      Ok { objective = m.Mapping.objective_cycles; pred; att; loaded }

type sim_out = { stateless : bool; result : Eng.result }

(* `clara sim`'s default: the fast path only where the sharing analysis
   proves the NF stateless. *)
let fast_of stateless =
  if stateless then Eng.Auto { warmup = 1000 } else Eng.Event_only

let sim_cell ~trace lnic (e : Corpus.entry) =
  let stateless =
    match lower e.source with
    | exception _ -> false
    | ir -> span "analysis.sharing" (fun () -> Clara_analysis.Sharing.stateless ir)
  in
  match span "nicsim.run" (fun () -> Eng.run ~fast:(fast_of stateless) lnic e.ported trace) with
  | result -> Ok { stateless; result }
  | exception ex -> Error ("simulator: " ^ Printexc.to_string ex)

(* Why the target cannot hold [e]'s ported program, if it cannot:
   Device.create_sim rejects, by its documented precondition, a port
   whose tables the NIC lacks room for (lpm's port keeps its rules in a
   flow cache, which soc has not).  `clara sim` has no such cell to run,
   so the sim sequence leaves it out and every run lists it.  Only the
   construction is tried here: an exception while simulating packets
   still fails its cell. *)
let placement_error lnic (e : Corpus.entry) =
  match Clara_nicsim.Device.create_sim lnic e.ported with
  | _ -> None
  | exception Invalid_argument why -> Some why

type static_out = {
  blocks : int;
  diags : Diag.t list;
  has_errors : bool;
  bounds : B.t option;
  nodes : int;
  smap : (float, string) result;  (* mapping objective *)
  ilp : int * int * int;  (* simplex pivots, B&B nodes, cutoff prunes *)
}

let ilp_counters () =
  let c = Reg.counter_value Reg.default in
  (c "ilp.simplex.pivots", c "ilp.bb.nodes", c "ilp.bb.cutoff_prunes")

(* A source that does not lower is what `clara lint` reports as an
   error and exits nonzero on. *)
let static_cell ~profile lnic src =
  let sizes = Clara.sizes_of_profile profile and prob = Clara.prob_of_profile profile in
  match lower src.text with
  | exception ex ->
      { blocks = 0; diags = []; has_errors = true; bounds = None; nodes = 0;
        smap = Error ("lower: " ^ Printexc.to_string ex); ilp = (0, 0, 0) }
  | ir ->
      let ir, lint, options = analyze_layers lnic ir in
      let b = span "analysis.bounds" (fun () -> B.analyze ~lnic ir) in
      let p0, n0, c0 = ilp_counters () in
      let df, m =
        match build_and_map lnic ~sizes ~prob ~options ir with
        | df, m -> (Some df, m)
        | exception ex -> (None, Error (Printexc.to_string ex))
      in
      let p1, n1, c1 = ilp_counters () in
      { blocks = Array.length ir.Clara_cir.Ir.blocks;
        diags = lint.Suite.diagnostics;
        has_errors = Suite.has_errors lint;
        bounds = Some b;
        nodes =
          (match df with
          | Some df -> Array.length df.Clara_dataflow.Graph.nodes
          | None -> 0);
        smap = Result.map (fun m -> m.Mapping.objective_cycles) m;
        ilp = (p1 - p0, n1 - n0, c1 - c0) }

(* ---- digests of model outputs ---------------------------------------- *)

let fl buf x = Printf.bprintf buf "%h;" x

let digest_pred buf = function
  | Error e -> Printf.bprintf buf "E:%s;" e
  | Ok o ->
      let p = o.pred in
      List.iter (fl buf)
        [ o.objective; p.Lat.mean_cycles; p.p50_cycles; p.p99_cycles; p.tcp_mean;
          p.udp_mean; p.syn_mean; p.emitted_fraction; o.att.Lat.att_mean ];
      List.iter
        (fun (r : Lat.att_row) ->
          Printf.bprintf buf "%s:%d:%s;" r.at_type r.at_count r.at_dominant;
          List.iter (fl buf) [ r.at_compute; r.at_mem; r.at_accel; r.at_wire; r.at_total ])
        o.att.att_rows;
      (match o.loaded with Some x -> fl buf x | None -> Buffer.add_string buf "sat;")

let digest_sim buf = function
  | Error e -> Printf.bprintf buf "E:%s;" e
  | Ok o ->
      let r = o.result and s = o.result.Eng.summary in
      Printf.bprintf buf "%b;%d;%d;%d;%d;%d;%d;" o.stateless s.packets s.drops
        s.p50_cycles s.p99_cycles s.max_cycles r.freq_mhz;
      List.iter (fl buf)
        [ s.mean_cycles; s.tcp_mean; s.udp_mean; s.syn_mean; r.emem_hit_rate;
          r.flow_cache_hit_rate ]

let digest_static buf o =
  Printf.bprintf buf "%d;%d;%b;" o.blocks o.nodes o.has_errors;
  List.iter (fun d -> Printf.bprintf buf "%s@%s;" d.Diag.code d.Diag.message) o.diags;
  (match o.smap with Ok x -> fl buf x | Error e -> Printf.bprintf buf "E:%s;" e);
  Option.iter
    (fun b ->
      List.iter
        (fun (r : B.type_bounds) ->
          Printf.bprintf buf "%s:" r.tb_type;
          fl buf (I.lo r.tb_total);
          fl buf (I.hi r.tb_total))
        b.B.bt_per_type)
    o.bounds

let hex buf = Digest.to_hex (Digest.string (Buffer.contents buf))

(* ---- one round -------------------------------------------------------- *)

(* One (source, target) cell of a pass; [label] is "<sequence>:<nf>@<target>"
   and serves as the request id of its spans. *)
type 'a cell = {
  label : string;
  nf : string;
  tname : string;
  time : float;  (* measured seconds *)
  scaled : float;  (* at the reference speed; NaN in the first round *)
  out : 'a;
}

type round = {
  traced : bool;
  wall : float;
  preds : (pred_out, string) result cell array;
  sim_all : (sim_out, string) result cell array list;  (* every pass *)
  static_all : static_out cell array list;  (* every pass *)
  digests : string * string * string;  (* predict, sim, static *)
  reference_ms : float;  (* median reference sample; NaN when unsampled *)
}

let sims r = List.hd r.sim_all
let statics r = List.hd r.static_all

(* Passes of the short sequences per round, so each gets a fair share
   of the measured time. *)
let sim_passes = 2
let static_passes = 3

let now = Unix.gettimeofday

(* ---- host-speed reference --------------------------------------------- *)

(* A fixed task owned by the benchmark: 80 000 lookups in a prebuilt
   4k-entry hash table that stays in cache, no allocation.  On a shared
   host the measured code runs at speeds about 1.6x apart between quiet
   and busy spells, and this task's time follows them.  The reference is
   timed at the start of each pass (right after its heap compaction),
   then after the first cell that ends [segment_s] or more after the
   previous sample, and at the end of the pass; the cells in between are
   scaled by [reference_nominal_s] over the mean of the two samples
   around them.  A change to the program moves the program's times, not
   the reference's. *)
let reference_table =
  lazy
    (let h = Hashtbl.create 4096 in
     for i = 0 to 4095 do
       Hashtbl.replace h (i * 7919) (i, -i)
     done;
     h)

let reference_nominal_s = 0.003
let segment_s = 0.1
let reference_samples = ref []  (* of the current round *)

(* Off during the first round, so the peak heap read after it does not
   count the table. *)
let reference_on = ref false

let reference () =
  let h = Lazy.force reference_table in
  let t0 = now () in
  let s = ref 0 in
  for i = 0 to 80_000 do
    match Hashtbl.find_opt h ((i * 31) land 4095 * 7919) with
    | Some (a, _) -> s := !s + a
    | None -> ()
  done;
  ignore (Sys.opaque_identity !s);
  let t = now () -. t0 in
  reference_samples := t :: !reference_samples;
  t

(* Each pass starts from a compacted heap, as a fresh process would.
   With [~sample] the cells are scaled to the reference speed; traced
   rounds leave the reference out, so the phases' wall time is the
   layers' time. *)
let run_cells ~sample phase cells f =
  Gc.compact ();
  let sample = sample && !reference_on in
  span ("phase." ^ phase) (fun () ->
      let before = ref (if sample then reference () else Float.nan) in
      let since = ref (now ()) in
      let pending = ref [] and done_ = ref [] in
      let close_segment () =
        let after = if sample then reference () else Float.nan in
        let scale = reference_nominal_s /. ((!before +. after) /. 2.) in
        done_ := List.map (fun c -> { c with scaled = c.time *. scale }) !pending @ !done_;
        pending := [];
        before := after;
        since := now ()
      in
      List.iter
        (fun (nf, (tname, lnic), x) ->
          let label = Printf.sprintf "%s:%s@%s" phase nf tname in
          Sp.set_cell tr label;
          let c0 = now () in
          let out = span "cell" (fun () -> f lnic x) in
          let c1 = now () in
          pending := { label; nf; tname; time = c1 -. c0; scaled = Float.nan; out } :: !pending;
          if c1 -. !since >= segment_s then close_segment ())
        cells;
      if !pending <> [] then close_segment ();
      Array.of_list (List.rev !done_))

let cells nfs = List.concat_map (fun (nf, x) -> List.map (fun t -> (nf, t, x)) targets) nfs
let corpus_cells = cells (List.map (fun (e : Corpus.entry) -> (e.name, e)) Corpus.all)

let run_round ~traced ~profile ~trace ~prefix ~sources ~sim_cells =
  Sp.set_enabled tr traced;
  reference_samples := [];
  let t0 = now () in
  let run_cells ph cells f = run_cells ~sample:(not traced) ph cells f in
  let preds =
    run_cells "predict" corpus_cells (fun lnic e ->
        predict_cell ~profile ~trace:prefix lnic e.Corpus.source)
  in
  let sim_runs =
    List.init sim_passes (fun _ ->
        run_cells "sim" sim_cells (fun lnic e -> sim_cell ~trace lnic e))
  in
  let static_cells = cells (List.map (fun s -> (s.sname, s)) sources) in
  let static_runs =
    List.init static_passes (fun _ ->
        run_cells "static" static_cells (fun lnic s -> static_cell ~profile lnic s))
  in
  let wall = now () -. t0 in
  Sp.set_enabled tr false;
  let bp = Buffer.create 4096 and bs = Buffer.create 4096 and bt = Buffer.create 4096 in
  Array.iter (fun c -> digest_pred bp c.out) preds;
  List.iter (Array.iter (fun c -> digest_sim bs c.out)) sim_runs;
  List.iter (Array.iter (fun c -> digest_static bt c.out)) static_runs;
  let reference_ms =
    match !reference_samples with [] -> Float.nan | xs -> 1e3 *. Stat.median xs
  in
  { traced; wall; preds; sim_all = sim_runs; static_all = static_runs;
    digests = (hex bp, hex bs, hex bt); reference_ms }

(* ---- host fingerprint ------------------------------------------------- *)

(* The checkout's commit when it is a git work tree, read from .git
   without running git; "unknown" otherwise. *)
let git_commit () =
  let read_line p = String.trim (read_file p) in
  try
    let head = read_line ".git/HEAD" in
    match String.split_on_char ' ' head with
    | [ "ref:"; r ] -> (
        let loose = Filename.concat ".git" r in
        if Sys.file_exists loose then read_line loose
        else
          read_file ".git/packed-refs" |> String.split_on_char '\n'
          |> List.find_map (fun l ->
                 match String.split_on_char ' ' l with
                 | [ sha; name ] when name = r -> Some sha
                 | _ -> None)
          |> Option.value ~default:"unknown")
    | _ -> head
  with Sys_error _ -> "unknown"

(* ---- metrics ---------------------------------------------------------- *)

let packets_of (r : Eng.result) = r.summary.packets + r.summary.drops

(* Per cell, the median of [time] over every pass. *)
let cell_median time passes =
  let first = List.hd passes in
  Array.mapi (fun i c -> (c, Stat.median (List.map (fun p -> time p.(i)) passes))) first

(* Work per second over the cells that succeeded: [work] of a cell's
   output over the sum of their median times. *)
let rate time passes work =
  let w, t =
    Array.fold_left
      (fun (w, t) (c, m) ->
        match work c with Some x -> (w +. x, t +. m) | None -> (w, t))
      (0., 0.) (cell_median time passes)
  in
  w /. t

let bound_ratios r =
  Array.to_list (statics r)
  |> List.filter_map (fun c ->
         Option.bind c.out.bounds (fun b ->
             Option.bind (B.find b "all") (fun row ->
                 let lo = I.lo row.B.tb_total and hi = I.hi row.B.tb_total in
                 if I.is_finite row.B.tb_total && lo > 0. then Some (hi /. lo) else None)))

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* ---- output checks ----------------------------------------------------- *)

(* Operations of a round: every cell of every pass, or with [~distinct]
   every cell once. *)
let operations ?(distinct = false) ops r =
  let passes l = if distinct then [ List.hd l ] else l in
  let op c = function
    | Ok () -> Check.record ops (Ok ())
    | Error e -> Check.record ops (Error (c.label ^ ": " ^ e))
  in
  Array.iter (fun c -> op c (Result.map ignore c.out)) r.preds;
  List.iter (Array.iter (fun c -> op c (Result.map ignore c.out))) (passes r.sim_all);
  List.iter
    (Array.iter (fun c ->
         op c (Result.map_error (fun e -> "mapping: " ^ e) (Result.map ignore c.out.smap))))
    (passes r.static_all)

(* Runs the output checks into [checks]; returns, per runnable cell, the
   relative error of the whole trace's predicted mean against its
   simulated mean. *)
let run_checks checks ~profile ~trace ~prefix ~sources rounds =
  let r1 = List.hd rounds in
  let tag label = Result.map_error (fun e -> label ^ ": " ^ e) in
  let by_target tn = List.assoc tn targets in
  (* 1. the decomposed layer calls match Clara.analyze_for_profile. *)
  let entry c = Option.get (Corpus.find c.nf) in
  let sim_of c =
    Array.to_list (sims r1) |> List.find_opt (fun s -> s.nf = c.nf && s.tname = c.tname)
  in
  let errs = ref [] in
  Array.iter
    (fun c ->
      let e = entry c and lnic = by_target c.tname in
      let whole = Clara.analyze_for_profile lnic ~source:e.Corpus.source ~profile in
      (match (whole, Option.map (fun s -> s.out) (sim_of c)) with
      | Ok a, Some (Ok s) ->
          errs :=
            Stat.rel_err_pct ~predicted:(Clara.predict a trace).Lat.mean_cycles
              ~simulated:s.result.Eng.summary.mean_cycles
            :: !errs
      | _ -> ());
      let whole =
        Result.map
          (fun a -> (a.Clara.mapping.Mapping.objective_cycles, Clara.predict a prefix))
          whole
      in
      Check.record checks
        (tag c.label
           (match (c.out, whole) with
           | Ok o, Ok (obj, p) ->
               if Check.same_float o.objective obj then Check.same_prediction o.pred p
               else Error "mapping objective differs from Clara.analyze_for_profile"
           | Error _, Error _ -> Ok ()
           | Ok _, Error e -> Error ("Clara.analyze_for_profile failed: " ^ e)
           | Error e, Ok _ -> Error ("decomposed sequence failed: " ^ e)));
      (* 2. attribution totals equal the prediction. *)
      match c.out with
      | Ok o -> Check.record checks (tag c.label (Check.attribution_identity o.pred o.att))
      | Error _ -> ())
    r1.preds;
  (* 3. fast path = event path on stateless cells. *)
  Array.iter
    (fun c ->
      match c.out with
      | Ok o when o.stateless ->
          let ev = Eng.run ~fast:Eng.Event_only (by_target c.tname) (entry c).ported trace in
          Check.record checks (tag c.label (Check.same_sim_result o.result ev))
      | _ -> ())
    (sims r1);
  (* 4. broken sources lint with errors, the corpus without. *)
  Array.iter
    (fun c ->
      let src = List.find (fun s -> s.sname = c.nf) sources in
      Check.record checks
        (tag c.label (Check.lint_expectation ~broken:src.broken ~has_errors:c.out.has_errors)))
    (statics r1);
  (* 5. simulated per-type means inside the static intervals. *)
  Array.iter
    (fun c ->
      match c.out with
      | Error _ -> ()
      | Ok o ->
          let b =
            Array.to_list (statics r1)
            |> List.find_map (fun s ->
                   if s.nf = c.nf && s.tname = c.tname then s.out.bounds else None)
          in
          Check.record checks
            (tag c.label
               (match b with
               | None -> Error "no static bounds"
               | Some b -> (
                   match Check.bounds_violations b o.result.Eng.summary with
                   | [] -> Ok ()
                   | vs -> Error (String.concat "; " vs)))))
    (sims r1);
  (* 6. every round reproduced round 1's predictions and static
     results.  Simulator outputs are compared too but only reported:
     a ported program that keeps state in its closure across
     Engine.run calls drifts from round to round. *)
  Check.record checks
    (Check.expect "predict/static outputs differ between rounds"
       (List.for_all
          (fun r ->
            let p, _, t = r.digests and p1, _, t1 = r1.digests in
            p = p1 && t = t1)
          rounds));
  !errs

(* Sim cells whose result changed from one run to the next. *)
let unrepeatable_sims rounds =
  let runs = List.concat_map (fun r -> r.sim_all) rounds in
  let first = List.hd runs in
  Array.to_list first
  |> List.filteri (fun i c ->
         List.exists
           (fun run ->
             match (c.out, run.(i).out) with
             | Ok a, Ok b -> compare a.result b.result <> 0
             | Error _, Error _ -> false
             | _ -> true)
           runs)
  |> List.map (fun c -> c.label)

(* ---- per-layer split (traced rounds) ---------------------------------- *)

let layer_of_span n = n <> "cell" && not (String.starts_with ~prefix:"phase." n)

let target_of_cell cell =
  match String.rindex_opt cell '@' with
  | Some i -> String.sub cell (i + 1) (String.length cell - i - 1)
  | None -> ""

let per_layer ~setup_synth_ms ~unplaceable rounds spans =
  let traced = List.filter (fun r -> r.traced) rounds in
  let untraced = List.filter (fun r -> not r.traced) rounds in
  let nt = float_of_int (List.length traced) in
  let selfs = Sp.self_times spans in
  let root = Sp.root_of spans in
  (* Self ms per pass of phase [ph] in a traced round, of spans [name],
     optionally restricted to one target's cells. *)
  let ms ?target ph name =
    let passes =
      match ph with "phase.sim" -> sim_passes | "phase.static" -> static_passes | _ -> 1
    in
    List.fold_left
      (fun acc ((s : Sp.span), st) ->
        if s.name = name && (root s).name = ph
           && (match target with None -> true | Some t -> target_of_cell s.cell = t)
        then acc +. st
        else acc)
      0. selfs
    *. 1e3 /. (nt *. float_of_int passes)
  in
  let r1 = List.hd traced in
  let sum_static f = float_of_int (Array.fold_left (fun a c -> a + f c.out) 0 (statics r1)) in
  let m = ref [] in
  let add name unit v = m := (name, unit, v) :: !m in
  add "workload.synth_ms" "ms" setup_synth_ms;
  add "cir.lower_ms" "ms" (ms "phase.static" "cir.lower");
  add "cir.coarsen_ms" "ms" (ms "phase.static" "cir.coarsen");
  add "cir.blocks" "count" (sum_static (fun o -> o.blocks));
  add "analysis.lint_ms" "ms" (ms "phase.static" "analysis.lint");
  add "analysis.bounds_ms" "ms" (ms "phase.static" "analysis.bounds");
  add "analysis.diags" "count" (sum_static (fun o -> List.length o.diags));
  add "analysis.budget_exhausted" "count"
    (sum_static (fun o ->
         List.length (List.filter (fun d -> d.Diag.code = "CLARA204") o.diags)));
  add "dataflow.build_ms" "ms" (ms "phase.static" "dataflow.build");
  add "dataflow.nodes" "count" (sum_static (fun o -> o.nodes));
  add "mapping.map_ms" "ms" (ms "phase.static" "mapping.map");
  add "ilp.simplex.pivots" "count" (sum_static (fun o -> let p, _, _ = o.ilp in p));
  add "ilp.bb.nodes" "count" (sum_static (fun o -> let _, n, _ = o.ilp in n));
  add "ilp.bb.cutoff_prunes" "count" (sum_static (fun o -> let _, _, c = o.ilp in c));
  add "mapping.errors" "count" (sum_static (fun o -> if Result.is_error o.smap then 1 else 0));
  List.iter
    (fun (tn, _) ->
      let k s = Printf.sprintf "predict.%s.%s" s tn in
      let walk = ms ~target:tn "phase.predict" "predict.walk"
      and attr = ms ~target:tn "phase.predict" "predict.attribute" in
      add (k "create_ms") "ms" (ms ~target:tn "phase.predict" "predict.create");
      add (k "walk_ms") "ms" walk;
      add (k "attribute_ms") "ms" attr;
      add (k "queueing_ms") "ms" (ms ~target:tn "phase.predict" "predict.queueing");
      let cells = List.length Corpus.all in
      add (k "ns_per_pkt") "ns" ((walk +. attr) *. 1e6 /. float_of_int (cells * predict_packets)))
    targets;
  (* nicsim, from the first pass of the traced rounds: event- and
     fast-path cells apart. *)
  let sim_spans =
    List.filter_map
      (fun ((s : Sp.span), st) ->
        if s.name = "nicsim.run" && (root s).name = "phase.sim" then Some (s.cell, st) else None)
      selfs
  in
  let cells_time pred =
    List.fold_left (fun a (cell, st) -> if pred cell then a +. st else a) 0. sim_spans
  in
  let ok_sims = Array.to_list (sims r1) |> List.filter_map (fun c ->
      match c.out with Ok o -> Some (c.label, o) | Error _ -> None) in
  let stateless l = List.exists (fun (l', o) -> l' = l && o.stateless) ok_sims in
  let runnable l = List.mem_assoc l ok_sims in
  let pk pred = List.fold_left (fun a (l, o) -> if pred l then a + packets_of o.result else a) 0 ok_sims in
  let rounds_passes = nt *. float_of_int sim_passes in
  let ns_per pred =
    1e9 *. cells_time (fun l -> runnable l && pred l)
    /. (rounds_passes *. float_of_int (pk pred))
  in
  add "nicsim.event_ns_per_pkt" "ns" (ns_per (fun l -> not (stateless l)));
  add "nicsim.fast_ns_per_pkt" "ns" (ns_per stateless);
  let fsum f = List.fold_left (fun a (_, o) -> a + f o.result.Eng.fast) 0 ok_sims in
  let replayed = fsum (fun f -> f.Clara_nicsim.Fastpath.replayed)
  and executed =
    List.fold_left
      (fun a (_, o) -> if o.stateless then a + o.result.Eng.fast.Clara_nicsim.Fastpath.executed else a)
      0 ok_sims
  in
  add "nicsim.fast.replay_ratio" "ratio" (Stat.ratio (float_of_int replayed) (float_of_int (replayed + executed)));
  add "nicsim.fast.poisoned" "count" (float_of_int (fsum (fun f -> f.Clara_nicsim.Fastpath.poisoned)));
  add "nicsim.unplaceable_cells" "count" (float_of_int unplaceable);
  add "nicsim.drops" "count"
    (float_of_int (List.fold_left (fun a (_, o) -> a + o.result.Eng.summary.drops) 0 ok_sims));
  let mean_rate f =
    let xs = List.filter_map (fun (_, o) -> let x = f o.result in if Float.is_nan x then None else Some x) ok_sims in
    if xs = [] then 0. else List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
  in
  add "nicsim.emem_hit_rate" "ratio" (mean_rate (fun r -> r.Eng.emem_hit_rate));
  add "nicsim.flow_cache_hit_rate" "ratio" (mean_rate (fun r -> r.Eng.flow_cache_hit_rate));
  (* Coverage of each phase's wall time by layer self time, and the
     cost of tracing. *)
  let phases = Sp.phases spans in
  List.iter
    (fun ph ->
      add (Printf.sprintf "%s.coverage_pct" ph.Sp.ph_name) "%"
        (100. *. Sp.coverage ~is_layer:layer_of_span ph))
    phases;
  (* A round's time at each cell's median, traced against untraced. *)
  let round_ms rs =
    let sum passes =
      Array.fold_left (fun a (_, t) -> a +. t) 0. (cell_median (fun c -> c.time) passes)
    in
    1e3
    *. (sum (List.map (fun r -> r.preds) rs)
       +. (float_of_int sim_passes *. sum (List.concat_map (fun r -> r.sim_all) rs))
       +. (float_of_int static_passes *. sum (List.concat_map (fun r -> r.static_all) rs)))
  in
  let t_ms = round_ms traced and u_ms = round_ms untraced in
  add "trace.overhead_ms" "ms" (t_ms -. u_ms);
  add "trace.overhead_pct" "%" (100. *. (t_ms -. u_ms) /. u_ms);
  (List.rev !m, phases)

(* ---- main ---------------------------------------------------------------- *)

let json_metric (name, unit, v) =
  Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (Clara_util.Json.to_string (Clara_util.Json.Float v)) unit

let () =
  let wl =
    match List.find_opt (fun w -> w.wname = !workload_arg) workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "perfbench: unknown workload %S (expected %s)\n" !workload_arg
          (String.concat "|" (List.map (fun w -> w.wname) workloads));
        exit 2
  in
  let traced_run = !trace_arg = 1 in
  let seed = Int64.of_int !seed_arg in
  Printf.printf
    "perfbench workload=%s seed=%d seconds=%d trace=%d packets/cell: predict %d, sim %d\n%!"
    wl.wname !seed_arg !seconds_arg !trace_arg predict_packets packets;
  Printf.printf "host: nproc=%d ocaml=%s commit=%s\n%!" (Domain.recommended_domain_count ())
    Sys.ocaml_version (git_commit ());
  (* Set-up: load the sources and synthesize the trace, before the first
     timed cell and again, between reference samples, after every later
     round; setup_s is the median of the repeats. *)
  let setup i =
    Sp.set_enabled tr traced_run;
    Sp.set_cell tr (Printf.sprintf "setup#%d" i);
    let t0 = now () in
    let v =
      span "phase.setup" (fun () ->
          let sources = span "workload.load" load_sources in
          let trace = span "workload.synth" (fun () -> W.Trace.synthesize ~seed wl.profile) in
          (sources, trace, W.Trace.truncate trace predict_packets))
    in
    Sp.set_enabled tr false;
    (v, now () -. t0)
  in
  let (sources, trace, prefix), _ = setup 0 in
  let unplaceable =
    List.filter_map
      (fun (nf, (tname, lnic), e) ->
        Option.map (fun why -> (nf, tname, why)) (placement_error lnic e))
      corpus_cells
  in
  let sim_cells =
    List.filter
      (fun (nf, (tname, _), _) ->
        not (List.exists (fun (nf', tname', _) -> nf' = nf && tname' = tname) unplaceable))
      corpus_cells
  in
  (* Each repeat is scaled like a cell, by the reference samples around it. *)
  let setups = ref [] in
  let setup_again i =
    let before = reference () in
    let (_, again, _), t = setup i in
    let after = reference () in
    if compare again.W.Trace.packets trace.W.Trace.packets <> 0 then
      failwith "trace synthesis is not deterministic";
    setups := (t, t *. reference_nominal_s /. ((before +. after) /. 2.)) :: !setups
  in
  (* Timed rounds. *)
  let budget = float_of_int !seconds_arg in
  (* Two rounds at least: the first is a warm-up whose outputs the checks
     read, and a traced run needs one untraced and one traced round. *)
  let min_rounds = 2 in
  let round i =
    run_round ~traced:(traced_run && i mod 2 = 1) ~profile:wl.profile ~trace ~prefix ~sources
      ~sim_cells
  in
  let r1 = round 0 in
  (* Read after the first round, before the reference table exists, the
     peak depends on the seed only. *)
  let heap_mb = peak_heap_mb () in
  reference_on := true;
  let round i =
    let r = round i in
    setup_again i;
    r
  in
  (* Rounds run while the next one, at the mean round time so far, still
     fits in the budget. *)
  let rec go acc elapsed i =
    if i >= min_rounds && elapsed *. float_of_int (i + 1) /. float_of_int i > budget then
      List.rev acc
    else
      let r = round i in
      go (r :: acc) (elapsed +. r.wall) (i + 1)
  in
  let rounds = go [ r1 ] r1.wall 1 in
  let untraced = List.filter (fun r -> not r.traced) rounds in
  let ops = Check.ledger () and checks = Check.ledger () in
  List.iter (operations ops) rounds;
  let pred_errs = run_checks checks ~profile:wl.profile ~trace ~prefix ~sources rounds in
  (* Failed operations, each cell once: every pass fails the same cells
     (check 6 holds them). *)
  let ops1 = Check.ledger () in
  operations ~distinct:true ops1 r1;
  let n_pred = Array.length r1.preds in
  let dp, ds, dt = r1.digests in
  Printf.printf "cells: predict %d (p70 leaves %d beyond), sim %d, static %d; rounds %d\n"
    n_pred (Stat.beyond ~n:n_pred 70.) (Array.length (sims r1)) (Array.length (statics r1))
    (List.length rounds);
  Printf.printf "digest: all=%s predict=%s sim=%s static=%s\n"
    (Digest.to_hex (Digest.string (dp ^ ds ^ dt))) dp ds dt;
  Printf.printf "reference: median ms per round %s (nominal %.1f ms)\n"
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.2f" r.reference_ms) (List.tl rounds)))
    (1e3 *. reference_nominal_s);
  (* Host-time figures of the untraced rounds after the first, measured
     or at the reference speed. *)
  let host_times ~scaled =
    let time c = if scaled then c.scaled else c.time in
    let setup (measured, at_reference) = if scaled then at_reference else measured in
    let rounds = List.tl untraced in
    let pred_passes = List.map (fun r -> r.preds) rounds in
    let pred_cell_ms =
      Array.to_list (Array.map (fun (_, m) -> 1e3 *. m) (cell_median time pred_passes))
    in
    let predicted c = if Result.is_ok c.out then Some (float_of_int predict_packets) else None in
    let simulated c =
      Result.to_option (Result.map (fun o -> float_of_int (packets_of o.result)) c.out)
    in
    [ ("predict_pps", "pkt/s", rate time pred_passes predicted);
      ("predict_p50_ms", "ms", Stat.percentile pred_cell_ms 50.);
      ("predict_p70_ms", "ms", Stat.percentile pred_cell_ms 70.);
      ("sim_pps", "pkt/s", rate time (List.concat_map (fun r -> r.sim_all) rounds) simulated);
      ( "static_cells_per_s", "cells/s",
        rate time (List.concat_map (fun r -> r.static_all) rounds) (fun _ -> Some 1.) );
      ("setup_s", "s", Stat.median (List.map setup !setups)) ]
  in
  let metrics =
    if not traced_run then begin
      List.iter
        (fun (n, u, v) -> Printf.printf "measured %-28s %14.6g %s\n" n v u)
        (host_times ~scaled:false);
      let scaled = host_times ~scaled:true in
      let host n = List.find (fun (n', _, _) -> n' = n) scaled in
      [ host "predict_pps";
        host "predict_p50_ms";
        host "predict_p70_ms";
        host "sim_pps";
        ("pred_err_p50_pct", "%", Stat.median pred_errs);
        host "static_cells_per_s";
        ("bound_ratio_p50", "ratio", Stat.median (bound_ratios r1));
        host "setup_s";
        ("peak_heap_mb", "MB", heap_mb) ]
    end
    else begin
      let spans = Sp.spans tr in
      let synth_ms =
        1e3
        *. Stat.median
             (List.filter_map
                (fun (s : Sp.span) -> if s.name = "workload.synth" then Some (Sp.duration s) else None)
                spans)
      in
      let m, phases =
        per_layer ~setup_synth_ms:synth_ms ~unplaceable:(List.length unplaceable) rounds spans
      in
      List.iter
        (fun ph ->
          Printf.printf "phase %s: wall %.1f ms\n" ph.Sp.ph_name (1e3 *. ph.Sp.ph_wall);
          List.iter
            (fun (n, v) ->
              Printf.printf "  %-20s self %9.1f ms  %5.1f%%\n" n (1e3 *. v)
                (100. *. v /. ph.Sp.ph_wall))
            ph.Sp.ph_self)
        phases;
      (try
         if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
         let file =
           Filename.concat spans_dir (Printf.sprintf "spans-%s-%d.json" wl.wname !seed_arg)
         in
         let oc = open_out_bin file in
         output_string oc (Sp.to_chrome_json spans);
         close_out oc;
         Printf.printf "spans: %d written to %s\n" (List.length spans) file
       with Sys_error e -> Printf.printf "spans: not written (%s)\n" e);
      m
    end
  in
  List.iter (fun (n, u, v) -> Printf.printf "metric %-32s %14.6g %s\n" n v u) metrics;
  List.iter
    (fun (nf, tname, why) ->
      Printf.printf "not simulated, the target cannot hold the port: sim:%s@%s: %s\n" nf tname why)
    unplaceable;
  List.iter (fun f -> Printf.printf "failed operation: %s\n" f) (Check.failures ops1);
  List.iter (fun f -> Printf.printf "FAILED CHECK: %s\n" f) (Check.failures checks);
  (match unrepeatable_sims rounds with
  | [] -> ()
  | cells ->
      Printf.printf "warning: sim results not repeatable within one process: %s\n"
        (String.concat " " cells));
  let correct = checks.failed = 0 in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" correct
    (ops.attempted + checks.attempted) (ops.failed + checks.failed)
    (String.concat "," (List.map json_metric metrics));
  if not correct then exit 1
