(* In-memory span recorder for the traced run.

   A span is one call into a layer: its name, the request (cell) it
   served, wall-clock start and end, and the id of the enclosing span.
   Spans stay in memory until the run ends, so recording costs a clock
   read and one allocation per call; a disabled recorder costs a branch. *)

type span = {
  id : int;
  name : string;
  cell : string;
  parent : int;  (** [-1] for a root span. *)
  start : float;  (** Seconds, from [clock]. *)
  stop : float;
}

type t = {
  clock : unit -> float;
  mutable enabled : bool;
  mutable next : int;
  mutable stack : int list;
  mutable cell : string;
  mutable done_ : span list;  (* newest first *)
}

let create ?(clock = Unix.gettimeofday) ~enabled () =
  { clock; enabled; next = 0; stack = []; cell = ""; done_ = [] }

let set_enabled t on = t.enabled <- on
let set_cell t cell = t.cell <- cell

let record t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    let cell = t.cell in
    t.stack <- id :: t.stack;
    let start = t.clock () in
    let finish () =
      let stop = t.clock () in
      t.stack <- List.tl t.stack;
      t.done_ <- { id; name; cell; parent; start; stop } :: t.done_
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let spans t = List.rev t.done_
let duration s = s.stop -. s.start

(* Self time: a span's duration minus the durations of its direct
   children, so the self times of a tree sum to its root's duration. *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value ~default:0. (Hashtbl.find_opt child s.parent) in
        Hashtbl.replace child s.parent (prev +. duration s))
    spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value ~default:0. (Hashtbl.find_opt child s.id)))
    spans

(* The root span enclosing [s]. *)
let root_of spans =
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let rec up s =
    if s.parent < 0 then s
    else match Hashtbl.find_opt by_id s.parent with Some p -> up p | None -> s
  in
  up

(* Per root name ("phase"): total wall time of its roots and, per span
   name below it, the summed self time.  Names are sorted. *)
type phase = {
  ph_name : string;
  ph_wall : float;
  ph_self : (string * float) list;
}

let phases spans =
  let root = root_of spans in
  let wall = Hashtbl.create 8 and self = Hashtbl.create 64 in
  let bump tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun (s, st) ->
      let r = root s in
      if s.parent < 0 then bump wall s.name (duration s)
      else bump self (r.name, s.name) st)
    (self_times spans);
  Hashtbl.fold (fun name w acc -> (name, w) :: acc) wall []
  |> List.sort compare
  |> List.map (fun (name, w) ->
         let rows =
           Hashtbl.fold
             (fun (ph, n) v acc -> if ph = name then (n, v) :: acc else acc)
             self []
           |> List.sort compare
         in
         { ph_name = name; ph_wall = w; ph_self = rows })

(* Share of a phase's wall time covered by the self time of the spans
   [is_layer] selects. *)
let coverage ~is_layer ph =
  let covered =
    List.fold_left
      (fun acc (n, v) -> if is_layer n then acc +. v else acc)
      0. ph.ph_self
  in
  Stat.ratio covered ph.ph_wall

(* Chrome trace-event JSON (loads in Perfetto): one complete event per
   span, the cell and parent id in [args]. *)
let to_chrome_json spans =
  let t0 = List.fold_left (fun m s -> Float.min m s.start) Float.infinity spans in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf
        "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\
         \"args\":{\"id\":%d,\"parent\":%d,\"cell\":%S}}"
        s.name
        (1e6 *. (s.start -. t0))
        (1e6 *. duration s)
        s.id s.parent s.cell)
    spans;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf
