(* The traced run's span recorder.

   Spans are recorded by the benchmark's own code around its calls into
   each layer's public functions (the program's own tracer stays
   uninstalled). They are kept in memory and written out once, when the
   benchmark ends. A span has a name, a layer, start and end times, the
   span that caused it, and a request id shared by every span of one
   serve-short request (0 elsewhere). *)

type span = {
  id : int;
  name : string;
  layer : string;
  t0 : float;
  t1 : float;
  parent : int;  (* 0 = root *)
  req : int;
}

(* Reconciliation tolerances. In vm-batch and engines-churn the child
   spans must cover at least [1 - batch_tolerance] of every job span; in
   serve-short the server-reported queued and run times must fit between
   the client's send and the poll that observed the outcome, and after
   the last poll that still saw the job pending, within [serve_slack_s]. *)
let batch_tolerance = 0.05
let serve_slack_s = 0.001

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let current = ref 0  (* the innermost open span *)

let fresh () =
  incr next_id;
  !next_id

(* Record an already-finished span, built afterwards from timestamps
   and server-reported durations (serve-short's requests). *)
let add ?(parent = 0) ?(req = 0) ~layer name t0 t1 =
  let id = fresh () in
  spans := { id; name; layer; t0; t1; parent; req } :: !spans;
  id

(* Time [f] as a span under the innermost open span. *)
let with_span ~layer name f =
  if not !enabled then f ()
  else begin
    let id = fresh () and parent = !current in
    current := id;
    let t0 = Util.now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Util.now () in
        current := parent;
        spans := { id; name; layer; t0; t1; parent; req = 0 } :: !spans)
      f
  end

(* Length of the union of intervals (clipped to [lo, hi]). *)
let covered ~lo ~hi ivs =
  let ivs =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      ivs
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (tot, cur) (a, b) ->
        match cur with
        | None -> (tot, Some (a, b))
        | Some (ca, cb) when a <= cb -> (tot, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (tot +. (cb -. ca), Some (a, b)))
      (0., None) ivs
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

let children_of () =
  let tbl = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent <> 0 then Hashtbl.add tbl s.parent (s.t0, s.t1)) !spans;
  tbl

(* Self time per layer in seconds: each span's duration minus the part
   of it that its child spans cover, summed by layer. *)
let self_by_layer () =
  let kids = children_of () in
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let c = covered ~lo:s.t0 ~hi:s.t1 (Hashtbl.find_all kids s.id) in
      let self = s.t1 -. s.t0 -. c in
      Hashtbl.replace acc s.layer
        (self +. Option.value ~default:0. (Hashtbl.find_opt acc s.layer)))
    !spans;
  acc

(* The batch reconciliation: child spans must cover every span named
   [name] within [batch_tolerance]. Returns the number of spans that fall
   short, after printing the worst coverage. *)
let reconcile_jobs name (c : Util.checks) =
  let kids = children_of () in
  let cov =
    List.filter_map
      (fun s ->
        if s.name <> name || s.t1 <= s.t0 then None
        else
          Some (covered ~lo:s.t0 ~hi:s.t1 (Hashtbl.find_all kids s.id) /. (s.t1 -. s.t0)))
      !spans
  in
  let worst = List.fold_left Float.min 1. cov in
  let short = List.length (List.filter (fun x -> x < 1. -. batch_tolerance) cov) in
  Printf.printf "%s: child spans cover >= %.4f of every job span (tolerance %.2f)\n" name worst
    batch_tolerance;
  Util.check c (short = 0) "%s: %d job spans are not covered by their children" name short;
  short

(* Durations in ms of the spans named [name]. *)
let durations_ms name =
  List.filter_map
    (fun s -> if s.name = name then Some ((s.t1 -. s.t0) *. 1e3) else None)
    !spans

(* Write every span as one JSON object per line, oldest first. *)
let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"layer\":%S,\"start\":%.6f,\"end\":%.6f,\"parent\":%d,\"req\":%d}\n"
            s.id s.name s.layer s.t0 s.t1 s.parent s.req)
        (List.rev !spans))
