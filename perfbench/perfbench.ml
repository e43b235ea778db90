(* perfbench: the repository's end-to-end benchmark.

   perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                 [--daemon PATH-TO-facade_cli.exe]

   Runs one workload (vm-batch, serve-short, engines-churn; see
   README.md), checks every job's output against a reference, prints each
   metric by name with its unit, and ends with one JSON line:
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 the run is repeated
   with spans recorded around every call into a layer, and the metrics
   are the per-layer ones (spans are written to .bench_run/ at exit). *)

let workloads = [ "vm-batch"; "serve-short"; "engines-churn" ]

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload vm-batch|serve-short|engines-churn --seed N \
     --seconds S --trace 0|1 [--daemon FACADE_CLI]";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let daemon = ref "" in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; go rest
    | "--trace" :: v :: rest -> trace := int_of_string v; go rest
    | "--daemon" :: v :: rest -> daemon := v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if (not (List.mem !workload workloads)) || !seconds <= 0. || (!trace <> 0 && !trace <> 1)
  then usage ();
  (!workload, !seed, !seconds, !trace = 1, !daemon)

let run_dir = ".bench_run"

(* Metrics the traced run derives from its spans, for every workload. *)
let span_metrics (r : Util.result) =
  let self = Spans.self_by_layer () in
  Util.m "bench.failed_frac" "frac"
    (Util.ratio (float_of_int r.Util.failed) (float_of_int r.Util.attempted))
  :: List.map
       (fun l ->
         Util.m ("self_ms." ^ l) "ms"
           (1e3 *. Option.value ~default:0. (Hashtbl.find_opt self l)))
       Catalog.span_layers

(* Order [got] as [catalog] lists it; a catalog metric the workload did
   not report reads 0 (its layer did no work here). *)
let select catalog (got : Util.metric list) =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (x : Util.metric) -> x.Util.name = name) got with
      | Some x -> x
      | None -> Util.m name unit_ 0.)
    catalog

let () =
  let workload, seed, seconds, traced, daemon = parse_args () in
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
  let r =
    match workload with
    | "vm-batch" -> Vm_batch.run ~seed ~seconds ~traced
    | "serve-short" -> Serve_short.run ~daemon ~run_dir ~seed ~seconds ~traced
    | _ -> Engines_churn.run ~seed ~seconds ~traced
  in
  let metrics, catalog =
    if traced then (r.Util.layers @ span_metrics r, Catalog.per_layer)
    else (r.Util.e2e, Catalog.e2e)
  in
  let metrics = select catalog metrics in
  let finite = List.for_all (fun (x : Util.metric) -> Float.is_finite x.Util.value) metrics in
  if not finite then print_endline "CHECK FAILED: a metric is not a finite number";
  List.iter
    (fun (x : Util.metric) -> Printf.printf "%-32s %16.6f %s\n" x.Util.name x.Util.value x.Util.unit_)
    metrics;
  if traced then begin
    let path = Filename.concat run_dir (Printf.sprintf "spans-%s-%d.jsonl" workload seed) in
    Spans.write path;
    Printf.printf "spans written to %s\n" path
  end;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.Util.correct && finite) r.Util.attempted r.Util.failed
    (String.concat ", "
       (List.map
          (fun (x : Util.metric) ->
            Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.Util.name
              (if Float.is_finite x.Util.value then x.Util.value else 0.)
              x.Util.unit_)
          metrics))
