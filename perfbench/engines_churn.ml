(* engines-churn: the three engines in facade mode, in process, on
   seeded inputs. One job is one round of a fixed sequence: GraphChi PSW
   pagerank, Hyracks word count, Hyracks external sort, GPS k-means, each
   at [workers = nproc] real domains with simulated I/O switched off
   ([io_scale = 0]).

   Record allocation into pages, iteration-scoped bulk release, heap
   simulator charging and the domain pool do the work; the compiler, the
   VM and the service are idle. *)

module PSW = Graphchi.Psw_engine
module Hyr = Hyracks.Engine
module P = Gps.Pregel
module WC = Hyracks.App_word_count
module ES = Hyracks.App_external_sort
module KM = Gps.App_kmeans

let vertices = 2_000
let edges = 10_000
let psw_iterations = 2
let text_bytes = 60_000
let points = 1_000
let dims = 4
let clusters = 8
let setups = 25

type inputs = {
  csr : Graphchi.Sharder.csr;
  corpus : Workloads.Text_gen.t;
  pts : Workloads.Points_gen.t;
}

let gen ~seed () =
  Spans.with_span ~layer:"workloads" "workloads.gen" (fun () ->
      let g = Workloads.Graph_gen.generate ~seed ~vertices ~edges in
      {
        csr = Graphchi.Sharder.build g;
        corpus = Workloads.Text_gen.generate ~seed:(seed + 1) ~bytes_target:text_bytes ();
        pts = Workloads.Points_gen.generate ~seed:(seed + 2) ~n:points ~dims ~clusters;
      })

(* [workers = None] is the engines' analytic path (the object-mode
   reference, and the facade run whose simulated clock has no measured
   wall time in it); [Some n] runs on n real domains. *)
let psw_cfg mode workers =
  let c = { (PSW.default_config mode) with PSW.iterations = psw_iterations } in
  match workers with None -> c | Some _ -> { c with PSW.workers; io_scale = 0. }

let hyr_cfg mode workers =
  let c = Hyr.default_config mode in
  match workers with None -> c | Some _ -> { c with Hyr.workers; io_scale = 0. }

let gps_cfg mode workers =
  let c = P.default_config mode in
  match workers with None -> c | Some _ -> { c with P.workers; io_scale = 0. }

type round = {
  psw : PSW.run_result;
  wc : WC.result Hyr.outcome;
  sort : ES.result Hyr.outcome;
  km : KM.result P.outcome;
  wall : float;
  cpu : float;
}

let round inp ~psw_mode ~hyr_mode ~gps_mode ~workers =
  Spans.with_span ~layer:"bench" "engines-churn.job" (fun () ->
      let t0 = Util.now () and c0 = Util.self_cpu () in
      let psw =
        Spans.with_span ~layer:"graphchi" "graphchi.psw" (fun () ->
            PSW.run (psw_cfg psw_mode workers) inp.csr Graphchi.Vertex_program.pagerank)
      in
      let wc =
        Spans.with_span ~layer:"hyracks" "hyracks.wc" (fun () ->
            WC.run (hyr_cfg hyr_mode workers) inp.corpus)
      in
      let sort =
        Spans.with_span ~layer:"hyracks" "hyracks.sort" (fun () ->
            ES.run (hyr_cfg hyr_mode workers) inp.corpus)
      in
      let km =
        Spans.with_span ~layer:"gps" "gps.kmeans" (fun () ->
            KM.run ~k:clusters (gps_cfg gps_mode workers) inp.pts)
      in
      { psw; wc; sort; km; wall = Util.now () -. t0; cpu = Util.self_cpu () -. c0 })

let facade_round inp ~workers =
  round inp ~psw_mode:PSW.Facade_mode ~hyr_mode:Hyr.Facade_mode ~gps_mode:P.Facade_mode ~workers

(* The answers a round computes; must equal the object-mode answers. *)
let answers r =
  ( Option.map Array.to_list r.psw.PSW.values,
    Option.map (fun (o : WC.result) -> o.WC.top) r.wc.Hyr.output,
    Option.map (fun (o : ES.result) -> o.ES.first) r.sort.Hyr.output,
    Option.map
      (fun (o : KM.result) -> Array.to_list (Array.map Array.to_list o.KM.centroids))
      r.km.P.output )

(* Counts that must repeat exactly from round to round. *)
let fingerprint r =
  let pm = r.psw.PSW.metrics and wm = r.wc.Hyr.metrics and sm = r.sort.Hyr.metrics in
  let km = r.km.P.metrics in
  ( ( pm.PSW.page_records,
      pm.PSW.pages_created,
      pm.PSW.sub_iterations,
      pm.PSW.minor_gcs,
      pm.PSW.major_gcs,
      pm.PSW.heap_objects_allocated,
      Int64.bits_of_float pm.PSW.gt ),
    ( wm.Hyr.page_records,
      wm.Hyr.pages_created,
      wm.Hyr.minor_gcs,
      wm.Hyr.heap_objects,
      Int64.bits_of_float wm.Hyr.gt ),
    ( sm.Hyr.page_records,
      sm.Hyr.pages_created,
      sm.Hyr.minor_gcs,
      sm.Hyr.heap_objects,
      Int64.bits_of_float sm.Hyr.gt ),
    (km.P.page_records, km.P.supersteps, km.P.minor_gcs, Int64.bits_of_float km.P.gt) )

let completed r =
  r.psw.PSW.metrics.PSW.completed && r.wc.Hyr.metrics.Hyr.completed
  && r.sort.Hyr.metrics.Hyr.completed && r.km.P.metrics.P.completed

type phase = {
  rounds : int;
  windows : Window.window list;
  first : round option;
  differ : int;  (* rounds whose answers differ from the first round's *)
  drift : int;  (* rounds whose deterministic counts differ *)
  parallel_wall : float;  (* time inside the engines' measured parallel batches *)
  engine_wall : float;
  engine_cpu : float;
  skews : float list;
}

(* max / mean records over the store threads that allocated *)
let skew per_thread =
  match List.filter (fun r -> r > 0) (List.map (fun (_, r, _) -> r) per_thread) with
  | [] -> 1.
  | rs ->
      let mx = List.fold_left max 0 rs in
      float_of_int mx /. (float_of_int (Util.sum_i rs) /. float_of_int (List.length rs))

let timed_phase inp ~workers ~seconds =
  let rounds = ref 0 and first = ref None in
  let w = Window.start ~cpu_now:Util.self_cpu in
  let differ = ref 0 and drift = ref 0 in
  let pwall = ref 0. and ewall = ref 0. and ecpu = ref 0. and skews = ref [] in
  let t_start = Util.now () in
  while Util.now () -. t_start < seconds do
    let t0 = Util.now () in
    let r = facade_round inp ~workers in
    Window.note w ((Util.now () -. t0) *. 1e3);
    incr rounds;
    pwall :=
      !pwall +. r.psw.PSW.metrics.PSW.wall_seconds +. r.wc.Hyr.metrics.Hyr.wall_seconds
      +. r.sort.Hyr.metrics.Hyr.wall_seconds +. r.km.P.metrics.P.wall_seconds;
    ewall := !ewall +. r.wall;
    ecpu := !ecpu +. r.cpu;
    skews :=
      List.fold_left Float.max 1.
        [
          skew r.psw.PSW.metrics.PSW.per_thread_records;
          skew r.wc.Hyr.metrics.Hyr.per_thread_records;
          skew r.km.P.metrics.P.per_thread_records;
        ]
      :: !skews;
    match !first with
    | None -> first := Some r
    | Some f ->
        if answers r <> answers f || not (completed r) then incr differ;
        if fingerprint r <> fingerprint f then incr drift
  done;
  {
    rounds = !rounds;
    windows = Window.finish w;
    first = !first;
    differ = !differ;
    drift = !drift;
    parallel_wall = !pwall;
    engine_wall = !ewall;
    engine_cpu = !ecpu;
    skews = !skews;
  }

let run ~seed ~seconds ~traced =
  let c = Util.checks () in
  let workers = Some (Util.nproc ()) in
  Spans.enabled := traced;
  (* Set-up: generate the inputs, then one warm-up round. *)
  let setup_s, inp =
    Util.repeat_setup setups (fun () ->
        Spans.with_span ~layer:"bench" "setup" (fun () ->
            let inp = gen ~seed () in
            ignore (facade_round inp ~workers);
            inp))
  in
  Util.check c (Util.reset_peak_rss ()) "engines-churn: could not reset the peak resident set";
  let untraced, traced_ph =
    if traced then begin
      Spans.enabled := false;
      let u = timed_phase inp ~workers ~seconds:(seconds /. 2.) in
      Spans.enabled := true;
      let t = timed_phase inp ~workers ~seconds:(seconds /. 2.) in
      Spans.enabled := false;
      (u, Some t)
    end
    else (timed_phase inp ~workers ~seconds, None)
  in
  let rss = Util.peak_rss_mb 0 in
  (* References, outside set-up and timing: the object-mode answers on
     the same inputs, and the analytic facade run for simulated time. *)
  let reference =
    round inp ~psw_mode:PSW.Object_mode ~hyr_mode:Hyr.Object_mode ~gps_mode:P.Object_mode
      ~workers:None
  in
  let analytic = facade_round inp ~workers:None in
  Util.check c (completed reference && completed analytic) "engines-churn: a reference run failed";
  let phases = untraced :: Option.to_list traced_ph in
  let attempted = Util.sum_i (List.map (fun p -> p.rounds) phases) in
  let failed =
    Util.sum_i
      (List.map
         (fun p ->
           match p.first with
           | Some f when answers f = answers reference && completed f -> p.differ
           | Some _ -> p.rounds
           | None -> 0)
         phases)
  in
  Util.check c (failed = 0) "engines-churn: %d of %d rounds disagree with object mode" failed
    attempted;
  List.iter
    (fun p ->
      Util.check c (p.drift = 0) "engines-churn: %d rounds' deterministic counts drifted" p.drift;
      Util.check c (p.first <> None) "engines-churn: no round completed")
    phases;
  let sum = Window.summarize untraced.windows in
  if not traced then Window.describe c ~label:"engines-churn" sum;
  let e2e = Window.e2e ~setup_s ~rss ~throughput:sum ~latency:sum in
  let layers =
    match traced_ph with
    | None -> []
    | Some t ->
        let r = Option.get t.first in
        let pm = r.psw.PSW.metrics and wm = r.wc.Hyr.metrics and sm = r.sort.Hyr.metrics in
        let km = r.km.P.metrics in
        let am = analytic in
        let med name = Util.median (Spans.durations_ms name) in
        let f = float_of_int in
        let violations = Spans.reconcile_jobs "engines-churn.job" c in
        let nw = f (Util.nproc ()) in
        Util.
          [
            m "workloads.gen_ms" "ms" (med "workloads.gen");
            m "pagestore.records_allocated" "count"
              (f (pm.PSW.page_records + wm.Hyr.page_records + sm.Hyr.page_records + km.P.page_records));
            m "pagestore.pages_created" "count"
              (f (pm.PSW.pages_created + wm.Hyr.pages_created + sm.Hyr.pages_created));
            m "heapsim.minor_gcs" "count"
              (f (pm.PSW.minor_gcs + wm.Hyr.minor_gcs + sm.Hyr.minor_gcs + km.P.minor_gcs));
            m "heapsim.major_gcs" "count"
              (f (pm.PSW.major_gcs + wm.Hyr.major_gcs + sm.Hyr.major_gcs + km.P.major_gcs));
            m "heapsim.objects_allocated" "count"
              (f (pm.PSW.heap_objects_allocated + wm.Hyr.heap_objects + sm.Hyr.heap_objects));
            m "heapsim.sim_gc_ms" "sim_ms"
              (1e3
              *. (am.psw.PSW.metrics.PSW.gt +. am.wc.Hyr.metrics.Hyr.gt
                 +. am.sort.Hyr.metrics.Hyr.gt +. am.km.P.metrics.P.gt));
            m "heapsim.sim_peak_heap_mb" "sim_MB"
              (List.fold_left Float.max 0.
                 [
                   am.psw.PSW.metrics.PSW.peak_memory_mb;
                   am.wc.Hyr.metrics.Hyr.peak_memory_mb;
                   am.sort.Hyr.metrics.Hyr.peak_memory_mb;
                   am.km.P.metrics.P.peak_memory_mb;
                 ]);
            m "engines.sim_et_s" "sim_s"
              (am.psw.PSW.metrics.PSW.et +. am.wc.Hyr.metrics.Hyr.et +. am.sort.Hyr.metrics.Hyr.et
             +. am.km.P.metrics.P.et);
            m "parallel.cpu_util" "ratio" (ratio t.engine_cpu (t.engine_wall *. nw));
            m "parallel.wait_frac" "frac" (1. -. ratio t.parallel_wall t.engine_wall);
            m "parallel.thread_skew" "ratio" (median t.skews);
            m "graphchi.run_ms" "ms" (med "graphchi.psw");
            m "graphchi.sub_iterations" "count" (f pm.PSW.sub_iterations);
            m "hyracks.wc_run_ms" "ms" (med "hyracks.wc");
            m "hyracks.sort_run_ms" "ms" (med "hyracks.sort");
            m "hyracks.sort_runs" "count"
              (match r.sort.Hyr.output with Some o -> f o.ES.runs | None -> 0.);
            m "gps.run_ms" "ms" (med "gps.kmeans");
            m "gps.supersteps" "count" (f km.P.supersteps);
            m "bench.job_p90_ms" "ms" (Window.summarize t.windows).Window.p90;
            m "bench.trace_overhead_frac" "frac"
              (1.
              -. (Window.summarize t.windows).Window.jobs_per_s
                 /. (Window.summarize untraced.windows).Window.jobs_per_s);
            m "bench.reconcile_violations" "count" (f violations);
          ]
        @ Probes.metrics ()
  in
  { Util.correct = c.Util.ok; attempted; failed; e2e; layers }
