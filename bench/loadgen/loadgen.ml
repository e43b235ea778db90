(* Load generator for [facade_cli serve].

   Simulated clients are state machines, not threads: each tenant gets
   one driver thread and one connection, multiplexing as many logical
   clients as asked (thousands are cheap — the protocol is
   submit-then-poll, so a driver sweep services every client in turn).
   Two phases, after a warmup run that pays the tier-2 compile:

   - closed loop: [--clients] logical clients per tenant, each keeping
     exactly one job in flight until it has completed [--requests];
     latency is submit-to-completion-observed.
   - open loop: submissions arrive at [--rate] per second per tenant for
     [--duration] seconds regardless of completions; latency is measured
     from the *scheduled* arrival, so a saturated server shows queueing
     delay instead of coordinated omission.

   Emits BENCH_service.json (p50/p90/p99 latency, throughput, per-tenant
   and aggregate counts, warm-tier check) and exits non-zero if any
   post-warmup job recompiled (the shared warm tier must make repeats
   free) or if [--probe-overquota] did not draw a structured
   quota rejection. *)

let socket_path = ref "facade.sock"
let in_process = ref false
let pool_workers = ref 2
let runners = ref 2
let program = ref "pagerank"
let workers = ref 0
let tenants = ref "alpha,beta"
let clients = ref 50
let requests = ref 4
let rate = ref 200.0
let duration = ref 2.0
let job_pages = ref 0
let job_heap_mb = ref 0
let skip_open = ref false
let skip_closed = ref false
let probe_overquota = ref 0
let probe_tenant = ref "small"
let trace_dir = ref ""
let out_file = ref "BENCH_service.json"
let do_shutdown = ref false

let args =
  [
    ("--socket", Arg.Set_string socket_path, "PATH daemon socket (default facade.sock)");
    ("--in-process", Arg.Set in_process, " start the daemon inside this process");
    ("--pool-workers", Arg.Set_int pool_workers, "N in-process daemon pool size, at least 1");
    ("--runners", Arg.Set_int runners, "N in-process daemon runner threads");
    ("--program", Arg.Set_string program, "NAME sample to submit (default pagerank)");
    ("--workers", Arg.Set_int workers, "N per-job worker request (0 = sequential)");
    ("--tenants", Arg.Set_string tenants, "A,B comma-separated tenant names");
    ("--clients", Arg.Set_int clients, "N closed-loop logical clients per tenant");
    ("--requests", Arg.Set_int requests, "N requests per closed-loop client");
    ("--rate", Arg.Set_float rate, "R open-loop arrivals/s per tenant");
    ("--duration", Arg.Set_float duration, "S open-loop phase length in seconds");
    ("--job-pages", Arg.Set_int job_pages, "N explicit per-job page ask (0 = server default)");
    ("--job-heap-mb", Arg.Set_int job_heap_mb, "MB explicit per-job heap ask");
    ("--skip-open", Arg.Set skip_open, " skip the open-loop phase");
    ("--skip-closed", Arg.Set skip_closed, " skip the closed-loop phase");
    ( "--probe-overquota",
      Arg.Set_int probe_overquota,
      "PAGES submit one PAGES-page ask for --probe-tenant and require a quota rejection" );
    ("--probe-tenant", Arg.Set_string probe_tenant, "NAME tenant for the over-quota probe");
    ("--trace-dir", Arg.Set_string trace_dir, "DIR per-tenant trace export (in-process only)");
    ("--out", Arg.Set_string out_file, "FILE output JSON (default BENCH_service.json)");
    ("--shutdown", Arg.Set do_shutdown, " send Shutdown to the daemon when done");
  ]

let usage = "loadgen: drive a facade_cli serve daemon with simulated tenants"

(* {2 Measurement} *)

type phase_stats = {
  mutable completed : int;
  mutable rejected : int;
  mutable failed : int;
  mutable latencies : float list;  (* seconds *)
  mutable compiles : int;  (* tier-2 compiles reported by completed jobs *)
  mutable recompiles : int;
  mutable t_start : float;
  mutable t_end : float;
}

let fresh_stats () =
  {
    completed = 0;
    rejected = 0;
    failed = 0;
    latencies = [];
    compiles = 0;
    recompiles = 0;
    t_start = 0.;
    t_end = 0.;
  }

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1 |> max 0))

let summary st =
  let sorted = Array.of_list st.latencies in
  Array.sort compare sorted;
  let wall = st.t_end -. st.t_start in
  let thr = if wall > 0. then float_of_int st.completed /. wall else 0. in
  ( percentile sorted 0.50 *. 1e3,
    percentile sorted 0.90 *. 1e3,
    percentile sorted 0.99 *. 1e3,
    thr )

let note_outcome st t0 (oc : Service.Proto.outcome) =
  st.completed <- st.completed + 1;
  st.latencies <- (Unix.gettimeofday () -. t0) :: st.latencies;
  st.compiles <- st.compiles + oc.Service.Proto.oc_tier2_compiles;
  st.recompiles <- st.recompiles + oc.Service.Proto.oc_tier2_recompiles

let submission tenant =
  {
    Service.Proto.sb_tenant = tenant;
    sb_prog = Sample !program;
    sb_entry = "";
    sb_workers = !workers;
    sb_pages = !job_pages;
    sb_heap_bytes = !job_heap_mb lsl 20;
  }

(* {2 Closed loop} *)

type client_state = {
  mutable outstanding : (int * float) option;  (* job id, submit time *)
  mutable remaining : int;
}

let closed_loop_driver tenant st =
  let conn = Service.Client.connect !socket_path in
  let cs = Array.init !clients (fun _ -> { outstanding = None; remaining = !requests }) in
  st.t_start <- Unix.gettimeofday ();
  let live () =
    Array.exists (fun c -> c.outstanding <> None || c.remaining > 0) cs
  in
  while live () do
    let progress = ref false in
    Array.iter
      (fun c ->
        match c.outstanding with
        | Some (id, t0) -> (
            match Service.Client.poll conn id with
            | `Pending -> ()
            | `Outcome oc ->
                note_outcome st t0 oc;
                c.outstanding <- None;
                c.remaining <- c.remaining - 1;
                progress := true
            | `Failed _ ->
                st.failed <- st.failed + 1;
                c.outstanding <- None;
                c.remaining <- c.remaining - 1;
                progress := true
            | `Error m -> failwith ("loadgen: poll error: " ^ m))
        | None when c.remaining > 0 -> (
            match Service.Client.submit conn (submission tenant) with
            | Ok id ->
                progress := true;
                c.outstanding <- Some (id, Unix.gettimeofday ())
            | Error (`Rejected rj)
              when rj.Service.Proto.rj_code = "tenant_inflight"
                   || rj.Service.Proto.rj_code = "queue_full"
                   || ((rj.Service.Proto.rj_code = "quota_pages"
                       || rj.Service.Proto.rj_code = "quota_heap")
                      && rj.Service.Proto.rj_used > 0) ->
                (* Backpressure, not failure: the quota or queue is
                   momentarily full of this tenant's own work, so a
                   closed-loop client just waits for a slot (the sweep
                   delay throttles retries). A quota rejection with
                   [used = 0] means the ask can never fit and stays
                   terminal. *)
                ()
            | Error (`Rejected _) ->
                progress := true;
                st.rejected <- st.rejected + 1;
                c.remaining <- c.remaining - 1
            | Error (`Error m) -> failwith ("loadgen: submit error: " ^ m))
        | None -> ())
      cs;
    if not !progress then Thread.delay 0.0005
  done;
  st.t_end <- Unix.gettimeofday ();
  Service.Client.close conn

(* {2 Open loop} *)

let open_loop_driver tenant st =
  let conn = Service.Client.connect !socket_path in
  let interval = 1.0 /. !rate in
  let outstanding : (int, float) Hashtbl.t = Hashtbl.create 256 in
  st.t_start <- Unix.gettimeofday ();
  let t_stop = st.t_start +. !duration in
  let next_arrival = ref st.t_start in
  let finished = ref false in
  while not !finished do
    let now = Unix.gettimeofday () in
    (* Fire every arrival whose scheduled time has passed; latency is
       anchored to the schedule, not the (possibly late) send. *)
    while !next_arrival <= now && !next_arrival < t_stop do
      let scheduled = !next_arrival in
      next_arrival := !next_arrival +. interval;
      match Service.Client.submit conn (submission tenant) with
      | Ok id -> Hashtbl.replace outstanding id scheduled
      | Error (`Rejected _) -> st.rejected <- st.rejected + 1
      | Error (`Error m) -> failwith ("loadgen: submit error: " ^ m)
    done;
    let done_ids = ref [] in
    Hashtbl.iter
      (fun id t0 ->
        match Service.Client.poll conn id with
        | `Pending -> ()
        | `Outcome oc ->
            note_outcome st t0 oc;
            done_ids := id :: !done_ids
        | `Failed _ ->
            st.failed <- st.failed + 1;
            done_ids := id :: !done_ids
        | `Error m -> failwith ("loadgen: poll error: " ^ m))
      outstanding;
    List.iter (Hashtbl.remove outstanding) !done_ids;
    if Unix.gettimeofday () >= t_stop && Hashtbl.length outstanding = 0 then
      finished := true
    else if !done_ids = [] then Thread.delay 0.0005
  done;
  st.t_end <- Unix.gettimeofday ();
  Service.Client.close conn

(* {2 JSON output} *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let phase_json name per_tenant =
  let tenant_objs =
    List.map
      (fun (tenant, st) ->
        let p50, p90, p99, thr = summary st in
        Printf.sprintf
          "      {\"tenant\": \"%s\", \"completed\": %d, \"rejected\": %d, \
           \"failed\": %d, \"p50_ms\": %.3f, \"p90_ms\": %.3f, \"p99_ms\": %.3f, \
           \"throughput_jps\": %.2f}"
          (json_escape tenant) st.completed st.rejected st.failed p50 p90 p99 thr)
      per_tenant
  in
  let all_lat = List.concat_map (fun (_, st) -> st.latencies) per_tenant in
  let sorted = Array.of_list all_lat in
  Array.sort compare sorted;
  let t0 = List.fold_left (fun a (_, st) -> min a st.t_start) infinity per_tenant in
  let t1 = List.fold_left (fun a (_, st) -> max a st.t_end) 0. per_tenant in
  let completed = List.fold_left (fun a (_, st) -> a + st.completed) 0 per_tenant in
  let thr = if t1 > t0 then float_of_int completed /. (t1 -. t0) else 0. in
  Printf.sprintf
    "  \"%s\": {\n\
    \    \"completed\": %d,\n\
    \    \"p50_ms\": %.3f,\n\
    \    \"p90_ms\": %.3f,\n\
    \    \"p99_ms\": %.3f,\n\
    \    \"throughput_jps\": %.2f,\n\
    \    \"tenants\": [\n%s\n    ]\n  }"
    name completed
    (percentile sorted 0.50 *. 1e3)
    (percentile sorted 0.90 *. 1e3)
    (percentile sorted 0.99 *. 1e3)
    thr
    (String.concat ",\n" tenant_objs)

let tenant_report_json (r : Service.Proto.tenant_report) =
  Printf.sprintf
    "    {\"tenant\": \"%s\", \"done\": %d, \"failed\": %d, \"rejected\": %d, \
     \"peak_pages\": %d, \"peak_heap_bytes\": %d, \"quota_pages\": %d, \
     \"quota_heap_bytes\": %d, \"total_steps\": %d, \"total_records\": %d}"
    (json_escape r.Service.Proto.tn_name)
    r.tn_done r.tn_failed r.tn_rejected r.tn_peak_pages r.tn_peak_heap r.tn_quota_pages
    r.tn_quota_heap r.tn_total_steps r.tn_total_records

let () =
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let tenant_names =
    String.split_on_char ',' !tenants |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if tenant_names = [] then failwith "loadgen: no tenants";
  if !pool_workers < 1 then begin
    Printf.eprintf "loadgen: --pool-workers must be at least 1, not %d\n" !pool_workers;
    exit 2
  end;
  let server =
    if not !in_process then None
    else
      Some
        (Service.Server.start
           {
             Service.Server.socket_path = !socket_path;
             pool_workers = !pool_workers;
             sched_config =
               { Service.Scheduler.default_config with c_runners = max 1 !runners };
             tenants = [];
             default_quota = Some Service.Tenant.default_quota;
             trace_dir = (if !trace_dir = "" then None else Some !trace_dir);
           })
  in
  let ctl = Service.Client.connect !socket_path in
  (* Warmup: one run pays the tier-2 compiles; everything after must hit
     the shared warm tier. *)
  let warmup_compiles =
    match Service.Client.submit ctl (submission (List.hd tenant_names)) with
    | Ok id -> (
        match Service.Client.wait_outcome ctl id with
        | Ok oc -> oc.Service.Proto.oc_tier2_compiles
        | Error m -> failwith ("loadgen: warmup failed: " ^ m))
    | Error (`Rejected rj) ->
        failwith ("loadgen: warmup rejected: " ^ Service.Proto.reject_message rj)
    | Error (`Error m) -> failwith ("loadgen: warmup error: " ^ m)
  in
  let run_phase driver =
    let per_tenant = List.map (fun t -> (t, fresh_stats ())) tenant_names in
    let threads =
      List.map (fun (t, st) -> Thread.create (fun () -> driver t st) ()) per_tenant
    in
    List.iter Thread.join threads;
    per_tenant
  in
  let closed = if !skip_closed then [] else run_phase closed_loop_driver in
  let opened = if !skip_open then [] else run_phase open_loop_driver in
  let probe =
    if !probe_overquota <= 0 then None
    else
      let ask =
        {
          (submission !probe_tenant) with
          Service.Proto.sb_pages = !probe_overquota;
        }
      in
      match Service.Client.submit ctl ask with
      | Ok _ -> Some (Error "over-quota probe was accepted")
      | Error (`Rejected rj) -> Some (Ok rj)
      | Error (`Error m) -> Some (Error m)
  in
  let reports =
    List.filter_map
      (fun t ->
        match Service.Client.tenant_report ctl t with Ok r -> Some r | Error _ -> None)
      (List.sort_uniq compare
         (tenant_names @ if !probe_overquota > 0 then [ !probe_tenant ] else []))
  in
  let srv_report = Service.Client.server_report ctl in
  if !do_shutdown then ignore (Service.Client.shutdown ctl);
  Service.Client.close ctl;
  Option.iter Service.Server.wait server;
  (* Aggregate the warm-tier check across both phases. *)
  let phase_compiles =
    List.fold_left (fun a (_, st) -> a + st.compiles) 0 (closed @ opened)
  in
  let phase_recompiles =
    List.fold_left (fun a (_, st) -> a + st.recompiles) 0 (closed @ opened)
  in
  let sections =
    (if closed = [] then [] else [ phase_json "closed_loop" closed ])
    @ (if opened = [] then [] else [ phase_json "open_loop" opened ])
    @ [
        Printf.sprintf
          "  \"warm_tier\": {\"warmup_compiles\": %d, \"phase_compiles\": %d, \
           \"phase_recompiles\": %d}"
          warmup_compiles phase_compiles phase_recompiles;
      ]
    @ (match probe with
      | None -> []
      | Some (Ok rj) ->
          [
            Printf.sprintf
              "  \"overquota_probe\": {\"tenant\": \"%s\", \"code\": \"%s\", \
               \"used\": %d, \"limit\": %d}"
              (json_escape !probe_tenant)
              (json_escape rj.Service.Proto.rj_code)
              rj.Service.Proto.rj_used rj.Service.Proto.rj_limit;
          ]
      | Some (Error m) ->
          [
            Printf.sprintf "  \"overquota_probe\": {\"tenant\": \"%s\", \"error\": \"%s\"}"
              (json_escape !probe_tenant) (json_escape m);
          ])
    @ [
        Printf.sprintf "  \"tenant_reports\": [\n%s\n  ]"
          (String.concat ",\n" (List.map tenant_report_json reports));
      ]
    @ (match srv_report with
      | Ok s ->
          [
            Printf.sprintf
              "  \"server\": {\"done\": %d, \"failed\": %d, \"rejected\": %d, \
               \"programs\": %d, \"pool_workers\": %d}"
              s.Service.Proto.sv_done s.sv_failed s.sv_rejected s.sv_programs
              s.sv_pool_workers;
          ]
      | Error _ -> [])
    @ [
        Printf.sprintf
          "  \"config\": {\"program\": \"%s\", \"workers\": %d, \"tenants\": %d, \
           \"clients\": %d, \"requests\": %d, \"rate\": %.1f, \"duration\": %.1f}"
          (json_escape !program) !workers (List.length tenant_names) !clients !requests
          !rate !duration;
      ]
  in
  let json = "{\n" ^ String.concat ",\n" sections ^ "\n}\n" in
  let oc = open_out !out_file in
  output_string oc json;
  close_out oc;
  print_string json;
  let warm_ok = phase_compiles = 0 && phase_recompiles = 0 in
  let probe_ok =
    match probe with
    | None -> true
    | Some (Ok rj) ->
        rj.Service.Proto.rj_code = "quota_pages" || rj.Service.Proto.rj_code = "quota_heap"
    | Some (Error _) -> false
  in
  if not warm_ok then prerr_endline "loadgen: FAIL: post-warmup jobs compiled tier-2 code";
  if not probe_ok then prerr_endline "loadgen: FAIL: over-quota probe was not rejected";
  exit (if warm_ok && probe_ok then 0 else 1)
