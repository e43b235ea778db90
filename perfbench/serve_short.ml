(* serve-short: a separate [facade_cli serve] daemon serving two tenants
   a seeded mix of small named samples.

   Mostly [pagerank] (well under a millisecond of VM time per job), plus
   shares of [pagerank-par] at two workers (so the daemon's shared domain
   pool and the parallel VM path run too), [linked_list] and
   [collections]. Protocol, scheduling, admission and per-run set-up
   dominate; VM execution is a minor share.

   Load comes from this process: submissions go over one connection and
   polls over the other, from at most two threads. The daemon's peak
   resident set is read after set-up and a closed burst of a fixed
   number of jobs: the daemon keeps every finished job in its job table,
   so a read after the timed phases would grow with the throughput. Then
   three timed phases:
   - closed loop: [closed_per_tenant] jobs in flight per tenant, one
     thread, for the saturation throughput;
   - open loop at [open_rate], below saturation: a sender thread submits
     on a fixed schedule while a poller thread collects outcomes, so a
     slow poll never delays a send; latency is measured from each
     scheduled send, and the sender's lateness is recorded;
   - a fixed rate ladder, each rung open-loop, for the highest rate whose
     p99 stays under [p99_limit_ms] with no refusals and no growing
     backlog. *)

module C = Service.Client
module Pr = Service.Proto

let tenants = [| "alpha"; "beta" |]

(* sample name, per-job workers, share in percent *)
let mix =
  [ ("pagerank", 0, 85); ("pagerank-par", 2, 5); ("linked_list", 0, 5); ("collections", 0, 5) ]

(* [nproc] runners, the daemon's default on the reference host. With one
   runner every job queued behind a slow one waits for it: on the
   reference host whole one-runner runs read an open-loop p90 near 25 ms
   where others read about 2 ms. *)
let runners = Util.nproc ()
let closed_per_tenant = 4
let rss_burst_jobs = 2000
let open_rate = 300.
let ladder = [ 200.; 300.; 400.; 500.; 600.; 700.; 800.; 900.; 1000.; 1200. ]
let p99_limit_ms = 25.
let poll_interval = 0.0005  (* poller sleep after a sweep that finished nothing *)

(* Share of [--seconds] given to each untraced phase; a ladder rung gets
   [rung_share]. *)
let closed_share = 0.3
let open_share = 0.35
let rung_share = 0.03
let drain_timeout = 5.
let warmup_runs = 20
let setups = 9

(* {2 The daemon} *)

type daemon = { pid : int; sock : string }

(* Daemons started and not yet reaped; killed at exit if a run fails. *)
let live : daemon list ref = ref []

let reap d =
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  live := List.filter (fun x -> x != d) !live

let () =
  at_exit (fun () ->
      List.iter
        (fun d ->
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap d)
        !live)

let start_daemon ~exe ~run_dir k =
  let sock = Filename.concat run_dir (Printf.sprintf "serve-%d-%d.sock" (Unix.getpid ()) k) in
  let log = Filename.concat run_dir (Printf.sprintf "serve-%d.log" (Unix.getpid ())) in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  (* Quotas far above what the phases reach, so admission never refuses:
     a refusal would be a failed job, not back-pressure. *)
  let tenant_args =
    Array.to_list tenants
    |> List.concat_map (fun t -> [ "--tenant"; t ^ ":10000000:1000000:100000" ])
  in
  let args =
    Array.of_list
      ([
         exe; "serve"; "--socket"; sock; "--pool-workers"; string_of_int (Util.nproc ());
         "--runners"; string_of_int runners; "--max-queue"; "100000"; "--no-default-tenants";
       ]
      @ tenant_args)
  in
  let pid = Unix.create_process exe args Unix.stdin fd fd in
  Unix.close fd;
  let d = { pid; sock } in
  live := d :: !live;
  let deadline = Util.now () +. 30. in
  let rec wait () =
    match C.connect sock with
    | conn -> conn
    | exception Unix.Unix_error _ ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            live := List.filter (fun x -> x != d) !live;
            failwith ("serve-short: the daemon exited at start; see " ^ log));
        if Util.now () > deadline then failwith "serve-short: the daemon did not start";
        Unix.sleepf 0.002;
        wait ()
  in
  (d, wait ())

let stop_daemon d conn =
  ignore (C.shutdown conn);
  C.close conn;
  reap d

let submission tenant (name, workers, _) =
  {
    Pr.sb_tenant = tenant;
    sb_prog = Pr.Sample name;
    sb_entry = "";
    sb_workers = workers;
    sb_pages = 0;
    sb_heap_bytes = 0;
  }

(* Start a daemon and pay every program's compile and tier-2 warm-up:
   methods tier up after a few calls, not all on the first run, so each
   sample runs [warmup_runs] times and then until a run compiles
   nothing. *)
let setup ~exe ~run_dir k =
  let d, conn = start_daemon ~exe ~run_dir k in
  let run_once s =
    match C.submit conn (submission tenants.(0) s) with
    | Ok id -> (
        match C.wait_outcome ~interval:poll_interval conn id with
        | Ok oc -> oc.Pr.oc_tier2_compiles + oc.Pr.oc_tier2_recompiles
        | Error m -> failwith ("serve-short: warm-up failed: " ^ m))
    | Error (`Rejected rj) -> failwith ("serve-short: warm-up refused: " ^ Pr.reject_message rj)
    | Error (`Error m) -> failwith ("serve-short: warm-up error: " ^ m)
  in
  List.iter
    (fun s ->
      for _ = 1 to warmup_runs do
        ignore (run_once s)
      done;
      let rec settle n = if n > 0 && run_once s > 0 then settle (n - 1) in
      settle 100)
    mix;
  (d, conn)

(* {2 Requests and phases} *)

type req = {
  rid : int;  (* benchmark-side request id, shared by its spans *)
  tenant : int;
  sample : string;
  t_sched : float;  (* due time (= send time in the closed loop) *)
  t_send : float;
  t_acc : float;
  job : int;
  mutable t_pending : float;  (* start of the last poll that saw it pending *)
  mutable polls : (float * float) list;
  mutable t_obs : float;
  mutable outcome : Pr.outcome option;
}

(* One phase's state. Only the sending thread writes [submit_rtts],
   [late], [retries] and [rejects], and only the polling thread
   [poll_rtts]; everything else changes under [mu]. *)
type phase = {
  mu : Mutex.t;
  win : Window.recorder option;
  mutable outstanding : req list;
  mutable done_ : req list;
  mutable failed : int;
  mutable rejects : int;
  mutable retries : int;
  mutable submit_rtts : float list;
  mutable poll_rtts : float list;
  mutable late : float list;
  mutable last_done : float;
}

let locked p f =
  Mutex.lock p.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock p.mu) f

let new_phase win =
  {
    mu = Mutex.create (); win; outstanding = []; done_ = []; failed = 0; rejects = 0; retries = 0;
    submit_rtts = []; poll_rtts = []; late = []; last_done = Util.now ();
  }

let next_rid = ref 0

(* The seeded sample mix: a stream of (tenant, sample) choices. *)
let chooser seed =
  let rng = Workloads.Rng.create seed and k = ref 0 in
  fun () ->
    incr k;
    let roll = Workloads.Rng.int rng 100 in
    let rec pick acc = function
      | [ s ] -> s
      | ((_, _, w) as s) :: rest -> if roll < acc + w then s else pick (acc + w) rest
      | [] -> assert false
    in
    (!k mod Array.length tenants, pick 0 mix)

let transient (rj : Pr.reject) =
  List.mem rj.Pr.rj_code [ "tenant_inflight"; "queue_full"; "quota_pages"; "quota_heap" ]

(* Submit one job due at [t_sched]. [`Retry] is back-pressure in the
   closed loop; anywhere else a refusal is a failed job. *)
let submit p conn ~closed ti ((name, _, _) as s) t_sched =
  let t_send = Util.now () in
  match C.submit conn (submission tenants.(ti) s) with
  | Ok job ->
      let t_acc = Util.now () in
      incr next_rid;
      let r =
        {
          rid = !next_rid; tenant = ti; sample = name; t_sched; t_send; t_acc; job;
          t_pending = t_acc; polls = []; t_obs = 0.; outcome = None;
        }
      in
      p.submit_rtts <- (t_acc -. t_send) :: p.submit_rtts;
      p.late <- (t_send -. t_sched) :: p.late;
      locked p (fun () -> p.outstanding <- r :: p.outstanding);
      `Sent
  | Error (`Rejected rj) when closed && transient rj ->
      p.retries <- p.retries + 1;
      `Retry
  | Error (`Rejected rj) ->
      Printf.printf "serve-short: refused: %s\n" (Pr.reject_message rj);
      p.rejects <- p.rejects + 1;
      locked p (fun () -> p.failed <- p.failed + 1);
      `Sent
  | Error (`Error m) ->
      Printf.printf "serve-short: submit error: %s\n" m;
      locked p (fun () -> p.failed <- p.failed + 1);
      `Sent

let finish p r oc t_obs =
  locked p (fun () ->
      r.t_obs <- t_obs;
      r.outcome <- Some oc;
      p.outstanding <- List.filter (fun x -> x != r) p.outstanding;
      p.done_ <- r :: p.done_;
      p.last_done <- t_obs;
      Option.iter (fun w -> Window.note w ((t_obs -. r.t_sched) *. 1e3)) p.win)

let fail p r m =
  Printf.printf "serve-short: job failed: %s\n" m;
  locked p (fun () ->
      p.outstanding <- List.filter (fun x -> x != r) p.outstanding;
      p.failed <- p.failed + 1;
      p.last_done <- Util.now ())

(* Poll every outstanding job once; true if any finished. *)
let sweep p conn =
  List.fold_left
    (fun progress r ->
      let p0 = Util.now () in
      let res = C.poll conn r.job in
      let p1 = Util.now () in
      p.poll_rtts <- (p1 -. p0) :: p.poll_rtts;
      r.polls <- (p0, p1) :: r.polls;
      match res with
      | `Pending ->
          r.t_pending <- p0;
          progress
      | `Outcome oc ->
          finish p r oc p1;
          true
      | `Failed m | `Error m ->
          fail p r m;
          true)
    false
    (locked p (fun () -> p.outstanding))

(* Poll while [sending] or jobs are outstanding, until [deadline]; jobs
   still out then are waited for one by one, so none is lost. Returns
   whether the phase drained before the deadline. *)
let drain p conn ~sending ~deadline =
  while (sending () || locked p (fun () -> p.outstanding <> [])) && Util.now () < deadline () do
    if not (sweep p conn) then Unix.sleepf poll_interval
  done;
  let left = locked p (fun () -> p.outstanding) in
  List.iter
    (fun r ->
      match C.wait_outcome ~interval:poll_interval conn r.job with
      | Ok oc -> finish p r oc (Util.now ())
      | Error m -> fail p r m)
    left;
  left = []

(* The closed loop, on one thread: top each tenant up to [k] jobs in
   flight, sweep, repeat; stop sending after [seconds] or [jobs] sends.
   Returns the phase and its wall time up to the last completion. *)
let closed_phase ?win ?(jobs = max_int) conns next ~k ~seconds =
  let p = new_phase win in
  let t_start = Util.now () in
  let t_stop = t_start +. seconds in
  let held = ref None and sent = ref 0 in
  while Util.now () < t_stop && !sent < jobs do
    Array.iteri
      (fun ti _ ->
        let in_flight () =
          locked p (fun () -> List.length (List.filter (fun r -> r.tenant = ti) p.outstanding))
        in
        let blocked = ref false in
        while (not !blocked) && in_flight () < k && !sent < jobs do
          let s = match !held with Some s -> s | None -> snd (next ()) in
          match submit p conns.(0) ~closed:true ti s (Util.now ()) with
          | `Sent ->
              held := None;
              incr sent
          | `Retry ->
              held := Some s;
              blocked := true
        done)
      tenants;
    if not (sweep p conns.(1)) then Unix.sleepf poll_interval
  done;
  ignore (drain p conns.(1) ~sending:(fun () -> false) ~deadline:(fun () -> t_stop +. drain_timeout));
  (p, p.last_done -. t_start)

(* The open loop: this thread sends on schedule while a poller thread
   collects. Returns the phase, the number of jobs outstanding when
   sending stopped, and whether it drained in time. *)
let open_phase ?win conns next ~rate ~seconds =
  let p = new_phase win in
  let t_start = Util.now () in
  let t_stop = t_start +. seconds in
  let sending = Atomic.make true in
  let drained = ref true in
  let poller =
    Thread.create
      (fun () ->
        drained :=
          drain p conns.(1)
            ~sending:(fun () -> Atomic.get sending)
            ~deadline:(fun () -> if Atomic.get sending then infinity else t_stop +. drain_timeout))
      ()
  in
  let due = ref t_start and backlog = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      backlog := locked p (fun () -> List.length p.outstanding);
      Atomic.set sending false;
      Thread.join poller)
    (fun () ->
      while !due < t_stop do
        let wait = !due -. Util.now () in
        if wait > 0. then Unix.sleepf wait;
        let ti, s = next () in
        ignore (submit p conns.(0) ~closed:false ti s !due);
        due := !due +. (1. /. rate)
      done);
  (p, !backlog, !drained)

let latencies_ms p = List.map (fun r -> (r.t_obs -. r.t_sched) *. 1e3) p.done_
let queued_ms (oc : Pr.outcome) = float_of_int oc.Pr.oc_queued_ns /. 1e6
let run_ms (oc : Pr.outcome) = float_of_int oc.Pr.oc_run_ns /. 1e6

(* Record one finished request as a span tree sharing its request id:
   the request, the generator's lateness, the submit round trip, the
   server-reported queue wait and VM run, and every poll. *)
let record_spans r =
  match r.outcome with
  | None -> ()
  | Some oc ->
      let req = r.rid in
      let root = Spans.add ~req ~layer:"bench" "serve-short.request" r.t_sched r.t_obs in
      let add ~layer name a b = ignore (Spans.add ~parent:root ~req ~layer name a b) in
      add ~layer:"loadgen" "loadgen.late" r.t_sched r.t_send;
      add ~layer:"service" "service.submit" r.t_send r.t_acc;
      let q_end = r.t_acc +. (queued_ms oc /. 1e3) in
      add ~layer:"service" "service.queued" r.t_acc q_end;
      add ~layer:"vm" "vm.run" q_end (Float.min r.t_obs (q_end +. (run_ms oc /. 1e3)));
      List.iter (fun (a, b) -> add ~layer:"service" "service.poll" a b) r.polls

(* The reconciliation: the server's queued + run must fit between the
   send and the poll that saw the outcome, and must not end before the
   last poll that still saw the job pending (within [serve_slack_s]). *)
let reconciles r =
  match r.outcome with
  | None -> true
  | Some oc ->
      let work = (queued_ms oc +. run_ms oc) /. 1e3 in
      r.t_send +. work <= r.t_obs +. Spans.serve_slack_s
      && r.t_acc +. work >= r.t_pending -. Spans.serve_slack_s

(* Climb the ladder until a rung misses: p99 over the limit, a refusal or
   failure, or a backlog still growing when sending stopped. Returns the
   highest rate met (0 if none) and every rung's phase. *)
let climb conns next ~seconds =
  let rec go best phases = function
    | [] -> (best, phases)
    | rate :: rest ->
        let p, backlog, drained = open_phase conns next ~rate ~seconds in
        let lat = Util.sorted (latencies_ms p) in
        let sent = List.length p.done_ + p.failed in
        let p99 = Util.pct lat 0.99 in
        let ok = drained && p.failed = 0 && backlog <= max 8 (sent / 20) && p99 <= p99_limit_ms in
        Printf.printf "serve-short: ladder %6.0f/s  p99 %7.2f ms over %d jobs  %s\n" rate p99
          (Array.length lat) (if ok then "met" else "missed");
        if ok then go rate (p :: phases) rest else (best, p :: phases)
  in
  go 0. [] ladder

let run ~daemon:exe ~run_dir ~seed ~seconds ~traced =
  if exe = "" || not (Sys.file_exists exe) then
    failwith "serve-short: --daemon must name the built facade_cli executable";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let c = Util.checks () in
  (* the earlier daemons only measured set-up *)
  let setup_s, (d, ctl) =
    Util.repeat_setup ~release:(fun (d, conn) -> stop_daemon d conn) setups (fun () ->
        incr next_rid;
        setup ~exe ~run_dir !next_rid)
  in
  C.close ctl;
  let conns = [| C.connect d.sock; C.connect d.sock |] in
  let next = chooser seed in
  let share x = seconds *. x in
  let daemon_cpu () = Util.proc_cpu d.pid in
  (* 30 s only bounds a wedged daemon; the burst takes about 2 s *)
  let burst, _ = closed_phase ~jobs:rss_burst_jobs conns next ~k:closed_per_tenant ~seconds:30. in
  let rss = Util.peak_rss_mb d.pid in
  let win = Window.start ~cpu_now:daemon_cpu in
  let cpu0 = daemon_cpu () in
  let closed, closed_wall =
    closed_phase ~win conns next ~k:closed_per_tenant ~seconds:(share closed_share)
  in
  let closed_cpu = daemon_cpu () -. cpu0 in
  let closed_sum = Window.summarize (Window.finish win) in
  let open_win = Window.start ~cpu_now:daemon_cpu in
  let t_open = Util.now () in
  let opened, _, _ =
    open_phase ~win:open_win conns next ~rate:open_rate ~seconds:(share open_share)
  in
  let open_wall = Util.now () -. t_open in
  let open_sum = Window.summarize (Window.finish open_win) in
  let max_rate, rung_phases = climb conns next ~seconds:(share rung_share) in
  Array.iter C.close conns;
  stop_daemon d (C.connect d.sock);
  let phases = burst :: closed :: opened :: rung_phases in
  (* Reference results: each sample's P once on the baseline VM. *)
  let reference =
    List.map
      (fun (name, _, _) ->
        let s = List.find (fun s -> s.Samples.name = name) Samples.all in
        let o = Facade_vm.Interp_baseline.run_object s.Samples.program in
        ( name,
          match o.Facade_vm.Interp.result with
          | Some v -> Facade_vm.Value.to_string v
          | None -> "-" ))
      mix
  in
  let requests = List.concat_map (fun p -> p.done_) phases in
  let wrong =
    List.length
      (List.filter
         (fun r ->
           match r.outcome with
           | Some oc -> oc.Pr.oc_result <> List.assoc r.sample reference
           | None -> true)
         requests)
  in
  let failed_jobs = Util.sum_i (List.map (fun p -> p.failed) phases) in
  let attempted = List.length requests + failed_jobs in
  let failed = failed_jobs + wrong in
  Util.check c (wrong = 0) "serve-short: %d results differ from the baseline VM" wrong;
  Util.check c (failed = 0) "serve-short: %d of %d jobs failed or were refused" failed attempted;
  (* Deterministic counts: per sample, steps and page records repeat,
     and no job after the warm-up compiles tier-2 code. *)
  let firsts = Hashtbl.create 8 in
  let drift = ref 0 and compiles = ref 0 in
  List.iter
    (fun r ->
      Option.iter
        (fun (oc : Pr.outcome) ->
          let k = (oc.Pr.oc_steps, oc.Pr.oc_page_records) in
          (match Hashtbl.find_opt firsts r.sample with
          | None -> Hashtbl.replace firsts r.sample k
          | Some k0 -> if k <> k0 then incr drift);
          compiles := !compiles + oc.Pr.oc_tier2_compiles + oc.Pr.oc_tier2_recompiles)
        r.outcome)
    requests;
  Util.check c (!drift = 0) "serve-short: %d jobs' steps or records drifted" !drift;
  Util.check c (!compiles = 0) "serve-short: %d tier-2 compiles after the warm-up" !compiles;
  let open_lat = Util.sorted (latencies_ms opened) in
  Printf.printf "serve-short: closed loop %d jobs in %.2fs; open loop %d jobs at %.0f/s\n"
    (List.length closed.done_) closed_wall (Array.length open_lat) open_rate;
  if not traced then begin
    Window.describe c ~label:"serve-short closed loop" closed_sum;
    Window.describe c ~label:"serve-short open loop" open_sum
  end;
  let e2e = Window.e2e ~setup_s ~rss ~throughput:closed_sum ~latency:open_sum in
  let layers =
    if not traced then []
    else begin
      (* The spans are built from the requests' timestamps after the
         phases, so the phases ran exactly as untraced; the tracing
         overhead is what building the spans costs, as a share of the
         phases' wall time. *)
      let traced_reqs = closed.done_ @ opened.done_ in
      let t_rec = Util.now () in
      List.iter record_spans traced_reqs;
      let rec_s = Util.now () -. t_rec in
      let bad = List.length (List.filter (fun r -> not (reconciles r)) traced_reqs) in
      Printf.printf "serve-short: reconciliation: %d of %d requests outside the %.1f ms slack\n"
        bad (List.length traced_reqs) (Spans.serve_slack_s *. 1e3);
      Util.check c
        (bad * 100 <= List.length traced_reqs)
        "serve-short: more than 1%% of requests do not reconcile";
      let oc_of r = Option.get r.outcome in
      let avg f = Util.mean (List.map f opened.done_) in
      let count f = float_of_int (Util.sum_i (List.map f phases)) in
      Util.
        [
          m "service.submit_rtt_us" "us" (median opened.submit_rtts *. 1e6);
          m "service.poll_rtt_us" "us" (median opened.poll_rtts *. 1e6);
          m "service.polls_per_job" "count" (avg (fun r -> float_of_int (List.length r.polls)));
          m "service.poll_interval_ms" "ms" (poll_interval *. 1e3);
          m "service.queued_ms" "ms" (avg (fun r -> queued_ms (oc_of r)));
          m "service.run_ms" "ms" (avg (fun r -> run_ms (oc_of r)));
          m "service.client_overhead_ms" "ms"
            (avg (fun r ->
                 ((r.t_obs -. r.t_sched) *. 1e3) -. queued_ms (oc_of r) -. run_ms (oc_of r)));
          m "service.rejects" "count" (count (fun p -> p.rejects));
          m "service.backpressure_retries" "count" (count (fun p -> p.retries));
          m "service.daemon_cpu_util" "ratio"
            (ratio closed_cpu (closed_wall *. float_of_int (Util.nproc ())));
          m "service.max_rate_jps" "1/s" max_rate;
          m "service.p99_ms" "ms" (pct open_lat 0.99);
          m "bench.job_p90_ms" "ms" open_sum.Window.p90;
          m "loadgen.late_ms" "ms" (pct (sorted opened.late) 0.99 *. 1e3);
          m "vm.steps_per_job" "count" (avg (fun r -> float_of_int (oc_of r).Pr.oc_steps));
          m "pagestore.records_allocated" "count"
            (avg (fun r -> float_of_int (oc_of r).Pr.oc_page_records));
          m "pagestore.live_pages_end" "count"
            (avg (fun r -> float_of_int (oc_of r).Pr.oc_live_pages));
          m "pagestore.peak_native_mb" "MB"
            (avg (fun r -> float_of_int (oc_of r).Pr.oc_peak_native /. 1048576.));
          m "tier.compiles" "count" (float_of_int !compiles);
          m "tier.osr_entries" "count"
            (float_of_int
               (Util.sum_i (List.map (fun r -> (oc_of r).Pr.oc_osr_entries) traced_reqs)));
          m "bench.trace_overhead_frac" "frac" (rec_s /. (closed_wall +. open_wall));
          m "bench.reconcile_violations" "count" (float_of_int bad);
        ]
      @ Probes.metrics ()
    end
  in
  { Util.correct = c.Util.ok; attempted; failed; e2e; layers }
