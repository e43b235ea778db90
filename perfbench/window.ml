(* Estimation of the end-to-end timings from the timed phase.

   The timed phase is cut into windows of [width] seconds (closed at the
   first job completion past the boundary), each with its jobs'
   latencies, its wall time, the CPU time spent in it and the CPU time
   the hypervisor stole from the machine during it (the steal column of
   /proc/stat). Stolen time stretches every job in its window whatever
   the program does, so the reported timings pool the windows without
   stolen time, and if those are fewer than half, add the windows with
   the next-least stolen time, a whole steal level at a time, until at
   least half are pooled. Throughput is the pooled jobs over the pooled
   wall time, CPU per job the pooled CPU time over the pooled jobs, and
   the median is over all the pooled jobs. Which windows are pooled
   depends only on the host, never on the jobs' own latencies, so a
   slowdown anywhere in the phase moves the figures.

   On the reference host (2 vCPUs), cut into 0.25 s windows, a 30 s
   engines-churn run read 35.2 jobs/s over its 59 windows without steal,
   34.6 over the 27 with one tick stolen and 30.2 over the 4 with four.
   Narrow windows lose little of the phase around each stolen tick. *)

type window = { lat_ms : float list; wall : float; cpu : float; steal : float }

let width = 0.1

type recorder = {
  cpu_now : unit -> float;
  mutable w_start : float;
  mutable w_cpu : float;
  mutable w_steal : float;
  mutable cur : float list;
  mutable closed : window list;
}

let start ~cpu_now =
  {
    cpu_now;
    w_start = Util.now ();
    w_cpu = cpu_now ();
    w_steal = Util.steal_ticks ();
    cur = [];
    closed = [];
  }

let close r =
  let t = Util.now () and c = r.cpu_now () and st = Util.steal_ticks () in
  if r.cur <> [] then
    r.closed <-
      { lat_ms = r.cur; wall = t -. r.w_start; cpu = c -. r.w_cpu; steal = st -. r.w_steal }
      :: r.closed;
  r.w_start <- t;
  r.w_cpu <- c;
  r.w_steal <- st;
  r.cur <- []

(* Record one completed job's latency. *)
let note r lat_ms =
  r.cur <- lat_ms :: r.cur;
  if Util.now () -. r.w_start >= width then close r

let finish r =
  close r;
  List.rev r.closed

type summary = {
  jobs_per_s : float;
  p50 : float;
  p90 : float;
  cpu_ms_per_job : float;
  jobs : int;  (* jobs in the pooled windows *)
  windows : int;  (* pooled of all *)
  of_windows : int;
  stolen : int;  (* windows during which the hypervisor stole CPU time *)
}

let summarize ws =
  let half = (List.length ws + 1) / 2 in
  let rec pool acc n = function
    | w :: rest when n < half ->
        let level, rest = List.partition (fun x -> x.steal = w.steal) (w :: rest) in
        pool (level @ acc) (n + List.length level) rest
    | _ -> acc
  in
  let sel = pool [] 0 (List.stable_sort (fun a b -> compare a.steal b.steal) ws) in
  let lat = Util.sorted (List.concat_map (fun w -> w.lat_ms) sel) in
  let jobs = Array.length lat in
  let wall = Util.sum_f (List.map (fun w -> w.wall) sel) in
  let cpu = Util.sum_f (List.map (fun w -> w.cpu) sel) in
  {
    jobs_per_s = float_of_int jobs /. wall;
    p50 = Util.pct lat 0.5;
    p90 = Util.pct lat 0.9;
    cpu_ms_per_job = cpu *. 1e3 /. float_of_int jobs;
    jobs;
    windows = List.length sel;
    of_windows = List.length ws;
    stolen = List.length (List.filter (fun w -> w.steal > 0.) ws);
  }

(* Print how a summary was formed, and check the p90 has at least ten
   samples beyond it. *)
let describe (c : Util.checks) ~label s =
  let beyond = Util.beyond s.jobs 0.9 in
  Printf.printf
    "%s: timings from %d of %d windows (%d jobs; %d windows had stolen CPU time); p90 %.3f \
     ms with %d samples beyond it\n"
    label s.windows s.of_windows s.jobs s.stolen s.p90 beyond;
  Util.check c (beyond >= 10) "%s: fewer than 10 samples beyond p90" label

(* The end-to-end metrics: throughput and CPU per job from [throughput],
   the median latency from [latency] (the same summary except in
   serve-short, where they come from the closed and the open loop). The
   p90 is printed and reported by the traced run, not gated: on
   serve-short its spread across ten runs reached 0.24 on the reference
   host, the largest bound a gate may have. *)
let e2e ~setup_s ~rss ~throughput ~latency =
  Util.
    [
      m "setup_s" "s" setup_s;
      m "jobs_per_s" "1/s" throughput.jobs_per_s;
      m "job_p50_ms" "ms" latency.p50;
      m "cpu_ms_per_job" "ms" throughput.cpu_ms_per_job;
      m "peak_rss_mb" "MB" rss;
    ]
