(* Job queue, admission control, and the runner threads.

   Submissions are admitted under one lock: the program must resolve in
   the {!Engine} registry, the queue must have room, and the tenant's
   reservation ledger must accept the job's page/heap ask (see
   {!Tenant.admit}). Admitted jobs carry their reservation into
   execution as hard store caps, so the runtime can never use more than
   admission granted. Every rejection is structured ({!Proto.reject}):
   a code, a human line, and the used/limit pair that drove it.

   Runners are plain systhreads in domain 0 that compute nothing: each
   hands its job to {!Engine.run}, which computes on the engine's
   server-lifetime domain pool, and parks until the job ends, so domain
   0's runtime lock is left to the connection threads. Job-table writes
   and every tenant-tracer instant happen on the runners and the
   connection threads under [t.mu], all in domain 0: a tracer gives
   each domain that writes it its own ring, and pool domains never
   write one.

   A finished or failed job stays in the job table until a [Result]
   hands its outcome out ({!take_result}); then it is dropped, so the
   table holds only jobs nobody has collected. *)

module Store = Pagestore.Store

type config = {
  c_runners : int;  (* concurrent jobs *)
  c_max_queue : int;  (* queued (not yet running) jobs across all tenants *)
  c_job_pages : int;  (* default per-job page reservation *)
  c_job_heap : int;  (* default per-job native-byte reservation *)
  c_max_steps : int;  (* per-job step budget *)
  c_max_workers : int;  (* largest accepted per-job worker request *)
}

let default_config =
  {
    c_runners = 2;
    c_max_queue = 1024;
    c_job_pages = 64;
    c_job_heap = 8 lsl 20;
    c_max_steps = 50_000_000;
    c_max_workers = 16;
  }

type jstate =
  | Queued
  | Running
  | Done of Proto.outcome
  | Failed of string

type job = {
  j_id : int;
  j_tenant : string;
  j_prog : string;
  j_workers : int;
  j_pages : int;
  j_heap : int;
  j_submit : float;
  mutable j_start : float;
  mutable j_state : jstate;
}

type t = {
  cfg : config;
  engine : Engine.t;
  mu : Mutex.t;
  work : Condition.t;  (* runners park here *)
  changed : Condition.t;  (* job-state waiters park here *)
  queue : job Queue.t;
  jobs : (int, job) Hashtbl.t;
  tenants : (string, Tenant.t) Hashtbl.t;
  default_quota : Tenant.quota option;
  mutable next_id : int;
  mutable stopping : bool;
  mutable runner_threads : Thread.t list;
  mutable running : int;
  mutable done_count : int;
  mutable failed_count : int;
  mutable rejected_count : int;
}

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let tenant_locked t name =
  match Hashtbl.find_opt t.tenants name with
  | Some tn -> Some tn
  | None -> (
      match t.default_quota with
      | None -> None
      | Some q ->
          let tn = Tenant.create name q in
          Hashtbl.replace t.tenants name tn;
          Some tn)

let now () = Unix.gettimeofday ()

let ns_of s = int_of_float (s *. 1e9)

(* One admitted job, start to finish. The engine call runs unlocked. *)
let execute t (job : job) (tn : Tenant.t) =
  let entry =
    match Engine.lookup t.engine job.j_prog with
    | Some e -> e
    | None -> assert false (* admission resolved it *)
  in
  let result =
    try
      Ok
        (Engine.run t.engine entry ~workers:job.j_workers ~pages:job.j_pages
           ~heap:job.j_heap ~max_steps:t.cfg.c_max_steps)
    with
    | Store.Quota_exceeded _ as e ->
        Error (Option.value ~default:"quota exceeded" (Store.quota_message e))
    | e -> Error (Printexc.to_string e)
  in
  let finish = now () in
  locked t (fun () ->
      (match result with
      | Ok r ->
          let oc =
            {
              r.Engine.r_outcome with
              Proto.oc_queued_ns = ns_of (job.j_start -. job.j_submit);
            }
          in
          job.j_state <- Done oc;
          t.done_count <- t.done_count + 1;
          Tenant.note_done tn ~steps:oc.Proto.oc_steps ~records:oc.Proto.oc_page_records
            ~run_ns:oc.Proto.oc_run_ns;
          Obs.Tracer.instant tn.Tenant.tracer ~cat:"service"
            ~args:
              [
                ("job", Obs.Tracer.Aint job.j_id);
                ("steps", Obs.Tracer.Aint oc.Proto.oc_steps);
              ]
            "job_done";
          Obs.Tracer.histogram tn.Tenant.tracer ~name:"latency_ms"
            ((finish -. job.j_submit) *. 1e3)
      | Error msg ->
          job.j_state <- Failed msg;
          t.failed_count <- t.failed_count + 1;
          Tenant.note_failed tn;
          Obs.Tracer.instant tn.Tenant.tracer ~cat:"service"
            ~args:[ ("job", Obs.Tracer.Aint job.j_id) ]
            "job_failed");
      Tenant.release tn ~pages:job.j_pages ~heap:job.j_heap;
      t.running <- t.running - 1;
      Condition.broadcast t.changed)

let runner_loop t =
  let rec next () =
    Mutex.lock t.mu;
    let rec wait () =
      if t.stopping then begin
        Mutex.unlock t.mu;
        None
      end
      else
        match Queue.take_opt t.queue with
        | Some job ->
            job.j_state <- Running;
            job.j_start <- now ();
            t.running <- t.running + 1;
            let tn = Hashtbl.find t.tenants job.j_tenant in
            (* Under [t.mu] like [job_submit] and [job_done]: every runner
               and connection thread writes the tenant's one tracer lane. *)
            Obs.Tracer.instant tn.Tenant.tracer ~cat:"service"
              ~args:[ ("job", Obs.Tracer.Aint job.j_id) ]
              "job_start";
            Mutex.unlock t.mu;
            Some (job, tn)
        | None ->
            Condition.wait t.work t.mu;
            wait ()
    in
    match wait () with
    | None -> ()
    | Some (job, tn) ->
        execute t job tn;
        next ()
  in
  next ()

let create ?(config = default_config) ?default_quota ~engine ~tenants () =
  let t =
    {
      cfg = config;
      engine;
      mu = Mutex.create ();
      work = Condition.create ();
      changed = Condition.create ();
      queue = Queue.create ();
      jobs = Hashtbl.create 64;
      tenants = Hashtbl.create 8;
      default_quota;
      next_id = 1;
      stopping = false;
      runner_threads = [];
      running = 0;
      done_count = 0;
      failed_count = 0;
      rejected_count = 0;
    }
  in
  List.iter
    (fun (name, quota) -> Hashtbl.replace t.tenants name (Tenant.create name quota))
    tenants;
  t.runner_threads <-
    List.init (max 1 config.c_runners) (fun _ -> Thread.create runner_loop t);
  t

let reject code detail used limit =
  { Proto.rj_code = code; rj_detail = detail; rj_used = used; rj_limit = limit }

let submit t (s : Proto.submit) : (int, Proto.reject) result =
  (* Resolve (and possibly first-compile) the program outside the
     scheduler lock: compilation is the one expensive admission step. *)
  let entry = Engine.lookup t.engine (match s.Proto.sb_prog with Sample n -> n) in
  locked t (fun () ->
      let fail tn_opt rj =
        Option.iter Tenant.note_rejected tn_opt;
        t.rejected_count <- t.rejected_count + 1;
        Error rj
      in
      if t.stopping then
        fail None (reject "shutting_down" "server is draining" 0 0)
      else
      match tenant_locked t s.Proto.sb_tenant with
      | None ->
          fail None
            (reject "unknown_tenant"
               (Printf.sprintf "tenant %S is not configured and the server has no \
                                default quota"
                  s.Proto.sb_tenant)
               0 0)
      | Some tn -> (
          match entry with
          | None ->
              fail (Some tn)
                (reject "unknown_program"
                   (Printf.sprintf "program %S is not in the registry"
                      (match s.Proto.sb_prog with Sample n -> n))
                   0 0)
          | Some e
            when s.Proto.sb_entry <> "" && s.Proto.sb_entry <> e.Engine.e_entry_method
            ->
              fail (Some tn)
                (reject "unknown_entry"
                   (Printf.sprintf "program %S has entry %s, not %S" e.Engine.e_name
                      e.Engine.e_entry_method s.Proto.sb_entry)
                   0 0)
          | Some _ when s.Proto.sb_workers > t.cfg.c_max_workers ->
              fail (Some tn)
                (reject "bad_request" "worker count above the server cap"
                   s.Proto.sb_workers t.cfg.c_max_workers)
          | Some _ when Queue.length t.queue >= t.cfg.c_max_queue ->
              fail (Some tn)
                (reject "queue_full" "server job queue is full" (Queue.length t.queue)
                   t.cfg.c_max_queue)
          | Some _ -> (
              let pages = if s.Proto.sb_pages > 0 then s.Proto.sb_pages else t.cfg.c_job_pages in
              let heap =
                if s.Proto.sb_heap_bytes > 0 then s.Proto.sb_heap_bytes
                else t.cfg.c_job_heap
              in
              match Tenant.admit tn ~pages ~heap with
              | Error rj -> fail (Some tn) rj
              | Ok () ->
                  let id = t.next_id in
                  t.next_id <- id + 1;
                  let job =
                    {
                      j_id = id;
                      j_tenant = s.Proto.sb_tenant;
                      j_prog = (match s.Proto.sb_prog with Sample n -> n);
                      j_workers = s.Proto.sb_workers;
                      j_pages = pages;
                      j_heap = heap;
                      j_submit = now ();
                      j_start = 0.;
                      j_state = Queued;
                    }
                  in
                  Hashtbl.replace t.jobs id job;
                  Queue.add job t.queue;
                  Obs.Tracer.instant tn.Tenant.tracer ~cat:"service"
                    ~args:[ ("job", Obs.Tracer.Aint id) ]
                    "job_submit";
                  Condition.signal t.work;
                  Ok id)))

let job_state t id = locked t (fun () -> Option.map (fun j -> j.j_state) (Hashtbl.find_opt t.jobs id))

(* Under [t.mu]: job [id] once [blocks] no longer holds of its state;
   [None] if it is not, or no longer, in the table. *)
let rec await_locked t id blocks =
  match Hashtbl.find_opt t.jobs id with
  | Some j when blocks j.j_state ->
      Condition.wait t.changed t.mu;
      await_locked t id blocks
  | j -> j

(* Block until job [id] leaves the queue/running states; [None] if the
   job is unknown or is dropped meanwhile. *)
let wait_job t id =
  locked t (fun () ->
      await_locked t id (function Queued | Running -> true | Done _ | Failed _ -> false)
      |> Option.map (fun j -> j.j_state))

(* The [Result] request: a queued job's state at once, a running job's
   outcome when it ends. A finished or failed job is handed out once and
   dropped from the table, so a later request for it finds nothing. *)
let take_result t id =
  locked t (fun () ->
      match await_locked t id (function Running -> true | _ -> false) with
      | None -> None
      | Some j ->
          (match j.j_state with
          | Done _ | Failed _ -> Hashtbl.remove t.jobs id
          | Queued | Running -> ());
          Some j.j_state)

let wait_idle t =
  Mutex.lock t.mu;
  while (not (Queue.is_empty t.queue)) || t.running > 0 do
    Condition.wait t.changed t.mu
  done;
  Mutex.unlock t.mu

let tenant_report t name =
  locked t (fun () ->
      Option.map Tenant.report (Hashtbl.find_opt t.tenants name))

let tenant t name = locked t (fun () -> Hashtbl.find_opt t.tenants name)

let server_report t =
  locked t (fun () ->
      {
        Proto.sv_queued = Queue.length t.queue;
        sv_running = t.running;
        sv_done = t.done_count;
        sv_failed = t.failed_count;
        sv_rejected = t.rejected_count;
        sv_programs = Engine.program_count t.engine;
        sv_tier_compiles = Engine.compile_count t.engine;
        sv_pool_workers = t.engine.Engine.pool_workers;
      })

(* Export each tenant's service trace as a Chrome trace file; returns
   [(tenant, path)] pairs. *)
let export_traces t ~dir =
  let tenants = locked t (fun () -> Hashtbl.fold (fun _ tn acc -> tn :: acc) t.tenants []) in
  List.map
    (fun (tn : Tenant.t) ->
      let path = Filename.concat dir (Printf.sprintf "tenant-%s.trace.json" tn.Tenant.name) in
      Obs.Export.write_chrome tn.Tenant.tracer path;
      (tn.Tenant.name, path))
    (List.sort (fun (a : Tenant.t) b -> compare a.Tenant.name b.Tenant.name) tenants)

(* Drain: wait for in-flight work, then stop the runners. *)
let stop t =
  wait_idle t;
  locked t (fun () ->
      t.stopping <- true;
      Condition.broadcast t.work);
  List.iter Thread.join t.runner_threads;
  t.runner_threads <- []
