(* The [facade_cli serve] daemon: a Unix-domain socket accept loop in
   front of the {!Scheduler}.

   One systhread per connection speaks the framed {!Proto} protocol.
   Requests that decode cleanly always get a structured response — a
   malformed payload gets [Err] and the connection continues; a broken
   frame (bad length prefix, truncation) gets [Err] and a close, since
   the byte stream can no longer be resynchronized. Either way only that
   connection is affected: the daemon and its other tenants keep
   running. *)

type config = {
  socket_path : string;
  pool_workers : int;  (* size of the domain pool every job computes on; >= 1 *)
  sched_config : Scheduler.config;
  tenants : (string * Tenant.quota) list;
  default_quota : Tenant.quota option;  (* for tenants not listed above *)
  trace_dir : string option;  (* per-tenant Chrome traces on shutdown *)
}

let default_config =
  {
    socket_path = "facade.sock";
    pool_workers = 2;
    sched_config = Scheduler.default_config;
    tenants = [];
    default_quota = Some Tenant.default_quota;
    trace_dir = None;
  }

type t = {
  cfg : config;
  engine : Engine.t;
  sched : Scheduler.t;
  listen_fd : Unix.file_descr;
  stop_mu : Mutex.t;
  stop_cond : Condition.t;
  mutable stop_requested : bool;
  mutable stopped : bool;
  mutable accept_thread : Thread.t option;
}

let respond t (req : Proto.request) : Proto.response =
  match req with
  | Proto.Submit s -> (
      match Scheduler.submit t.sched s with
      | Ok id -> Proto.Accepted id
      | Error rj -> Proto.Rejected rj)
  | Proto.Status id -> (
      match Scheduler.job_state t.sched id with
      | None -> Proto.Err (Printf.sprintf "unknown job %d" id)
      | Some Scheduler.Queued -> Proto.Job_status Proto.Queued
      | Some Scheduler.Running -> Proto.Job_status Proto.Running
      | Some (Scheduler.Done _) -> Proto.Job_status Proto.Finished
      | Some (Scheduler.Failed _) -> Proto.Job_status Proto.Failed)
  | Proto.Result id -> (
      match Scheduler.take_result t.sched id with
      | None -> Proto.Err (Printf.sprintf "unknown job %d" id)
      | Some Scheduler.Queued -> Proto.Job_status Proto.Queued
      | Some Scheduler.Running -> Proto.Job_status Proto.Running
      | Some (Scheduler.Done oc) -> Proto.Job_outcome oc
      | Some (Scheduler.Failed m) -> Proto.Job_failed m)
  | Proto.Tenant_stats name -> (
      match Scheduler.tenant_report t.sched name with
      | Some r -> Proto.Tenant_report r
      | None -> Proto.Err (Printf.sprintf "unknown tenant %S" name))
  | Proto.Server_stats -> Proto.Server_report (Scheduler.server_report t.sched)
  | Proto.Shutdown -> Proto.Bye

(* Closing a listening socket does not wake a thread already blocked in
   accept(2); a throwaway self-connection does, portably. The accept
   loop re-checks [stop_requested] after every return. *)
let wake_accept t =
  match Unix.socket PF_UNIX SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.connect fd (ADDR_UNIX t.cfg.socket_path) with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())

let signal_stop t =
  Mutex.lock t.stop_mu;
  let first = not t.stop_requested in
  if first then begin
    t.stop_requested <- true;
    Condition.broadcast t.stop_cond
  end;
  Mutex.unlock t.stop_mu;
  if first then wake_accept t

let handle_conn t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let send resp =
    try
      Proto.write_frame oc (Proto.encode_response resp);
      true
    with Sys_error _ | Unix.Unix_error _ -> false
  in
  let rec loop () =
    match Proto.read_frame ic with
    | Error `Eof -> ()
    | Error (`Bad m) ->
        (* Framing is gone; answer once and hang up. *)
        ignore (send (Proto.Err ("bad frame: " ^ m)))
    | Ok payload -> (
        match Proto.decode_request payload with
        | Error m -> if send (Proto.Err ("bad request: " ^ m)) then loop ()
        | Ok req ->
            let resp = respond t req in
            let ok = send resp in
            if req = Proto.Shutdown then signal_stop t else if ok then loop ())
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    loop

let accept_loop t =
  let stopping () =
    Mutex.lock t.stop_mu;
    let s = t.stop_requested in
    Mutex.unlock t.stop_mu;
    s
  in
  let rec loop () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
        if stopping () then (try Unix.close fd with Unix.Unix_error _ -> ())
        else begin
          ignore (Thread.create (fun () -> handle_conn t fd) ());
          loop ()
        end
    | exception Unix.Unix_error ((EBADF | EINVAL | ECONNABORTED), _, _) -> ()
    | exception Unix.Unix_error (EINTR, _, _) -> loop ()
  in
  loop ();
  try Unix.close t.listen_fd with Unix.Unix_error _ -> ()

let start cfg =
  (if Sys.unix then try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.bind listen_fd (ADDR_UNIX cfg.socket_path);
  Unix.listen listen_fd 64;
  let engine = Engine.create ~pool_workers:cfg.pool_workers in
  let sched =
    Scheduler.create ~config:cfg.sched_config ?default_quota:cfg.default_quota ~engine
      ~tenants:cfg.tenants ()
  in
  let t =
    {
      cfg;
      engine;
      sched;
      listen_fd;
      stop_mu = Mutex.create ();
      stop_cond = Condition.create ();
      stop_requested = false;
      stopped = false;
      accept_thread = None;
    }
  in
  t.accept_thread <- Some (Thread.create accept_loop t);
  t

(* Block until a Shutdown request (or {!stop}) arrives, then drain jobs,
   export per-tenant traces, and release the pool and the socket. *)
let wait t =
  Mutex.lock t.stop_mu;
  while not t.stop_requested do
    Condition.wait t.stop_cond t.stop_mu
  done;
  let already = t.stopped in
  t.stopped <- true;
  Mutex.unlock t.stop_mu;
  if not already then begin
    Option.iter Thread.join t.accept_thread;
    Scheduler.stop t.sched;
    (match t.cfg.trace_dir with
    | Some dir ->
        (try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ());
        ignore (Scheduler.export_traces t.sched ~dir)
    | None -> ());
    Engine.shutdown t.engine;
    try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ()
  end

let stop t =
  signal_stop t;
  wait t

let serve cfg = wait (start cfg)
