(* Minimal blocking client for the serve protocol: one request in flight
   per connection. The load generator multiplexes many simulated clients
   over a handful of these. *)

type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel; mu : Mutex.t }

let connect path =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  (try Unix.connect fd (ADDR_UNIX path)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  {
    fd;
    ic = Unix.in_channel_of_descr fd;
    oc = Unix.out_channel_of_descr fd;
    mu = Mutex.create ();
  }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let request t req : (Proto.response, string) result =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      match
        Proto.write_frame t.oc (Proto.encode_request req);
        Proto.read_frame t.ic
      with
      | Ok payload -> Proto.decode_response payload
      | Error `Eof -> Error "connection closed"
      | Error (`Bad m) -> Error ("bad frame from server: " ^ m)
      | exception Sys_error m -> Error m
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))

let submit t s : (int, [ `Rejected of Proto.reject | `Error of string ]) result =
  match request t (Proto.Submit s) with
  | Ok (Proto.Accepted id) -> Ok id
  | Ok (Proto.Rejected rj) -> Error (`Rejected rj)
  | Ok (Proto.Err m) -> Error (`Error m)
  | Ok _ -> Error (`Error "unexpected response to Submit")
  | Error m -> Error (`Error m)

(* One [Result] request: [`Pending] at once while the job is queued; a
   running job's answer comes when it ends. An outcome or failure is
   delivered once; the daemon then forgets the job, so a second poll of
   it is [`Error "unknown job N"]. *)
let poll t id : [ `Pending | `Outcome of Proto.outcome | `Failed of string | `Error of string ] =
  match request t (Proto.Result id) with
  | Ok (Proto.Job_status (Proto.Queued | Proto.Running)) -> `Pending
  | Ok (Proto.Job_outcome oc) -> `Outcome oc
  | Ok (Proto.Job_failed m) -> `Failed m
  | Ok (Proto.Err m) -> `Error m
  | Ok _ -> `Error "unexpected response to Result"
  | Error m -> `Error m

let wait_outcome ?(interval = 0.001) t id :
    (Proto.outcome, string) result =
  let rec loop () =
    match poll t id with
    | `Pending ->
        Thread.delay interval;
        loop ()
    | `Outcome oc -> Ok oc
    | `Failed m -> Error ("job failed: " ^ m)
    | `Error m -> Error m
  in
  loop ()

let tenant_report t name : (Proto.tenant_report, string) result =
  match request t (Proto.Tenant_stats name) with
  | Ok (Proto.Tenant_report r) -> Ok r
  | Ok (Proto.Err m) -> Error m
  | Ok _ -> Error "unexpected response to Tenant_stats"
  | Error m -> Error m

let server_report t : (Proto.server_report, string) result =
  match request t Proto.Server_stats with
  | Ok (Proto.Server_report r) -> Ok r
  | Ok (Proto.Err m) -> Error m
  | Ok _ -> Error "unexpected response to Server_stats"
  | Error m -> Error m

let shutdown t : (unit, string) result =
  match request t Proto.Shutdown with
  | Ok Proto.Bye -> Ok ()
  | Ok _ -> Error "unexpected response to Shutdown"
  | Error m -> Error m
