module Heap = Heapsim.Heap
module Clock = Heapsim.Sim_clock
module Store = Pagestore.Store

type mode = Object_mode | Facade_mode

type config = {
  mode : mode;
  heap_gb : float;
  machines : int;
  cost : Gcost.t;
  workers : int option;
      (* [Some n]: each superstep's message traffic is sharded across [n]
         tasks on [n] real OCaml domains, delivery is realized as blocking
         waits, and the superstep is charged measured wall-clock. [None]
         (default): analytic path. *)
  io_scale : float;  (* real seconds slept per simulated I/O second *)
}

let scaled_gb = 1 lsl 20

let default_config mode =
  {
    mode;
    heap_gb = 15.0;
    machines = 10;
    cost = Gcost.default;
    workers = None;
    io_scale = 5.0e-3;
  }

type metrics = {
  et : float;
  gt : float;
  peak_memory_mb : float;
  minor_gcs : int;
  major_gcs : int;
  data_objects : int;
  page_records : int;
  supersteps : int;
  completed : bool;
  oom_at : float;
  wall_seconds : float;
  per_thread_records : (int * int * int) list;
}

type 'a outcome = {
  output : 'a option;
  metrics : metrics;
}

type ctx = {
  config : config;
  heap_ : Heap.t;
  clock_ : Clock.t;
  store_ : Store.t option;
  mutable pool_ : Parallel.Pool.t option;  (* set for the borrowed pool's lifetime *)
  mutable data_objects : int;
  mutable page_records : int;
  mutable steps : int;
  mutable last_native : int;
  mutable last_pages : int;
  mutable wall_ : float;
}

let store c = c.store_
let heap c = c.heap_
let mode c = c.config.mode

let sync_native c =
  match c.store_ with
  | None -> ()
  | Some s ->
      let st = Store.stats s in
      let dn = st.Store.native_bytes - c.last_native in
      if dn > 0 then Heap.native_alloc c.heap_ ~bytes:dn
      else if dn < 0 then Heap.native_free c.heap_ ~bytes:(-dn);
      c.last_native <- st.Store.native_bytes;
      let dp = st.Store.pages_created - c.last_pages in
      if dp > 0 then Heap.alloc_many c.heap_ ~lifetime:Heap.Control ~bytes_each:48 ~count:dp;
      c.last_pages <- st.Store.pages_created

let load_graph c ~vertices ~edges =
  let cost = c.config.cost in
  let vertices = (vertices + c.config.machines - 1) / c.config.machines in
  let edges = (edges + c.config.machines - 1) / c.config.machines in
  match c.store_ with
  | None ->
      (* GPS's object-array graph representation: one object per vertex
         plus adjacency arrays — long-lived data objects. *)
      Heap.alloc_many c.heap_ ~lifetime:Heap.Permanent
        ~bytes_each:cost.Gcost.vertex_object_bytes ~count:vertices;
      Heap.alloc c.heap_ ~lifetime:Heap.Permanent ~bytes:(edges * 8);
      c.data_objects <- c.data_objects + vertices + 1
  | Some s ->
      (* Page-resident graph: one record per vertex, adjacency as array
         records on the thread's default (⊥) manager — reclaimed only when
         the worker terminates. *)
      let per_chunk = 4096 in
      let remaining = ref vertices in
      while !remaining > 0 do
        let n = min per_chunk !remaining in
        for _ = 1 to n do
          ignore (Store.alloc_record s ~thread:0 ~type_id:1 ~data_bytes:16)
        done;
        c.page_records <- c.page_records + n;
        remaining := !remaining - n;
        sync_native c
      done;
      ignore (Store.alloc_array s ~thread:0 ~type_id:2 ~elem_bytes:8 ~length:edges);
      c.page_records <- c.page_records + 1;
      sync_native c

(* The [~workers] path: the machine's message traffic is sharded across
   the pool's domains; delivery (network receive + deserialize) is
   realized as a blocking wait per shard, and the superstep is charged
   the batch's measured wall-clock. In facade mode each shard's message
   buffer is a page array on that worker's own store thread. *)
let superstep_parallel c pool ~msgs =
  let cost = c.config.cost in
  let nw = Parallel.Pool.size pool in
  let shard t = ((msgs * (t + 1)) / nw) - ((msgs * t) / nw) in
  let per_msg_sim =
    match c.config.mode with
    | Object_mode -> cost.Gcost.compute_per_msg +. cost.Gcost.msg_overhead_object
    | Facade_mode -> cost.Gcost.compute_per_msg +. cost.Gcost.msg_overhead_facade
  in
  let fixed =
    match c.config.mode with
    | Object_mode -> cost.Gcost.superstep_fixed
    | Facade_mode -> cost.Gcost.superstep_fixed +. cost.Gcost.facade_fixed_per_superstep
  in
  (match c.store_ with
  | Some s ->
      for t = 0 to nw do
        Store.iteration_start s ~thread:t
      done
  | None -> ());
  Heap.iteration_start c.heap_;
  let task t () =
    (match c.store_ with
    | Some s ->
        ignore (Store.alloc_array s ~thread:(t + 1) ~type_id:3 ~elem_bytes:8 ~length:(max 1 (shard t)))
    | None -> ());
    Parallel.Measure.io_wait (float_of_int (shard t) *. per_msg_sim *. c.config.io_scale)
  in
  let w = Parallel.Measure.run_timed pool (List.init nw task) in
  c.wall_ <- c.wall_ +. w;
  Clock.charge c.clock_ Clock.Update (fixed +. (w /. c.config.io_scale));
  let fmsgs = float_of_int msgs in
  (match c.config.mode with
  | Object_mode ->
      let msg_objs = int_of_float (fmsgs *. cost.Gcost.msg_objects_fraction) in
      Heap.alloc_many c.heap_ ~lifetime:Heap.Iteration
        ~bytes_each:cost.Gcost.msg_object_bytes ~count:msg_objs;
      c.data_objects <- c.data_objects + msg_objs;
      Heap.alloc_many c.heap_ ~lifetime:Heap.Temp ~bytes_each:cost.Gcost.temp_bytes
        ~count:(int_of_float (fmsgs *. cost.Gcost.temps_per_msg_object))
  | Facade_mode ->
      c.page_records <- c.page_records + nw;
      Heap.alloc_many c.heap_ ~lifetime:Heap.Temp ~bytes_each:cost.Gcost.temp_bytes
        ~count:(int_of_float (fmsgs *. cost.Gcost.temps_per_msg_facade));
      sync_native c);
  Heap.iteration_end c.heap_;
  match c.store_ with
  | Some s ->
      for t = nw downto 0 do
        Store.iteration_end s ~thread:t
      done;
      sync_native c
  | None -> ()

let superstep c ~msgs =
  let cost = c.config.cost in
  c.steps <- c.steps + 1;
  let msgs = (msgs + c.config.machines - 1) / c.config.machines in
  let fmsgs = float_of_int msgs in
  match c.pool_ with
  | Some pool -> superstep_parallel c pool ~msgs
  | None -> (
  match c.config.mode with
  | Object_mode ->
      Clock.charge c.clock_ Clock.Update
        (cost.Gcost.superstep_fixed
        +. (fmsgs *. (cost.Gcost.compute_per_msg +. cost.Gcost.msg_overhead_object)));
      Heap.iteration_start c.heap_;
      let msg_objs = int_of_float (fmsgs *. cost.Gcost.msg_objects_fraction) in
      Heap.alloc_many c.heap_ ~lifetime:Heap.Iteration
        ~bytes_each:cost.Gcost.msg_object_bytes ~count:msg_objs;
      c.data_objects <- c.data_objects + msg_objs;
      Heap.alloc_many c.heap_ ~lifetime:Heap.Temp ~bytes_each:cost.Gcost.temp_bytes
        ~count:(int_of_float (fmsgs *. cost.Gcost.temps_per_msg_object));
      Heap.iteration_end c.heap_
  | Facade_mode ->
      Clock.charge c.clock_ Clock.Update
        (cost.Gcost.superstep_fixed +. cost.Gcost.facade_fixed_per_superstep
        +. (fmsgs *. (cost.Gcost.compute_per_msg +. cost.Gcost.msg_overhead_facade)));
      let s = Option.get c.store_ in
      Store.iteration_start s ~thread:0;
      Heap.iteration_start c.heap_;
      (* The superstep's message buffer lives in pages and is recycled at
         the barrier. *)
      ignore (Store.alloc_array s ~thread:0 ~type_id:3 ~elem_bytes:8 ~length:msgs);
      c.page_records <- c.page_records + 1;
      Heap.alloc_many c.heap_ ~lifetime:Heap.Temp ~bytes_each:cost.Gcost.temp_bytes
        ~count:(int_of_float (fmsgs *. cost.Gcost.temps_per_msg_facade));
      sync_native c;
      Heap.iteration_end c.heap_;
      Store.iteration_end s ~thread:0;
      sync_native c)

let with_run config body =
  let heap_bytes = int_of_float (config.heap_gb *. float_of_int scaled_gb) in
  let clock_ = Clock.create () in
  let heap_ = Heap.create ~clock:clock_ (Heapsim.Hconfig.make ~heap_bytes ()) in
  let nw_ = match config.workers with Some w -> max 1 w | None -> 0 in
  let store_ =
    match config.mode with
    | Object_mode -> None
    | Facade_mode ->
        let s = Store.create () in
        Store.register_thread s 0;
        for t = 1 to nw_ do
          Store.register_thread s t
        done;
        Some s
  in
  let c =
    {
      config;
      heap_;
      clock_;
      store_;
      pool_ = None;
      data_objects = 0;
      page_records = 0;
      steps = 0;
      last_native = 0;
      last_pages = 0;
      wall_ = 0.0;
    }
  in
  Heap.alloc_many heap_ ~lifetime:Heap.Permanent ~bytes_each:512 ~count:512;
  let output, completed, oom_at =
    match
      Parallel.Pool.with_pool_opt config.workers (fun p ->
          c.pool_ <- p;
          body c)
    with
    | v -> (Some v, true, 0.0)
    | exception Heap.Out_of_memory { at_seconds; _ } -> (None, false, at_seconds)
  in
  sync_native c;
  let hs = Heap.stats heap_ in
  let metrics =
    {
      et = Clock.total clock_;
      gt = Clock.get clock_ Clock.Gc;
      peak_memory_mb =
        float_of_int (Heap.peak_memory_bytes heap_) /. float_of_int scaled_gb *. 1000.0;
      minor_gcs = hs.Heapsim.Gc_stats.minor_gcs;
      major_gcs = hs.Heapsim.Gc_stats.major_gcs;
      data_objects = c.data_objects;
      page_records = c.page_records;
      supersteps = c.steps;
      completed;
      oom_at;
      wall_seconds = c.wall_;
      per_thread_records =
        (match store_ with
        | None -> []
        | Some s ->
            List.concat_map
              (fun t ->
                match Store.thread_totals s ~thread:t with
                | Some tt -> [ (t, tt.Store.thread_records, tt.Store.thread_bytes) ]
                | None -> [])
              (List.init (nw_ + 1) Fun.id));
    }
  in
  { output = (if completed then output else None); metrics }
