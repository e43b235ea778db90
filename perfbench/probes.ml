(* Layer probes for the traced run: the page store's, heap simulator's and
   domain pool's primitive costs, timed from outside through their public
   functions. Each is the median over several blocks, so one scheduler
   hiccup does not set the figure. *)

module Store = Pagestore.Store

let blocks = 7

(* Median nanoseconds per call of [op] over [blocks] blocks of [n] calls. *)
let ns_per_op ~n op =
  let per_block () =
    let t0 = Util.now () in
    for i = 1 to n do
      op i
    done;
    (Util.now () -. t0) *. 1e9 /. float_of_int n
  in
  Util.median (List.init blocks (fun _ -> per_block ()))

(* Per-run page-store set-up at a run's sizes: what [run_facade] builds
   before its first instruction (store, lock pool, thread-0 facade pool). *)
let run_setup_us ~bounds =
  ns_per_op ~n:200 (fun _ ->
      let st = Store.create () in
      Store.register_thread st 0;
      ignore (Sys.opaque_identity (Pagestore.Lock_pool.create ()));
      ignore (Sys.opaque_identity (Pagestore.Facade_pool.create ~bounds)))
  /. 1e3

let page_ops () =
  let st = Store.create () in
  Store.register_thread st 0;
  Store.iteration_start st ~thread:0;
  let a = Store.alloc_record st ~thread:0 ~type_id:1 ~data_bytes:16 in
  Store.set_f64 st a ~offset:4 1.5;
  let sink = ref 0. in
  let read = ns_per_op ~n:1_000_000 (fun _ -> sink := !sink +. Store.get_f64 st a ~offset:4) in
  let write = ns_per_op ~n:1_000_000 (fun i -> Store.set_i64 st a ~offset:8 i) in
  ignore (Sys.opaque_identity !sink);
  let alloc =
    ns_per_op ~n:200_000 (fun i ->
        (* recycle as an iteration boundary would *)
        if i land 0xFFFF = 0 then begin
          Store.iteration_end st ~thread:0;
          Store.iteration_start st ~thread:0
        end;
        ignore (Store.alloc_record st ~thread:0 ~type_id:1 ~data_bytes:16))
  in
  Store.iteration_end st ~thread:0;
  let locks = Pagestore.Lock_pool.create () in
  let l = Store.alloc_record st ~thread:0 ~type_id:1 ~data_bytes:16 in
  let lock =
    ns_per_op ~n:200_000 (fun _ ->
        Pagestore.Lock_pool.monitor_enter locks st l ~thread:0;
        Pagestore.Lock_pool.monitor_exit locks st l ~thread:0)
  in
  (read, write, alloc, lock)

(* One [Heap.alloc] charge, on a heap large enough that the probe
   measures charging plus the GCs the allocation rate triggers. *)
let heap_charge_ns () =
  let h = Heapsim.Heap.create (Heapsim.Hconfig.make ~heap_bytes:(64 lsl 20) ()) in
  ns_per_op ~n:500_000 (fun _ -> Heapsim.Heap.alloc h ~lifetime:Heapsim.Heap.Temp ~bytes:32)

let pool_create_ms workers =
  Util.median
    (List.init 5 (fun _ ->
         let t0 = Util.now () in
         Parallel.Pool.shutdown (Parallel.Pool.create ~workers);
         (Util.now () -. t0) *. 1e3))

(* The facade-pool bounds of a pagerank run: the sizes [run_setup_us]
   builds at. *)
let pagerank_bounds () =
  let s = Samples.pagerank in
  Facade_compiler.Bounds.as_array
    (Facade_compiler.Pipeline.compile ~spec:s.Samples.spec s.Samples.program)
      .Facade_compiler.Pipeline.bounds

let metrics () =
  let read, write, alloc, lock = page_ops () in
  let bounds = pagerank_bounds () and workers = Util.nproc () in
  Util.
    [
      m "pagestore.run_setup_us" "us" (run_setup_us ~bounds);
      m "pagestore.read_f64_ns" "ns" read;
      m "pagestore.write_i64_ns" "ns" write;
      m "pagestore.alloc_record_ns" "ns" alloc;
      m "pagestore.lock_enter_exit_ns" "ns" lock;
      m "heapsim.charge_ns" "ns" (heap_charge_ns ());
      m "parallel.pool_create_ms" "ms" (pool_create_ms workers);
    ]
