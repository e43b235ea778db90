(* Tier-2 vs tier-1 differential: the closure compiler must be
   observationally identical to the quickened interpreter — results,
   printed output, step counts, heap totals, page-store totals, facade
   pool peaks — over every shipped sample, sequentially and under every
   worker-pool size, plus directed tests that force each deopt trigger
   (polymorphic receiver, monitor region, step-budget expiry) and check
   the interpreter resumes bit-exactly. *)

open Jir
module B = Builder
module I = Facade_vm.Interp
module Stats = Facade_vm.Exec_stats
module Store = Pagestore.Store
module Heap = Heapsim.Heap

let int_t = Jtype.Prim Jtype.Int
let ctor = Facade_compiler.Transform.constructor_name

let empty_init () =
  let m = B.create ctor in
  B.ret (B.entry m) None;
  B.finish m

let big_heap () = Heap.create (Heapsim.Hconfig.make ~heap_bytes:(1 lsl 26) ())

(* Same observables as the parallel differential in test_parallel: one
   line per quantity the tier must preserve. Inline-cache hit/miss
   counters are deliberately absent — field sites and compile-time-cold
   call sites guard against the live cache word, but warm virtual sites
   compile against a snapshot, so those counters may legally drift
   while everything observable stays exact. *)
let fingerprint ?workers ?(tier2 = false) pl =
  let heap = big_heap () in
  let o = I.run_facade ~heap ~quicken:true ?workers ~tier2 ~tier2_hot:2 pl in
  let gs = Heap.stats heap in
  let records, live =
    match o.I.store_stats with
    | Some st -> (st.Store.records_allocated, st.Store.live_pages)
    | None -> (0, 0)
  in
  let result =
    match o.I.result with Some v -> Facade_vm.Value.to_string v | None -> "-"
  in
  let pool_peaks =
    Hashtbl.fold (fun tid idx acc -> (tid, idx) :: acc) o.I.stats.Stats.max_pool_index []
    |> List.sort compare
    |> List.map (fun (t, i) -> Printf.sprintf "%d:%d" t i)
    |> String.concat ","
  in
  [
    "result=" ^ result;
    Printf.sprintf "facades=%d locks_peak=%d" o.I.facades_allocated o.I.locks_peak;
    Printf.sprintf "page_records=%d steps=%d" o.I.stats.Stats.page_records
      o.I.stats.Stats.steps;
    Printf.sprintf "store_records=%d live_pages=%d" records live;
    Printf.sprintf "heap_objects=%d heap_bytes=%d" gs.Heapsim.Gc_stats.objects_allocated
      gs.Heapsim.Gc_stats.bytes_allocated;
    Printf.sprintf "native=%d live_objects=%d live_bytes=%d" (Heap.native_bytes heap)
      (Heap.live_objects heap) (Heap.live_bytes heap);
    "pool_peaks=" ^ pool_peaks;
  ]
  @ Stats.output_lines o.I.stats

let test_facade_differential () =
  List.iter
    (fun (s : Samples.sample) ->
      let pl = Facade_compiler.Pipeline.compile ~spec:s.Samples.spec s.Samples.program in
      let base = fingerprint pl in
      Alcotest.(check (list string))
        (Printf.sprintf "%s: tier2 sequential matches tier1" s.Samples.name)
        base
        (fingerprint ~tier2:true pl);
      List.iter
        (fun w ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s: tier2 workers=%d matches tier1 sequential" s.Samples.name
               w)
            base
            (fingerprint ~workers:w ~tier2:true pl))
        [ 1; 2; 4; 8 ])
    Samples.all

(* Object mode: same program, both tiers, bit-equal outcome and steps. *)
let object_outcome ?(tier2 = false) ?(tier2_hot = 2) ?max_steps ~is_data p =
  let o = I.run_object ~is_data ?max_steps ~quicken:true ~tier2 ~tier2_hot p in
  ( (match o.I.result with Some v -> Facade_vm.Value.to_string v | None -> "-"),
    Stats.output_lines o.I.stats,
    o.I.stats.Stats.steps,
    o.I.stats )

(* A 60-iteration loop inside a method called exactly once, with a
   monitor region on iteration 55. At hot=2 the method never reaches its
   call threshold, so its loop runs on tier 1 under the compiled entry
   method. Sum of 0..59 either way. *)
let loop_once_program =
  let a_cls = B.cls "A" ~methods:[ empty_init () ] in
  let loop =
    let m =
      B.create ~static:true "loop"
        ~params:[ ("x", Jtype.Ref "A"); ("n", int_t) ]
        ~ret:int_t
    in
    let b0 = B.entry m in
    let hdr = B.block m in
    let body = B.block m in
    let mon = B.block m in
    let cont = B.block m in
    let exit_ = B.block m in
    let i = B.fresh m int_t in
    let acc = B.fresh m int_t in
    let one = B.fresh m int_t in
    let trip = B.fresh m int_t in
    let c = B.fresh m int_t in
    let is_trip = B.fresh m int_t in
    B.const_i b0 i 0;
    B.const_i b0 acc 0;
    B.const_i b0 one 1;
    B.const_i b0 trip 55;
    B.jump b0 hdr;
    B.binop hdr c Ir.Lt i "n";
    B.branch hdr c ~then_:body ~else_:exit_;
    B.binop body is_trip Ir.Eq i trip;
    B.branch body is_trip ~then_:mon ~else_:cont;
    B.monitor_enter mon "x";
    B.monitor_exit mon "x";
    B.jump mon cont;
    B.binop cont acc Ir.Add acc i;
    B.binop cont i Ir.Add i one;
    B.jump cont hdr;
    B.ret exit_ (Some acc);
    B.finish m
  in
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    let b = B.entry m in
    let a = B.fresh m (Jtype.Ref "A") in
    let n = B.fresh m int_t in
    let r = B.fresh m int_t in
    B.new_obj b a "A";
    B.call b ~recv:a ~kind:Ir.Special ~cls:"A" ~name:ctor [];
    B.const_i b n 60;
    B.call b ~ret:r ~kind:Ir.Static ~cls:"Main" ~name:"loop" [ a; n ];
    B.ret b (Some r);
    B.finish m
  in
  Program.make ~entry:("Main", "main") [ a_cls; B.cls "Main" ~methods:[ loop; main ] ]

let test_object_differential () =
  let samples =
    List.map
      (fun (s : Samples.sample) ->
        let cl =
          (Facade_compiler.Pipeline.compile ~spec:s.Samples.spec s.Samples.program)
            .Facade_compiler.Pipeline.classification
        in
        (s.Samples.name, s.Samples.program, Facade_compiler.Classify.is_data_class cl))
      Samples.all
  in
  List.iter
    (fun (name, program, is_data) ->
      let r1, out1, steps1, _ = object_outcome ~is_data program in
      let r2, out2, steps2, st2 = object_outcome ~tier2:true ~is_data program in
      Alcotest.(check string) (name ^ ": result") r1 r2;
      Alcotest.(check (list string)) (name ^ ": output") out1 out2;
      Alcotest.(check int) (name ^ ": steps") steps1 steps2;
      Alcotest.(check bool)
        (name ^ ": tier2 actually ran")
        true
        (st2.Stats.tier2_compiles > 0 && st2.Stats.tier2_entries > 0))
    (samples @ [ ("loop_once", loop_once_program, fun _ -> false) ])

(* Thread bodies run once per logical thread, like the entry method, so
   they compile on first dispatch: the optimized [threads] P', run the
   way [facade_cli run threads] runs it (default [hot]), enters compiled
   code three times — main and both [run()] bodies — and never through
   a loop header. *)
let test_thread_bodies_compile_at_spawn () =
  let s = List.find (fun s -> s.Samples.name = "threads") Samples.all in
  let pl0 = Facade_compiler.Pipeline.compile ~spec:s.Samples.spec s.Samples.program in
  let pl, rep = Opt.Driver.optimize_pipeline pl0 in
  let feedback =
    {
      Facade_vm.Compile_tier.fb_mono = rep.Opt.Driver.tier_mono;
      fb_leaves = rep.Opt.Driver.tier_leaves;
    }
  in
  let obs (o : I.outcome) =
    ( (match o.I.result with Some v -> Facade_vm.Value.to_string v | None -> "-"),
      Stats.output_lines o.I.stats,
      o.I.stats.Stats.steps )
  in
  let t1 = I.run_facade ~quicken:true pl in
  let t2 = I.run_facade ~quicken:true ~tier2:true ~tier2_feedback:feedback pl in
  Alcotest.(check (triple string (list string) int)) "facade: tier2 == tier1" (obs t1)
    (obs t2);
  Alcotest.(check int) "main and both thread bodies enter compiled code" 3
    t2.I.stats.Stats.tier2_entries;
  Alcotest.(check int) "no loop-header entries" 0 t2.I.stats.Stats.osr_entries;
  let cl = pl0.Facade_compiler.Pipeline.classification in
  let is_data = Facade_compiler.Classify.is_data_class cl in
  let r1, out1, steps1, _ = object_outcome ~tier2_hot:8 ~is_data s.Samples.program in
  let r2, out2, steps2, _ =
    object_outcome ~tier2:true ~tier2_hot:8 ~is_data s.Samples.program
  in
  Alcotest.(check string) "object: result" r1 r2;
  Alcotest.(check (list string)) "object: output" out1 out2;
  Alcotest.(check int) "object: steps" steps1 steps2

(* ---------- directed deopt triggers ---------- *)

(* A virtual call site warmed monomorphically on [A], compiled, then fed
   a [B2] receiver: the compiled guard must raise, and tier-1 must
   resume at the call with identical accounting. The call is routed
   through a static helper so the site lives in a method that tiers up
   (the entry method would also work, but this mirrors how profiled hot
   methods reach the compiler in real runs). *)
let flip_program =
  let combine_m ret_v =
    let m = B.create "combine" ~ret:int_t in
    let b = B.entry m in
    let r = B.fresh m int_t in
    B.const_i b r ret_v;
    B.ret b (Some r);
    B.finish m
  in
  let a_cls = B.cls "A" ~methods:[ empty_init (); combine_m 1 ] in
  let b_cls = B.cls "B2" ~super:"A" ~methods:[ empty_init (); combine_m 2 ] in
  let work =
    let m = B.create ~static:true "work" ~params:[ ("x", Jtype.Ref "A") ] ~ret:int_t in
    let b = B.entry m in
    let r = B.fresh m int_t in
    B.call b ~ret:r ~recv:"x" ~kind:Ir.Virtual ~cls:"A" ~name:"combine" [];
    B.ret b (Some r);
    B.finish m
  in
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    let b = B.entry m in
    let a = B.fresh m (Jtype.Ref "A") in
    let bb = B.fresh m (Jtype.Ref "A") in
    let r = B.fresh m int_t in
    let acc = B.fresh m int_t in
    B.new_obj b a "A";
    B.call b ~recv:a ~kind:Ir.Special ~cls:"A" ~name:ctor [];
    B.new_obj b bb "B2";
    B.call b ~recv:bb ~kind:Ir.Special ~cls:"B2" ~name:ctor [];
    B.const_i b acc 0;
    for _ = 1 to 6 do
      B.call b ~ret:r ~kind:Ir.Static ~cls:"Main" ~name:"work" [ a ];
      B.binop b acc Ir.Add acc r
    done;
    B.call b ~ret:r ~kind:Ir.Static ~cls:"Main" ~name:"work" [ bb ];
    B.binop b acc Ir.Add acc r;
    B.ret b (Some acc);
    B.finish m
  in
  Program.make ~entry:("Main", "main")
    [ a_cls; b_cls; B.cls "Main" ~methods:[ work; main ] ]

let test_polymorphic_deopt () =
  let is_data _ = false in
  (* hot=4: the inline cache in [work] warms on the first interpreted
     call, compilation snapshots it at the fourth, and the seventh call
     flips the receiver class. *)
  let r1, out1, steps1, _ = object_outcome ~is_data ~tier2_hot:4 flip_program in
  let r2, out2, steps2, st2 =
    object_outcome ~tier2:true ~tier2_hot:4 ~is_data flip_program
  in
  Alcotest.(check string) "result" "8" r2;
  Alcotest.(check string) "tier1 = tier2 result" r1 r2;
  Alcotest.(check (list string)) "output" out1 out2;
  Alcotest.(check int) "steps" steps1 steps2;
  Alcotest.(check bool) "took the deopt path" true (st2.Stats.tier2_deopts > 0)

(* A compiled method whose body holds a monitor region: tier 2 treats
   monitors as an unconditional lock-contention deopt, so every compiled
   entry bails to tier 1, and after {!Compile_tier.deopt_limit} strikes
   the method retires to T_dead. Outcome must not change at any point. *)
let monitor_program =
  let a_cls = B.cls "A" ~fields:[ B.field "n" int_t ] ~methods:[ empty_init () ] in
  let locked =
    let m = B.create ~static:true "locked" ~params:[ ("x", Jtype.Ref "A") ] ~ret:int_t in
    let b = B.entry m in
    let r = B.fresh m int_t in
    B.monitor_enter b "x";
    B.fload b ~dst:r ~obj:"x" ~field:"n";
    B.monitor_exit b "x";
    B.ret b (Some r);
    B.finish m
  in
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    let b = B.entry m in
    let a = B.fresh m (Jtype.Ref "A") in
    let one = B.fresh m int_t in
    let r = B.fresh m int_t in
    let acc = B.fresh m int_t in
    B.new_obj b a "A";
    B.call b ~recv:a ~kind:Ir.Special ~cls:"A" ~name:ctor [];
    B.const_i b one 1;
    B.fstore b ~obj:a ~field:"n" ~src:one;
    B.const_i b acc 0;
    for _ = 1 to 14 do
      B.call b ~ret:r ~kind:Ir.Static ~cls:"Main" ~name:"locked" [ a ];
      B.binop b acc Ir.Add acc r
    done;
    B.ret b (Some acc);
    B.finish m
  in
  Program.make ~entry:("Main", "main") [ a_cls; B.cls "Main" ~methods:[ locked; main ] ]

let test_monitor_deopt_and_retire () =
  let is_data _ = false in
  let r1, out1, steps1, _ = object_outcome ~is_data ~tier2_hot:4 monitor_program in
  let r2, out2, steps2, st2 =
    object_outcome ~tier2:true ~tier2_hot:4 ~is_data monitor_program
  in
  Alcotest.(check string) "result" "14" r2;
  Alcotest.(check string) "tier1 = tier2 result" r1 r2;
  Alcotest.(check (list string)) "output" out1 out2;
  Alcotest.(check int) "steps" steps1 steps2;
  (* 14 calls at hot=4: entries from the 4th on deopt until the method
     retires at the limit. *)
  Alcotest.(check bool)
    (Printf.sprintf "retired after %d deopts" Facade_vm.Compile_tier.deopt_limit)
    true
    (st2.Stats.tier2_deopts >= Facade_vm.Compile_tier.deopt_limit)

(* Step-budget expiry inside compiled code: the bulk-segment precheck
   deopts, tier 1 replays, and the budget error fires at exactly the
   same instruction as a pure tier-1 run. *)
let test_budget_deopt () =
  let s = List.find (fun s -> s.Samples.name = "linked_list") Samples.all in
  let cl =
    (Facade_compiler.Pipeline.compile ~spec:s.Samples.spec s.Samples.program)
      .Facade_compiler.Pipeline.classification
  in
  let is_data c = Facade_compiler.Classify.is_data_class cl c in
  let _, _, total, _ = object_outcome ~is_data s.Samples.program in
  let cut = total / 2 in
  let budget_err = I.Vm_error "step budget exceeded" in
  Alcotest.check_raises "tier1 trips the budget" budget_err (fun () ->
      ignore (object_outcome ~is_data ~max_steps:cut s.Samples.program));
  Alcotest.check_raises "tier2 trips the budget identically" budget_err (fun () ->
      ignore (object_outcome ~tier2:true ~tier2_hot:1 ~is_data ~max_steps:cut
                s.Samples.program));
  (* With the budget exactly at the total, both tiers complete. *)
  let _, _, steps2, _ =
    object_outcome ~tier2:true ~tier2_hot:1 ~is_data ~max_steps:total s.Samples.program
  in
  Alcotest.(check int) "same total under the exact budget" total steps2

(* A virtual site whose receiver flips after the method compiled, in a
   method compiled by call count. [B2] inherits [combine] from [A], so CHA
   proves the site monomorphic: the compiled guard snapshots [A], and
   every [B2] receiver misses it and delegates the one dispatch to the
   interpreter. The interpreter re-warms the live cache word on [B2],
   which no longer matches the snapshot; the compiled code stays as it
   is, never deopts and never recompiles. *)
let drift_program =
  let combine =
    let m = B.create "combine" ~ret:int_t in
    let b = B.entry m in
    let r = B.fresh m int_t in
    B.const_i b r 1;
    B.ret b (Some r);
    B.finish m
  in
  let a_cls = B.cls "A" ~methods:[ empty_init (); combine ] in
  let b_cls = B.cls "B2" ~super:"A" ~methods:[ empty_init () ] in
  let work =
    let m = B.create ~static:true "work" ~params:[ ("x", Jtype.Ref "A") ] ~ret:int_t in
    let b = B.entry m in
    let r = B.fresh m int_t in
    B.call b ~ret:r ~recv:"x" ~kind:Ir.Virtual ~cls:"A" ~name:"combine" [];
    B.ret b (Some r);
    B.finish m
  in
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    let b = B.entry m in
    let a = B.fresh m (Jtype.Ref "A") in
    let bb = B.fresh m (Jtype.Ref "A") in
    let r = B.fresh m int_t in
    let acc = B.fresh m int_t in
    B.new_obj b a "A";
    B.call b ~recv:a ~kind:Ir.Special ~cls:"A" ~name:ctor [];
    B.new_obj b bb "B2";
    B.call b ~recv:bb ~kind:Ir.Special ~cls:"B2" ~name:ctor [];
    B.const_i b acc 0;
    List.iter
      (fun x ->
        B.call b ~ret:r ~kind:Ir.Static ~cls:"Main" ~name:"work" [ x ];
        B.binop b acc Ir.Add acc r)
      [ a; a; a; a; a; a; bb; bb; bb; bb ];
    B.ret b (Some acc);
    B.finish m
  in
  Program.make ~entry:("Main", "main")
    [ a_cls; b_cls; B.cls "Main" ~methods:[ work; main ] ]

let test_ic_drift_delegates () =
  let is_data _ = false in
  (* hot=4: [work] compiles at its fourth call with the site warm on [A];
     calls 7-10 pass [B2]. *)
  let r1, out1, steps1, _ = object_outcome ~is_data ~tier2_hot:4 drift_program in
  let r2, out2, steps2, st2 =
    object_outcome ~tier2:true ~tier2_hot:4 ~is_data drift_program
  in
  Alcotest.(check string) "result" "10" r2;
  Alcotest.(check string) "tier1 = tier2 result" r1 r2;
  Alcotest.(check (list string)) "output" out1 out2;
  Alcotest.(check int) "steps" steps1 steps2;
  Alcotest.(check bool) "work compiled" true (st2.Stats.tier2_compiles >= 2);
  Alcotest.(check int) "drifted site delegates, never deopts" 0 st2.Stats.tier2_deopts;
  Alcotest.(check int) "no recompiles" 0 st2.Stats.tier2_recompiles

(* [loop_once_program]'s loop, entered once, mid-call, with a deopt
   inside it. At hot=2 the one call never reaches the threshold: the loop
   runs on tier 1 under the compiled entry, no loop header enters
   compiled code, and nothing deopts. At hot=1 the method compiles on its
   first call, so the loop runs compiled and the monitor region on
   iteration 55 deopts inside it; tier 1 must resume bit-exactly. (The
   test's name dates from on-stack replacement, the loop's old way into
   compiled code.) *)
let test_loop_entry_deopt_inside () =
  let is_data _ = false in
  let r1, out1, steps1, _ = object_outcome ~is_data loop_once_program in
  Alcotest.(check string) "result" "1770" r1;
  let r2, out2, steps2, st2 = object_outcome ~tier2:true ~is_data loop_once_program in
  Alcotest.(check string) "hot=2: tier1 = tier2 result" r1 r2;
  Alcotest.(check (list string)) "hot=2: output" out1 out2;
  Alcotest.(check int) "hot=2: steps" steps1 steps2;
  Alcotest.(check int) "hot=2: only the entry compiles" 1 st2.Stats.tier2_compiles;
  Alcotest.(check int) "hot=2: no loop-header entries" 0 st2.Stats.osr_entries;
  Alcotest.(check int) "hot=2: no deopts" 0 st2.Stats.tier2_deopts;
  let r3, out3, steps3, st3 =
    object_outcome ~tier2:true ~tier2_hot:1 ~is_data loop_once_program
  in
  Alcotest.(check string) "hot=1: tier1 = tier2 result" r1 r3;
  Alcotest.(check (list string)) "hot=1: output" out1 out3;
  Alcotest.(check int) "hot=1: steps" steps1 steps3;
  Alcotest.(check bool) "hot=1: loop method compiled" true (st3.Stats.tier2_compiles >= 2);
  Alcotest.(check bool) "hot=1: deopted inside the compiled loop" true
    (st3.Stats.tier2_deopts > 0);
  Alcotest.(check int) "hot=1: no loop-header entries" 0 st3.Stats.osr_entries

(* A tier built with [make_tier] persists compiled code across runs of
   the same linked program — the warm-service pattern the benchmarks
   use. The second run must stay observably identical to tier 1 while
   compiling nothing: all its tier-2 entries hit code the first run
   installed. *)
let test_shared_tier () =
  let s = List.find (fun s -> s.Samples.name = "collections") Samples.all in
  let cl =
    (Facade_compiler.Pipeline.compile ~spec:s.Samples.spec s.Samples.program)
      .Facade_compiler.Pipeline.classification
  in
  let is_data c = Facade_compiler.Classify.is_data_class cl c in
  let rp = Facade_vm.Link.object_program ~is_data ~quicken:true s.Samples.program in
  let obs (o : I.outcome) =
    ( (match o.I.result with Some v -> Facade_vm.Value.to_string v | None -> "-"),
      Stats.output_lines o.I.stats,
      o.I.stats.Stats.steps )
  in
  let o1 = obs (I.run_object_linked rp) in
  let tier = I.make_tier ~hot:2 rp in
  let w1 = I.run_object_linked ~tier rp in
  (* Call counters persist in the tier, so run 2 may still tip late
     methods over the threshold; by run 3 every reachable method has
     either compiled or retired and the tier is steady-state. *)
  let w2 = I.run_object_linked ~tier rp in
  let w3 = I.run_object_linked ~tier rp in
  Alcotest.(check bool) "first warm run compiles" true
    (w1.I.stats.Stats.tier2_compiles > 0);
  Alcotest.(check int) "steady-state run compiles nothing" 0
    w3.I.stats.Stats.tier2_compiles;
  Alcotest.(check bool) "steady-state run enters compiled code" true
    (w3.I.stats.Stats.tier2_entries > 0);
  Alcotest.(check (triple string (list string) int)) "warm run == tier1" o1 (obs w1);
  Alcotest.(check (triple string (list string) int)) "second run == tier1" o1 (obs w2);
  Alcotest.(check (triple string (list string) int)) "steady run == tier1" o1 (obs w3)

(* The same warm-service pattern in facade mode: compiled facade
   segments take the page pool from the running [st] at segment entry
   instead of capturing one run's store, so a [make_tier] tier is
   shareable across [run_facade] runs of the same linked pipeline. With
   hot=1 every called method compiles during the first warm run, and
   the second run must compile and recompile nothing while staying
   observably identical to tier 1. *)
let test_shared_facade_tier () =
  let s = List.find (fun s -> s.Samples.name = "collections") Samples.all in
  let pl = Facade_compiler.Pipeline.compile ~spec:s.Samples.spec s.Samples.program in
  let obs (o : I.outcome) =
    ( (match o.I.result with Some v -> Facade_vm.Value.to_string v | None -> "-"),
      Stats.output_lines o.I.stats,
      o.I.stats.Stats.steps )
  in
  let o1 = obs (I.run_facade ~quicken:true pl) in
  (* The pipeline's quickened link is cached, so this resolved program
     is the one [run_facade ~quicken:true] executes. *)
  let rp = Facade_vm.Link.facade_program ~quicken:true pl in
  let tier = I.make_tier ~hot:1 rp in
  let w1 = I.run_facade ~quicken:true ~tier pl in
  let w2 = I.run_facade ~quicken:true ~tier pl in
  Alcotest.(check bool) "first warm run compiles" true
    (w1.I.stats.Stats.tier2_compiles > 0);
  Alcotest.(check int) "second run compiles nothing" 0
    w2.I.stats.Stats.tier2_compiles;
  Alcotest.(check int) "second run recompiles nothing" 0
    w2.I.stats.Stats.tier2_recompiles;
  Alcotest.(check bool) "second run enters compiled code" true
    (w2.I.stats.Stats.tier2_entries > 0);
  Alcotest.(check (triple string (list string) int)) "warm run == tier1" o1 (obs w1);
  Alcotest.(check (triple string (list string) int)) "second run == tier1" o1 (obs w2)

let () =
  Alcotest.run "tier"
    [
      ( "differential",
        [
          Alcotest.test_case "facade: tier2 == tier1, all samples x workers" `Quick
            test_facade_differential;
          Alcotest.test_case "object: tier2 == tier1, all samples" `Quick
            test_object_differential;
          Alcotest.test_case "shared tier stays warm across runs" `Quick
            test_shared_tier;
          Alcotest.test_case "shared facade tier: zero compiles on run 2" `Quick
            test_shared_facade_tier;
          Alcotest.test_case "thread bodies compile at spawn" `Quick
            test_thread_bodies_compile_at_spawn;
        ] );
      ( "deopt",
        [
          Alcotest.test_case "osr: loop entry mid-call, deopt inside" `Quick
            test_loop_entry_deopt_inside;
          Alcotest.test_case "IC drift at a CHA-mono site delegates" `Quick
            test_ic_drift_delegates;
          Alcotest.test_case "polymorphic receiver" `Quick test_polymorphic_deopt;
          Alcotest.test_case "monitor region retires the method" `Quick
            test_monitor_deopt_and_retire;
          Alcotest.test_case "step budget" `Quick test_budget_deopt;
        ] );
    ]
