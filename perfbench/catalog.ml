(* The metric catalog, in the order BENCHMARK.json lists it. A run prints
   exactly these names: the end-to-end list untraced, the per-layer list
   traced. A per-layer metric of a layer the workload does not exercise
   reads 0 (that layer did no work); README.md maps each per-layer metric
   to the end-to-end metric it should move. *)

let e2e =
  [
    ("setup_s", "s");
    ("jobs_per_s", "1/s");
    ("job_p50_ms", "ms");
    ("cpu_ms_per_job", "ms");
    ("peak_rss_mb", "MB");
  ]

(* Layers whose self time the traced run reports, as [self_ms.<layer>]. *)
let span_layers =
  [
    "bench"; "workloads"; "compiler"; "opt"; "link"; "tier"; "vm"; "graphchi"; "hyracks";
    "gps"; "service"; "loadgen";
  ]

let per_layer =
  [
    ("workloads.gen_ms", "ms");
    ("compiler.compile_ms", "ms");
    ("compiler.ir_instrs", "count");
    ("opt.opt_ms", "ms");
    ("opt.instrs_before", "count");
    ("opt.instrs_after", "count");
    ("link.link_ms", "ms");
    ("tier.make_tier_ms", "ms");
    ("tier.warmup_compiles", "count");
    ("tier.compiles", "count");
    ("tier.entries", "count");
    ("tier.deopts", "count");
    ("tier.recompiles", "count");
    ("tier.osr_entries", "count");
    ("vm.run_ms", "ms");
    ("vm.steps_per_job", "count");
    ("vm.ic_hit_ratio", "ratio");
    ("vm.virtual_dispatches", "count");
    ("vm.intrinsic_dispatches", "count");
    ("vm.facades_allocated", "count");
    ("pagestore.records_allocated", "count");
    ("pagestore.pages_created", "count");
    ("pagestore.pages_recycled", "count");
    ("pagestore.recycle_ratio", "ratio");
    ("pagestore.peak_native_mb", "MB");
    ("pagestore.live_pages_end", "count");
    ("pagestore.locks_peak", "count");
    ("pagestore.run_setup_us", "us");
    ("pagestore.read_f64_ns", "ns");
    ("pagestore.write_i64_ns", "ns");
    ("pagestore.alloc_record_ns", "ns");
    ("pagestore.lock_enter_exit_ns", "ns");
    ("heapsim.minor_gcs", "count");
    ("heapsim.major_gcs", "count");
    ("heapsim.objects_allocated", "count");
    ("heapsim.charge_ns", "ns");
    ("heapsim.sim_gc_ms", "sim_ms");
    ("heapsim.sim_peak_heap_mb", "sim_MB");
    ("parallel.pool_create_ms", "ms");
    ("parallel.cpu_util", "ratio");
    ("parallel.wait_frac", "frac");
    ("parallel.thread_skew", "ratio");
    ("graphchi.run_ms", "ms");
    ("graphchi.sub_iterations", "count");
    ("hyracks.wc_run_ms", "ms");
    ("hyracks.sort_run_ms", "ms");
    ("hyracks.sort_runs", "count");
    ("gps.run_ms", "ms");
    ("gps.supersteps", "count");
    ("engines.sim_et_s", "sim_s");
    ("service.submit_rtt_us", "us");
    ("service.poll_rtt_us", "us");
    ("service.polls_per_job", "count");
    ("service.poll_interval_ms", "ms");
    ("service.queued_ms", "ms");
    ("service.run_ms", "ms");
    ("service.client_overhead_ms", "ms");
    ("service.rejects", "count");
    ("service.backpressure_retries", "count");
    ("service.daemon_cpu_util", "ratio");
    ("service.max_rate_jps", "1/s");
    ("service.p99_ms", "ms");
    ("loadgen.late_ms", "ms");
    ("bench.job_p90_ms", "ms");
    ("bench.failed_frac", "frac");
    ("bench.trace_overhead_frac", "frac");
    ("bench.reconcile_violations", "count");
  ]
  @ List.map (fun l -> ("self_ms." ^ l, "ms")) span_layers
