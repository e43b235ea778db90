(** The tier-2 closure compiler: the profile-guided native tier above
    the quickened interpreter.

    Resolved methods are translated into directly-composed OCaml
    closures: one closure per instruction, pre-composed per basic block,
    with operator/accessor/operand dispatch hoisted to compile time,
    field access monomorphized against warm inline-cache snapshots, and
    leaf callees devirtualized and inlined. Compiled code installs
    behind the interpreter's dispatch hook ({!Interp}'s [run_method])
    and is semantically identical to tier-1: results, output, step
    counts, instruction mix, heap totals, and pool peaks all match, and
    the differential suite asserts it over every sample.

    Tier-up has one trigger per method. Methods that run once per
    logical thread — the entry method and every thread's [run()] body —
    compile when first dispatched; every other method compiles after
    [hot] calls. A method compiles at most once, into one entry point
    that runs it from its first block.

    When a compiled assumption breaks — polymorphic receiver, monitor
    (lock-contention) region, or the step budget expiring inside
    compiled code — the guard raises {!Vm_state.Tier_deopt} {e before}
    the faulting instruction's accounting, and the handler reconstructs
    tier-1 execution at the equivalent (block, pc) on the very same
    slot-indexed frame array, recording a [tier_deopt] obs instant. A
    method that deopts {!deopt_limit} times retires to tier-1. *)

type feedback = {
  fb_mono : string list;
      (** method names with a single implementation, per the opt
          pipeline's class-hierarchy analysis: inline-cache misses on
          these delegate one dispatch to the interpreter instead of
          deoptimizing the whole method *)
  fb_leaves : (string * string) list;
      (** (class, method) pairs the opt pipeline judged inline-worthy;
          they get the wider inline budget (the local structural leaf
          test still applies) *)
}

val no_feedback : feedback

val deopt_limit : int
(** Deopts tolerated per method before its compiled code is retired. *)

val make :
  ?hot:int ->
  ?feedback:feedback ->
  hooks:Vm_state.hooks ->
  Resolved.program ->
  Vm_state.tier
(** Build the tier state for a linked program: per-method code slots
    (all cold), trigger counters, the vtable-scan CHA table, and the
    leaf-inlining candidates. [hot] (default 8) is the call count at
    which {!Interp} compiles a method that is not once-per-thread. *)

val compile_into : Vm_state.tier -> Vm_state.st -> int -> unit
(** [compile_into t st mx] compiles method [mx] and installs it as
    [T_fn] (abstract or oversized methods retire to [T_dead]); no-op if
    already installed. Racing installs from several domains are benign:
    compiled code is semantically identical to the interpreter, so
    correctness never depends on when — or whether — compilation
    happens. *)
