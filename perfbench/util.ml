(* Shared measurement helpers: clocks, process CPU and memory readings,
   order statistics, and the metric list a workload returns. *)

let now = Unix.gettimeofday

(* Process CPU seconds (user + system) of this process, all domains and
   threads included. *)
let self_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* /proc files report a length of 0, so read them line by line. *)
let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
      in
      go [])

(* Linux reports utime/stime in clock ticks; USER_HZ is 100 on every
   mainstream Linux ABI. *)
let clock_ticks_per_s = 100.

(* CPU seconds (user + system) of another process, from
   /proc/<pid>/stat fields 14 and 15. The command field may contain
   spaces, so fields are counted from the closing parenthesis. *)
let proc_cpu pid =
  match read_lines (Printf.sprintf "/proc/%d/stat" pid) with
  | line :: _ ->
      let rest =
        let i = String.rindex line ')' in
        String.sub line (i + 2) (String.length line - i - 2)
      in
      let f = Array.of_list (String.split_on_char ' ' rest) in
      (* rest starts at field 3 (state): utime is field 14, stime 15 *)
      (float_of_string f.(11) +. float_of_string f.(12)) /. clock_ticks_per_s
  | [] -> failwith "empty /proc stat"

(* Clock ticks the hypervisor has stolen from this machine's CPUs (the
   steal column of /proc/stat, all CPUs). *)
let steal_ticks () =
  match read_lines "/proc/stat" with
  | line :: _ -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ -> float_of_string steal
      | _ -> 0.)
  | [] -> 0.

(* Peak resident set (VmHWM) of a process in MiB. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match
    List.find_opt
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (read_lines path)
  with
  | Some l ->
      let kb =
        String.split_on_char ' ' l
        |> List.filter_map int_of_string_opt
        |> List.hd
      in
      float_of_int kb /. 1024.
  | None -> failwith "no VmHWM in /proc status"

(* Reset this process's VmHWM to its current resident set (Linux
   clear_refs "5"), so a later peak_rss_mb covers what runs from here on
   and not the benchmark's own set-ups. Returns false if the kernel
   refused. *)
let reset_peak_rss () =
  Gc.compact ();
  match open_out "/proc/self/clear_refs" with
  | oc -> (
      match
        output_string oc "5";
        close_out oc
      with
      | () -> true
      | exception Sys_error _ -> false)
  | exception Sys_error _ -> false

let nproc () = max 1 (Domain.recommended_domain_count ())

(* {2 Order statistics} *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array, [q] in (0, 1]. *)
let pct (a : float array) q =
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median xs = pct (sorted xs) 0.5

(* Samples strictly beyond the nearest-rank percentile [q]. *)
let beyond n q = n - int_of_float (ceil (q *. float_of_int n))

let mean xs =
  match xs with [] -> nan | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let sum_f xs = List.fold_left ( +. ) 0. xs
let sum_i xs = List.fold_left ( + ) 0 xs

let ratio a b = if b = 0. then 0. else a /. b

(* {2 What a workload run returns} *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type result = {
  correct : bool;  (* every output and determinism check passed *)
  attempted : int;  (* jobs attempted in the timed phases *)
  failed : int;  (* errors, refusals and wrong outputs among them *)
  e2e : metric list;  (* end-to-end metrics, untraced *)
  layers : metric list;  (* per-layer metrics, traced run only *)
}

(* A failed check prints its reason and clears the run's [correct]. *)
type checks = { mutable ok : bool }

let checks () = { ok = true }

let check c cond fmt =
  Printf.ksprintf
    (fun msg ->
      if not cond then begin
        c.ok <- false;
        Printf.printf "CHECK FAILED: %s\n%!" msg
      end)
    fmt

(* Run [f] [n] times and return the median wall seconds and the last
   result, so set-up time is a median of repeated set-ups. Each earlier
   result is passed to [release] before the next set-up starts (to check
   it, stop it or let it go), so set-ups neither overlap nor pile up. *)
let repeat_setup ?(release = ignore) n f =
  let times = ref [] and last = ref None in
  for _ = 1 to n do
    Option.iter release !last;
    last := None;
    let t0 = now () in
    let v = f () in
    times := (now () -. t0) :: !times;
    last := Some v
  done;
  (median !times, Option.get !last)
