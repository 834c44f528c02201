(* The benchmark's two clocks, both in nanoseconds.

   [Wall] is CLOCK_MONOTONIC. It times spans, set-up, the length of a run,
   and requests that run on several domains.

   [Cpu] is CLOCK_PROCESS_CPUTIME_ID: the CPU time of every thread of the
   process. It times requests that run on one domain, where it is the
   request's latency minus the time the process waited for a processor.
   On a shared VM that wait includes steal, time the host gave the VM's
   virtual CPU to another tenant, which a Linux guest built with
   CONFIG_PARAVIRT_TIME_ACCOUNTING leaves out of CPU time. On several
   domains CPU time sums over them, so it is no latency there. *)

type t = Wall | Cpu

external cpu_ns : unit -> int64 = "perfbench_process_cpu_ns"

let now_ns () = Monotonic_clock.now ()

let read = function Wall -> now_ns () | Cpu -> cpu_ns ()

let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e9

let seconds_since t0 = seconds_between t0 (now_ns ())

(* [time c f] runs [f] and returns its result and the seconds it took on
   clock [c]. *)
let time c f =
  let t0 = read c in
  let r = f () in
  (r, seconds_between t0 (read c))
