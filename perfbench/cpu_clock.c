/* CPU time of the whole process, in nanoseconds. */

#include <stdint.h>
#include <time.h>
#include <caml/alloc.h>
#include <caml/mlvalues.h>

value perfbench_process_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return caml_copy_int64((int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec);
}
