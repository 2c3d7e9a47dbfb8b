/* Monotonic nanosecond clock for span timestamps: Unix.gettimeofday only
   resolves microseconds, coarser than the shortest spans measured. */
#include <time.h>
#include <caml/mlvalues.h>

value perfbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}
