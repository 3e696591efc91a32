/* Monotonic host clock for the benchmark's timers and trace listener. */
#include <time.h>
#include <caml/mlvalues.h>

intnat perfbench_now_ns_untagged(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value perfbench_now_ns(value unit)
{
  return Val_long(perfbench_now_ns_untagged(unit));
}
