/* Clock and resource queries that OCaml's Unix library does not expose:
   a monotonic nanosecond clock, CPU time and peak resident set size of
   this process and of its waited-for children, and the clock tick rate
   of /proc/<pid>/stat. */
#include <time.h>
#include <unistd.h>
#include <sys/resource.h>
#include <caml/mlvalues.h>

value perfbench_monotonic_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + (long)ts.tv_nsec);
}

static long cpu_us(int who)
{
  struct rusage ru;
  if (getrusage(who, &ru) != 0) return 0;
  return ((long)ru.ru_utime.tv_sec + (long)ru.ru_stime.tv_sec) * 1000000L
         + (long)ru.ru_utime.tv_usec + (long)ru.ru_stime.tv_usec;
}

value perfbench_self_cpu_us(value unit)
{
  (void)unit;
  return Val_long(cpu_us(RUSAGE_SELF));
}

value perfbench_children_cpu_us(value unit)
{
  (void)unit;
  return Val_long(cpu_us(RUSAGE_CHILDREN));
}

value perfbench_children_maxrss_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  if (getrusage(RUSAGE_CHILDREN, &ru) != 0) return Val_long(0);
  return Val_long(ru.ru_maxrss);
}

value perfbench_clock_ticks(value unit)
{
  (void)unit;
  return Val_long(sysconf(_SC_CLK_TCK));
}
