/* CPU-time clocks and CPU affinity for the benchmark (Linux).

   The end-to-end figures are CPU time, not wall-clock time: on a shared
   host other tenants and other processes take the CPU away for seconds
   at a time, and a process's CPU clock does not advance while it waits
   (on a paravirtualised kernel, stolen time is not charged to it
   either). */

#define _GNU_SOURCE
#include <sched.h>
#include <sys/types.h>
#include <time.h>

#include <caml/mlvalues.h>

/* CPU time of process [pid], all its threads, in nanoseconds; pid 0 is
   this process.  -1 when the clock cannot be read. */
value perfbench_cpu_ns(value pid)
{
  clockid_t clk = CLOCK_PROCESS_CPUTIME_ID;
  struct timespec ts;
  if (Long_val(pid) != 0 && clock_getcpuclockid((pid_t)Long_val(pid), &clk) != 0)
    return Val_long(-1);
  if (clock_gettime(clk, &ts) != 0)
    return Val_long(-1);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}

/* the CPUs this process may run on, as a bit mask of CPUs 0..61 */
value perfbench_allowed_cpus(value unit)
{
  cpu_set_t set;
  long mask = 0;
  (void)unit;
  if (sched_getaffinity(0, sizeof set, &set) != 0)
    return Val_long(0);
  for (int c = 0; c < 62; c++)
    if (CPU_ISSET(c, &set))
      mask |= 1L << c;
  return Val_long(mask);
}

/* run this process, and the children it starts later, on [cpu] only */
value perfbench_pin_cpu(value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Long_val(cpu), &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}
