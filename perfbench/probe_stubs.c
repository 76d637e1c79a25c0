/* Process probes the OCaml Unix library does not expose: a monotonic
   clock for span timestamps and peak-RSS readings from getrusage and
   wait4. */

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

#include <errno.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>

/* Seconds on CLOCK_MONOTONIC: immune to wall-clock steps mid-run. */
CAMLprim value perfbench_monotonic(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}

/* Peak resident set of this process in KiB. */
CAMLprim value perfbench_maxrss_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  if (getrusage(RUSAGE_SELF, &ru) != 0)
    return Val_long(0);
  return Val_long(ru.ru_maxrss);
}

/* wait4(pid, WNOHANG?) -> (pid | 0 | -1, exited?, exit code | signal |
   errno, peak RSS in KiB of the child and its reaped descendants).
   OCaml's Unix.waitpid drops the rusage the kernel hands back. */
CAMLprim value perfbench_wait4(value vpid, value vnohang)
{
  CAMLparam2(vpid, vnohang);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t r;
  int pid = Int_val(vpid), flags = Bool_val(vnohang) ? WNOHANG : 0;
  caml_enter_blocking_section();
  r = wait4(pid, &status, flags, &ru);
  caml_leave_blocking_section();
  res = caml_alloc_tuple(4);
  Store_field(res, 0, Val_int(r));
  if (r <= 0) {
    Store_field(res, 1, Val_false);
    Store_field(res, 2, Val_int(r < 0 ? errno : 0));
    Store_field(res, 3, Val_long(0));
  } else {
    Store_field(res, 1, Val_bool(WIFEXITED(status)));
    Store_field(res, 2, Val_int(WIFEXITED(status) ? WEXITSTATUS(status) : WTERMSIG(status)));
    Store_field(res, 3, Val_long(ru.ru_maxrss));
  }
  CAMLreturn(res);
}
