/* launch RSSFILE PROG [ARG...]: run PROG as a child, write the peak RSS in
   KiB of it and its reaped descendants to RSSFILE, and end the way it
   ended (same exit code, or the same signal).

   The load process cannot measure this itself.  Linux carries the peak
   RSS of a forked process's memory into the child across exec, so a
   checker the benchmark spawns directly reports at least the benchmark's
   own peak.  This small program, whose peak is under a megabyte, is the
   one that forks the checker.

   The checker is killed when this program dies, so killing it (as the
   benchmark does past an operation's deadline) leaves nothing behind. */

#include <errno.h>
#include <signal.h>
#include <stdio.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

int main(int argc, char **argv)
{
  pid_t self = getpid(), pid;
  int status;
  struct rusage ru;
  FILE *f;

  if (argc < 3) {
    fputs("usage: launch RSSFILE PROG [ARG...]\n", stderr);
    return 125;
  }
  pid = fork();
  if (pid < 0)
    return 126;
  if (pid == 0) {
    if (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || getppid() != self)
      _exit(126);
    execv(argv[2], argv + 2);
    _exit(127);
  }
  while (wait4(pid, &status, 0, &ru) < 0)
    if (errno != EINTR)
      return 126;
  f = fopen(argv[1], "w");
  if (f == NULL || fprintf(f, "%ld\n", ru.ru_maxrss) < 0 || fclose(f) != 0)
    return 126;
  if (WIFSIGNALED(status)) {
    signal(WTERMSIG(status), SIG_DFL);
    raise(WTERMSIG(status));
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 126;
}
