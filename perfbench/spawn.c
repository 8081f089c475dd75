/* perfbench_spawn: runs one program and reports the resources it used.
 *
 *   perfbench_spawn PROGRAM [ARG...]    (PROGRAM is a path, not looked up)
 *
 * Spawns PROGRAM with this process's stdin, stdout, stderr and environment,
 * waits for it, and writes one line to file descriptor 3:
 *
 *   <code> <wall_s> <cpu_s> <maxrss_kib>
 *
 * code is PROGRAM's exit status, or minus the signal that killed it; cpu_s
 * is user + sys time of PROGRAM and the children it reaped; maxrss_kib the
 * largest resident set among them. Exits 0 when the line was written, 125
 * on a usage or reporting error, 127 when PROGRAM could not be spawned.
 *
 * Why a launcher: on exec the kernel carries the old address space's peak
 * RSS into the new program's record, and posix_spawn runs the exec in the
 * spawning process's address space. Spawned straight from run.py, every
 * program would read at least that Python process's peak (~18 MiB). This
 * file is plain C so that its own peak, the floor of every figure it
 * reports, stays near 1 MiB.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <spawn.h>
#include <stdio.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

extern char **environ;

static double seconds(struct timeval tv) {
  return (double)tv.tv_sec + (double)tv.tv_usec * 1e-6;
}

int main(int argc, char **argv) {
  if (argc < 2) {
    fputs("usage: perfbench_spawn PROGRAM [ARG...]\n", stderr);
    return 125;
  }
  /* The report descriptor is the launcher's alone. */
  if (fcntl(3, F_SETFD, FD_CLOEXEC) != 0) {
    perror("perfbench_spawn: report descriptor 3");
    return 125;
  }
  struct timespec start, end;
  clock_gettime(CLOCK_MONOTONIC, &start);
  pid_t pid;
  const int err = posix_spawn(&pid, argv[1], NULL, NULL, argv + 1, environ);
  if (err != 0) {
    fprintf(stderr, "perfbench_spawn: %s: %s\n", argv[1], strerror(err));
    return 127;
  }
  int status = 0;
  struct rusage usage;
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      perror("perfbench_spawn: wait4");
      return 125;
    }
  }
  clock_gettime(CLOCK_MONOTONIC, &end);
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
  const double wall = (double)(end.tv_sec - start.tv_sec) +
                      (double)(end.tv_nsec - start.tv_nsec) * 1e-9;
  char line[128];
  const int len = snprintf(line, sizeof line, "%d %.9f %.6f %ld\n", code, wall,
                           seconds(usage.ru_utime) + seconds(usage.ru_stime),
                           usage.ru_maxrss);
  if (write(3, line, (size_t)len) != len) {
    perror("perfbench_spawn: report");
    return 125;
  }
  return 0;
}
