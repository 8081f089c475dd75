"""Child processes of the benchmark: spawn, measure, time out, reap.

Every program is run through the `perfbench_spawn` launcher (spawn.c),
which spawns it, reaps it and reports its exit code, wall time, CPU time
and peak RSS on a pipe. Spawned straight from this process, a program's
peak RSS would start from this process's own (exec carries the spawning
address space's peak into the program's record).

Every child gets its own process group, so a timed-out fabric worker is
killed together with its launcher and the shard processes it spawned. The
benchmark process is made a child subreaper, so any process its children
orphan is re-parented to it and reaped by ``reap_all`` before the
benchmark exits.
"""

import ctypes
import dataclasses
import os
import signal
import threading

_PR_SET_CHILD_SUBREAPER = 36
_REPORT_FD = 3  # where perfbench_spawn writes its report
_live_groups = set()
_launcher = None


def become_subreaper():
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # without it orphans re-parent to init; groups are still killed


def use_launcher(path):
    """Sets the perfbench_spawn binary every Child is run through."""
    global _launcher
    _launcher = str(path)


@dataclasses.dataclass
class Exit:
    """How one child ended, with the resources it and its reaped
    descendants used."""

    argv: list
    code: int  # exit status; negative = killed by that signal
    timed_out: bool
    wall_s: float
    cpu_s: float
    maxrss_kib: int

    @property
    def ok(self):
        return self.code == 0 and not self.timed_out


def parse_report(text):
    """(code, wall_s, cpu_s, maxrss_kib) from perfbench_spawn's report
    line, or None when it wrote none (it was killed, or failed)."""
    fields = text.split()
    if len(fields) != 4:
        return None
    return int(fields[0]), float(fields[1]), float(fields[2]), int(fields[3])


class Child:
    """One spawned program. stdout/stderr go to the given file paths, or
    to /dev/null when None; stdin is /dev/null."""

    def __init__(self, argv, stdout=None, stderr=None, timeout_s=120.0):
        if _launcher is None:
            raise RuntimeError("procs.use_launcher was not called")
        self.argv = [str(a) for a in argv]
        self._report, write_end = os.pipe()
        if write_end == _REPORT_FD:  # dup2 onto itself would keep CLOEXEC
            moved = os.dup(write_end)
            os.close(write_end)
            write_end = moved
        actions = [(os.POSIX_SPAWN_DUP2, write_end, _REPORT_FD),
                   (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0)]
        for fd, path in ((1, stdout), (2, stderr)):
            flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
            actions.append((os.POSIX_SPAWN_OPEN, fd, str(path or os.devnull),
                            flags, 0o644))
        self._lock = threading.Lock()
        self._reaped = False
        self._timed_out = False
        try:
            self.pid = os.posix_spawn(_launcher, [_launcher, *self.argv],
                                      dict(os.environ), file_actions=actions,
                                      setpgroup=0)
        except OSError:
            os.close(self._report)
            raise
        finally:
            os.close(write_end)
        _live_groups.add(self.pid)
        self._timer = threading.Timer(timeout_s, self._kill)
        self._timer.daemon = True
        self._timer.start()

    def _kill(self):
        with self._lock:
            if self._reaped:
                return
            self._timed_out = True
            _kill_group(self.pid)

    def wait(self):
        _, status, usage = os.wait4(self.pid, 0)
        with self._lock:
            self._reaped = True
        self._timer.cancel()
        if self._timed_out:
            _kill_group(self.pid)  # shard processes the worker left behind
        _live_groups.discard(self.pid)
        with os.fdopen(self._report) as report:
            measured = parse_report(report.read())
        launcher_code = os.waitstatus_to_exitcode(status)
        if measured is None or launcher_code != 0:
            # The launcher failed or was killed: no figures for the program.
            return Exit(self.argv, launcher_code or -1, self._timed_out, 0.0,
                        usage.ru_utime + usage.ru_stime, 0)
        code, wall_s, cpu_s, maxrss_kib = measured
        return Exit(self.argv, code, self._timed_out, wall_s, cpu_s,
                    maxrss_kib)


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run(argv, stdout=None, stderr=None, timeout_s=120.0):
    return Child(argv, stdout, stderr, timeout_s).wait()


def run_parallel(argvs, stderrs, timeout_s=120.0):
    """Starts every argv (stdout to /dev/null, stderr to the matching
    path), then waits for all; Exits in argv order."""
    children = [Child(a, None, e, timeout_s) for a, e in zip(argvs, stderrs)]
    return [c.wait() for c in children]


def reap_all():
    """Kills every process group still running and reaps every child,
    including orphans re-parented to this process."""
    for pgid in list(_live_groups):
        _kill_group(pgid)
    _live_groups.clear()
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return
