#include "fabric/process.hpp"

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <limits>

#include "common/contracts.hpp"

namespace ftmao::fabric {

namespace {

enum class Wait { Exited, TimedOut, Failed };

/// Blocks until the process behind `pidfd` exits or `timeout_sec` passes.
Wait wait_for_exit(int pidfd, double timeout_sec) {
  using Clock = std::chrono::steady_clock;
  using Ms = std::chrono::duration<double, std::milli>;
  constexpr double kMaxPollMs = std::numeric_limits<int>::max();
  const Clock::time_point started = Clock::now();
  while (true) {
    const Ms elapsed = Clock::now() - started;
    const double left_ms = timeout_sec * 1e3 - elapsed.count();
    if (left_ms <= 0) return Wait::TimedOut;
    // Rounded up, so poll never returns just short of the deadline and
    // spins through zero-length waits.
    const double wait_ms = std::min(std::ceil(left_ms), kMaxPollMs);
    pollfd fd{pidfd, POLLIN, 0};
    const int ready = ::poll(&fd, 1, static_cast<int>(wait_ms));
    if (ready > 0) return (fd.revents & POLLIN) ? Wait::Exited : Wait::Failed;
    if (ready < 0 && errno != EINTR) return Wait::Failed;
  }
}

/// waitpid(pid), retried across EINTR. False if it fails otherwise.
bool reap(pid_t pid, int& status) {
  while (::waitpid(pid, &status, 0) < 0)
    if (errno != EINTR) return false;
  return true;
}

/// posix_spawn(args[0], args) with this process's environment. Returns
/// the child's pid, or -1 after writing `exec '<path>' failed: <reason>`
/// to stderr when the program cannot be started.
pid_t spawn_process(const std::vector<std::string>& args) {
  FTMAO_EXPECTS(!args.empty());
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& a : args)
    argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  // glibc reports a failed exec as the return value and reaps the child.
  pid_t pid = 0;
  const int error =
      ::posix_spawn(&pid, argv[0], nullptr, nullptr, argv.data(), environ);
  if (error == 0) return pid;
  const char* reason = ::strerrordesc_np(error);
  std::cerr << ("exec '" + args[0] + "' failed: " +
                (reason != nullptr ? reason : "unknown error") + "\n");
  return -1;
}

}  // namespace

std::string default_worker_path(const char* argv0) {
  std::error_code error;
  const std::filesystem::path self =
      std::filesystem::read_symlink("/proc/self/exe", error);
  if (!error) return (self.parent_path() / "ftmao_sweep").string();
  const std::filesystem::path called(argv0);
  if (called.has_parent_path())
    return (called.parent_path() / "ftmao_sweep").string();
  return "ftmao_sweep";
}

int run_process(const std::vector<std::string>& args, double timeout_sec) {
  FTMAO_EXPECTS(timeout_sec > 0);
  const pid_t pid = spawn_process(args);
  if (pid < 0) return 127;
  // The raw syscall: glibc 2.36 declares pidfd_open in <sys/pidfd.h>
  // without C linkage, so a C++ call to it does not link.
  const int pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
  const Wait wait =
      pidfd < 0 ? Wait::Failed : wait_for_exit(pidfd, timeout_sec);
  if (pidfd >= 0) ::close(pidfd);
  // Until it is reaped the child's pid cannot be reused, so kill(pid) is
  // safe on every path.
  if (wait != Wait::Exited) ::kill(pid, SIGKILL);
  int status = 0;
  if (!reap(pid, status) || wait == Wait::Failed) return -1;
  if (wait == Wait::TimedOut) return 124;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

}  // namespace ftmao::fabric
