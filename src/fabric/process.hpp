#pragma once

// Shard subprocesses: how the fabric worker (apps/ftmao_fabric) and the
// local orchestrator (apps/ftmao_shardsweep) start `ftmao_sweep`, and how
// the fabric worker waits for one under its per-attempt time limit.
//
// The wait blocks on a pidfd of the child (Linux >= 5.3) instead of
// polling waitpid on a timer, so an attempt is over the moment its
// process exits, not at the next tick.

#include <sys/types.h>

#include <string>
#include <vector>

namespace ftmao::fabric {

/// The `ftmao_sweep` next to the binary started as `argv0`, or the bare
/// name (resolved against the working directory: execv does not search
/// PATH) when argv0 has no directory part.
std::string default_worker_path(const char* argv0);

/// fork + execv(args[0], args); the child inherits stdin/stdout/stderr.
/// If exec fails the child writes the reason to stderr and exits 127.
/// Returns the child's pid, or -1 when fork fails.
pid_t spawn_process(const std::vector<std::string>& args);

/// Runs `args` (see spawn_process) until it exits or `timeout_sec` of
/// wall-clock time passes. Returns, in the coreutils convention:
///   the exit code if the child exits (127 if exec failed);
///   128 + the signal number if a signal kills it;
///   124 on timeout, after SIGKILL and reaping;
///   -1 if the child cannot be started or watched.
/// No path returns with the child still running or unreaped.
/// Precondition: timeout_sec > 0.
int run_process(const std::vector<std::string>& args, double timeout_sec);

}  // namespace ftmao::fabric
