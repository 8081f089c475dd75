#pragma once

// Shard subprocesses: how a fabric worker (apps/ftmao_fabric, in every
// mode that runs shards) starts `ftmao_sweep` and waits for it under its
// per-attempt time limit.
//
// The wait blocks on a pidfd of the child (Linux >= 5.3) instead of
// polling waitpid on a timer, so an attempt is over the moment its
// process exits, not at the next tick.

#include <string>
#include <vector>

namespace ftmao::fabric {

/// The `ftmao_sweep` next to the binary started as `argv0`, or the bare
/// name (resolved against the working directory: execv does not search
/// PATH) when argv0 has no directory part.
std::string default_worker_path(const char* argv0);

/// Runs `args` (fork + execv(args[0], args); the child inherits stdin,
/// stdout and stderr) until it exits or `timeout_sec` of wall-clock time
/// passes. Returns, in the coreutils convention:
///   the exit code if the child exits (127 if exec failed);
///   128 + the signal number if a signal kills it;
///   124 on timeout, after SIGKILL and reaping;
///   -1 if the child cannot be started or watched.
/// No path returns with the child still running or unreaped.
/// Precondition: timeout_sec > 0.
int run_process(const std::vector<std::string>& args, double timeout_sec);

}  // namespace ftmao::fabric
