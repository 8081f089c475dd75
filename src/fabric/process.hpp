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

/// The `ftmao_sweep` next to this process's executable (the target of
/// /proc/self/exe), so a binary started through PATH finds its sibling.
/// Only when that link cannot be read: the one next to `argv0`, or the
/// bare name (resolved against the working directory: posix_spawn does
/// not search PATH) when argv0 has no directory part.
std::string default_worker_path(const char* argv0);

/// Runs `args` (posix_spawn(args[0], args); the child inherits the
/// environment, stdin, stdout and stderr) until it exits or `timeout_sec`
/// of wall-clock time passes. Returns, in the coreutils convention:
///   the exit code if the child exits;
///   127 if the program cannot be started, after writing
///     `exec '<path>' failed: <reason>` to stderr;
///   128 + the signal number if a signal kills it;
///   124 on timeout, after SIGKILL and reaping;
///   -1 if the child cannot be watched.
/// No path returns with the child still running or unreaped.
/// Precondition: timeout_sec > 0.
int run_process(const std::vector<std::string>& args, double timeout_sec);

}  // namespace ftmao::fabric
