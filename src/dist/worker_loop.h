#pragma once

// The worker half of the campaign protocol: read kJob frames, execute the
// named registry kind, write kResult frames, exit on kShutdown or EOF.
// tools/grunt_campaign_worker and in-process loopback workers (tests, the
// selfcheck) all serve the socket backend through this one loop.

#include <cstdint>
#include <string>

namespace grunt::dist {

/// Serves jobs read from `fd`, answering on the same fd. A job whose kind
/// is unknown or whose function throws answers with an error result — the
/// worker itself stays alive; only a crash (abort/_exit inside a job) takes
/// it down, and the dispatcher then fails just the in-flight job. Returns 0
/// on kShutdown or clean EOF, 2 on a protocol violation (truncated/corrupt
/// frame).
int RunWorkerLoop(int fd);

/// Connects to a dispatcher listening on host:port, sends the kHello frame
/// carrying `name`, then runs the worker loop over the socket. Returns the
/// worker loop's exit code, or 3 when the connection fails (stderr says
/// why).
int RunSocketWorker(const std::string& host, std::uint16_t port,
                    const std::string& name);

}  // namespace grunt::dist
