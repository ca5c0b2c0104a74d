#include "dist/worker_loop.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <exception>

#include "dist/frame.h"
#include "dist/job_registry.h"
#include "util/json.h"

namespace grunt::dist {

int RunWorkerLoop(int fd) {
  Frame frame;
  for (;;) {
    try {
      if (!ReadFrame(fd, &frame)) return 0;  // dispatcher closed cleanly
    } catch (const FrameError& e) {
      std::fprintf(stderr, "grunt worker: %s\n", e.what());
      return 2;
    }
    if (frame.type == FrameType::kShutdown) return 0;
    if (frame.type != FrameType::kJob) {
      std::fprintf(stderr, "grunt worker: unexpected frame type %d\n",
                   static_cast<int>(frame.type));
      return 2;
    }

    json::Object reply;
    try {
      const json::Value job = json::Parse(frame.payload);
      const std::int64_t index = job.At("job").AsInt64();
      const std::string& kind = job.At("kind").AsString();
      const auto seed = static_cast<std::uint64_t>(job.At("seed").AsInt64());
      reply.emplace_back("job", index);
      json::Value result = RunRegisteredJob(kind, job.At("args"), seed);
      reply.emplace_back("ok", true);
      reply.emplace_back("result", std::move(result));
    } catch (const std::exception& e) {
      // Keep whatever "job" field made it in; a parse failure before the
      // index was read reports job -1 and the dispatcher matches it to the
      // in-flight index on its side.
      if (reply.empty()) reply.emplace_back("job", std::int64_t{-1});
      reply.resize(1);  // drop any half-built ok/result fields
      reply.emplace_back("ok", false);
      reply.emplace_back("error", std::string(e.what()));
    }
    try {
      WriteFrame(fd, Frame{FrameType::kResult,
                               json::Value(std::move(reply)).Dump(0)});
    } catch (const FrameError& e) {
      std::fprintf(stderr, "grunt worker: %s\n", e.what());
      return 2;
    }
  }
}

int RunSocketWorker(const std::string& host, std::uint16_t port,
                    const std::string& name) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port_text = std::to_string(port);
  const int gai = ::getaddrinfo(host.c_str(), port_text.c_str(), &hints,
                                &res);
  if (gai != 0) {
    std::fprintf(stderr, "grunt worker: resolve %s: %s\n", host.c_str(),
                 ::gai_strerror(gai));
    return 3;
  }
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    std::fprintf(stderr, "grunt worker: connect %s:%u: %s\n", host.c_str(),
                 port, std::strerror(errno));
    return 3;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  json::Object hello;
  hello.emplace_back("proto", std::int64_t{1});
  hello.emplace_back("name", name);
  int rc;
  try {
    WriteFrame(fd, Frame{FrameType::kHello,
                         json::Value(std::move(hello)).Dump(0)});
    rc = RunWorkerLoop(fd);
  } catch (const FrameError& e) {
    std::fprintf(stderr, "grunt worker: %s\n", e.what());
    rc = 2;
  }
  ::close(fd);
  return rc;
}

}  // namespace grunt::dist
