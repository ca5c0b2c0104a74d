#include "dist/campaign_executor.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <thread>

#include "dist/frame.h"
#include "dist/job_registry.h"
#include "util/env.h"
#include "util/parallel_runner.h"

namespace grunt::dist {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// Ignores SIGPIPE for the guard's lifetime: a write to a dead worker must
/// surface as EPIPE (crash containment), not kill the dispatcher.
class SigPipeGuard {
 public:
  SigPipeGuard() {
    struct sigaction ign {};
    ign.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ign, &old_);
  }
  ~SigPipeGuard() { ::sigaction(SIGPIPE, &old_, nullptr); }

 private:
  struct sigaction old_ {};
};

/// Reads the reply to the job a lane has in flight (`inflight`, -1 when
/// idle) into *out. Returns why the lane must be dropped instead, or "" for
/// a well-formed answer to that job.
std::string ReadResult(int fd, std::ptrdiff_t inflight, JobOutcome* out) {
  Frame frame;
  try {
    if (!ReadFrame(fd, &frame)) return "died";
  } catch (const FrameError& e) {
    return std::string("broke the protocol: ") + e.what();
  }
  if (frame.type != FrameType::kResult) {
    return "broke the protocol: unexpected frame type " +
           std::to_string(static_cast<int>(frame.type));
  }
  std::int64_t reported = -1;
  try {
    const json::Value v = json::Parse(frame.payload);
    reported = v.At("job").AsInt64();
    out->ok = v.At("ok").AsBool();
    if (out->ok) {
      out->result = v.At("result");
    } else {
      out->error = v.At("error").AsString();
    }
  } catch (const std::exception& e) {
    return std::string("sent an unparseable result: ") + e.what();
  }
  // A worker that failed to parse its job frame reports job -1.
  if (inflight < 0 || (reported >= 0 && reported != inflight)) {
    return "answered for job " + std::to_string(reported) +
           " it was never sent";
  }
  return "";
}

}  // namespace

const char* BackendName(Backend b) {
  switch (b) {
    case Backend::kThread: return "thread";
    case Backend::kSocket: return "socket";
  }
  return "?";
}

Backend ParseBackend(const std::string& text) {
  if (text == "thread") return Backend::kThread;
  if (text == "socket") return Backend::kSocket;
  throw util::EnvError("GRUNT_BENCH_BACKEND=\"" + text +
                       "\": expected one of thread|socket");
}

ExecutorConfig ConfigFromEnv() {
  ExecutorConfig cfg;
  if (const char* env = std::getenv("GRUNT_BENCH_BACKEND")) {
    if (env[0] != '\0') cfg.backend = ParseBackend(env);
  }
  cfg.workers = static_cast<unsigned>(util::PositiveEnvOr(
      "GRUNT_BENCH_WORKERS", 0, util::ParallelRunner::kMaxThreads));
  cfg.listen_port = static_cast<std::uint16_t>(
      util::PositiveEnvOr("GRUNT_BENCH_LISTEN_PORT", 0, 65535));
  if (const char* env = std::getenv("GRUNT_BENCH_LISTEN_HOST")) {
    if (env[0] != '\0') cfg.listen_host = env;
  }
  return cfg;
}

/// One connected socket worker and the job it is running.
struct CampaignExecutor::Lane {
  unsigned id = 0;
  int fd = -1;                   ///< -1 once the lane is dropped
  std::ptrdiff_t inflight = -1;  ///< job index, -1 when idle
  Clock::time_point dispatched_at;
};

/// Interned ids for the per-worker counters in cfg_.bus->metrics().
struct CampaignExecutor::Metrics {
  telemetry::MetricsRegistry::Id jobs_ok, jobs_failed, job_ms;
  struct PerWorker {
    telemetry::MetricsRegistry::Id jobs, steals, busy_ms;
  };
  std::vector<PerWorker> worker;
};

CampaignExecutor::CampaignExecutor(ExecutorConfig cfg)
    : cfg_(std::move(cfg)) {
  workers_ = cfg_.workers > 0 ? cfg_.workers
                              : util::ParallelRunner::DefaultThreads();
  if (cfg_.bus != nullptr) {
    metrics_ = std::make_unique<Metrics>();
    auto& reg = cfg_.bus->metrics();
    metrics_->jobs_ok = reg.Counter("campaign.jobs_ok");
    metrics_->jobs_failed = reg.Counter("campaign.jobs_failed");
    metrics_->job_ms = reg.Histogram(
        "campaign.job_ms",
        {1, 3, 10, 30, 100, 300, 1000, 3000, 10000, 30000, 100000});
  }
}

CampaignExecutor::~CampaignExecutor() {
  SigPipeGuard guard;
  for (auto& lane : lanes_) {
    if (lane->fd < 0) continue;
    try {
      WriteFrame(lane->fd, Frame{FrameType::kShutdown, ""});
    } catch (const FrameError&) {
      // already gone; closing is all that is left
    }
    ::close(lane->fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void CampaignExecutor::AddWorker(std::string name) {
  WorkerStats st;
  st.worker = static_cast<unsigned>(stats_.size());
  st.name = std::move(name);
  if (metrics_ != nullptr) {
    auto& reg = cfg_.bus->metrics();
    const std::string prefix =
        "campaign.worker." + std::to_string(st.worker) + ".";
    metrics_->worker.push_back({reg.Counter(prefix + "jobs"),
                                reg.Counter(prefix + "steals"),
                                reg.Gauge(prefix + "busy_ms")});
  }
  stats_.push_back(std::move(st));
}

void CampaignExecutor::RecordJob(unsigned worker, std::size_t index,
                                 bool stolen, bool ok, double latency_ms) {
  WorkerStats& st = stats_[worker];
  st.jobs += 1;
  if (stolen) st.steals += 1;
  if (!ok) st.failures += 1;
  st.busy_ms += latency_ms;
  if (cfg_.bus != nullptr) {
    auto& reg = cfg_.bus->metrics();
    auto& per = metrics_->worker[worker];
    reg.Add(per.jobs);
    if (stolen) reg.Add(per.steals);
    reg.Set(per.busy_ms, st.busy_ms);
    reg.Add(ok ? metrics_->jobs_ok : metrics_->jobs_failed);
    reg.Observe(metrics_->job_ms, latency_ms);
    telemetry::CampaignJobEvent ev;
    ev.job_index = index;
    ev.worker = worker;
    ev.stolen = stolen;
    ev.ok = ok;
    ev.latency_ms = latency_ms;
    cfg_.bus->campaign_job().Publish(ev);
  }
}

std::uint16_t CampaignExecutor::BindListener() {
  if (listen_fd_ >= 0) return bound_port_;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw CampaignError(std::string("socket backend: socket() failed: ") +
                            std::strerror(errno),
                        0, "", Backend::kSocket);
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.listen_port);
  if (::inet_pton(AF_INET, cfg_.listen_host.c_str(), &addr.sin_addr) != 1) {
    throw CampaignError("socket backend: bad listen host \"" +
                            cfg_.listen_host + "\"",
                        0, "", Backend::kSocket);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    throw CampaignError(std::string("socket backend: bind/listen on ") +
                            cfg_.listen_host + ":" +
                            std::to_string(cfg_.listen_port) +
                            " failed: " + std::strerror(errno),
                        0, "", Backend::kSocket);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  bound_port_ = ntohs(bound.sin_port);
  return bound_port_;
}

void CampaignExecutor::AcceptSocketLanes(std::size_t want) {
  BindListener();
  if (lanes_.size() >= want) return;
  std::fprintf(stderr,
               "campaign executor: waiting for %zu worker(s) on %s:%u "
               "(tools/grunt_campaign_worker --connect <host>:%u)\n",
               want - lanes_.size(), cfg_.listen_host.c_str(), bound_port_,
               bound_port_);
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             cfg_.accept_timeout_sec));
  while (lanes_.size() < want) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) {
      throw CampaignError(
          "socket backend: only " + std::to_string(lanes_.size()) + " of " +
              std::to_string(want) + " workers joined within " +
              std::to_string(cfg_.accept_timeout_sec) + "s",
          0, "", Backend::kSocket);
    }
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (rc < 0 && errno != EINTR) {
      throw CampaignError(std::string("socket backend: poll() failed: ") +
                              std::strerror(errno),
                          0, "", Backend::kSocket);
    }
    if (rc <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Frame hello;
    std::string name = "worker";
    try {
      if (!ReadFrame(fd, &hello) || hello.type != FrameType::kHello) {
        ::close(fd);
        continue;
      }
      const json::Value v = json::Parse(hello.payload);
      if (const json::Value* n = v.Find("name")) name = n->AsString();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "campaign executor: rejected connection: %s\n",
                   e.what());
      ::close(fd);
      continue;
    }
    auto lane = std::make_unique<Lane>();
    lane->id = static_cast<unsigned>(lanes_.size());
    lane->fd = fd;
    AddWorker(name);
    std::fprintf(stderr, "campaign executor: worker %u (\"%s\") joined\n",
                 lane->id, name.c_str());
    lanes_.push_back(std::move(lane));
  }
}

void CampaignExecutor::HandleLaneDeath(Lane& lane, const std::string& why,
                                       const std::string& kind,
                                       std::vector<JobOutcome>* outcomes) {
  ::close(lane.fd);
  lane.fd = -1;
  if (lane.inflight < 0) return;
  const auto index = static_cast<std::size_t>(lane.inflight);
  JobOutcome& out = (*outcomes)[index];
  out.ok = false;
  out.error = "worker " + std::to_string(lane.id) + " " + why +
              " while running job " + std::to_string(index) + " of kind \"" +
              kind + "\" on the " + BackendName(cfg_.backend) + " backend";
  RecordJob(lane.id, index, index % lanes_.size() != lane.id, /*ok=*/false,
            MsSince(lane.dispatched_at));
  lane.inflight = -1;
}

void CampaignExecutor::DispatchLoop(const std::string& kind,
                                    const std::vector<JobSpec>& jobs,
                                    std::vector<JobOutcome>* outcomes) {
  const std::size_t n = jobs.size();
  std::size_t next = 0;
  std::size_t decided = 0;
  std::vector<std::size_t> requeue;  // jobs whose dispatch write failed

  // Hands the next job to an idle lane. A failed write means the job never
  // reached the worker, so it is requeued for another lane and this lane
  // is dropped. A live lane therefore only idles once no job is waiting.
  const auto feed = [&](Lane& lane) {
    if (lane.fd < 0) return;
    std::size_t index;
    if (!requeue.empty()) {
      index = requeue.back();
      requeue.pop_back();
    } else if (next < n) {
      index = next++;
    } else {
      return;
    }
    json::Object job;
    job.emplace_back("job", static_cast<std::int64_t>(index));
    job.emplace_back("kind", kind);
    job.emplace_back("seed", static_cast<std::int64_t>(jobs[index].seed));
    job.emplace_back("args", jobs[index].args);
    try {
      WriteFrame(lane.fd, Frame{FrameType::kJob,
                                json::Value(std::move(job)).Dump(0)});
    } catch (const FrameError&) {
      requeue.push_back(index);
      HandleLaneDeath(lane, "disconnected at dispatch", kind, outcomes);
      return;
    }
    lane.inflight = static_cast<std::ptrdiff_t>(index);
    lane.dispatched_at = Clock::now();
  };
  // Job i seeds lane i, so the steal counter has a stable baseline.
  for (auto& lane : lanes_) feed(*lane);

  std::vector<pollfd> pfds;
  std::vector<Lane*> polled;
  while (decided < n) {
    pfds.clear();
    polled.clear();
    for (auto& lane : lanes_) {
      if (lane->fd < 0) continue;
      pfds.push_back(pollfd{lane->fd, POLLIN, 0});
      polled.push_back(lane.get());
    }
    if (polled.empty()) {
      for (std::size_t j = 0; j < n; ++j) {
        JobOutcome& out = (*outcomes)[j];
        if (!out.ok && out.error.empty()) {
          out.error = "job " + std::to_string(j) + " of kind \"" + kind +
                      "\" never ran: no workers remain on the " +
                      BackendName(cfg_.backend) + " backend";
        }
      }
      return;
    }
    const int rc = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw CampaignError(std::string("dispatcher poll() failed: ") +
                              std::strerror(errno),
                          0, kind, cfg_.backend);
    }
    for (std::size_t i = 0; i < polled.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Lane& lane = *polled[i];
      JobOutcome out;
      const std::string why = ReadResult(lane.fd, lane.inflight, &out);
      if (lane.inflight >= 0) ++decided;  // answered, or failed below
      if (!why.empty()) {
        HandleLaneDeath(lane, why, kind, outcomes);
        continue;
      }
      const auto index = static_cast<std::size_t>(lane.inflight);
      if (!out.ok) {
        // Keep the campaign-cell context on worker-side failures too.
        out.error = "job " + std::to_string(index) + " of kind \"" + kind +
                    "\" failed on worker " + std::to_string(lane.id) + " (" +
                    BackendName(cfg_.backend) + " backend): " + out.error;
      }
      RecordJob(lane.id, index, index % lanes_.size() != lane.id, out.ok,
                MsSince(lane.dispatched_at));
      (*outcomes)[index] = std::move(out);
      lane.inflight = -1;
      feed(lane);
    }
  }
}

std::vector<JobOutcome> CampaignExecutor::RunThreadBackend(
    const std::string& kind, const std::vector<JobSpec>& jobs) {
  const std::size_t n = jobs.size();
  std::vector<JobOutcome> outcomes(n);
  std::vector<double> latency_ms(n, 0.0);
  std::vector<std::thread::id> ran_on(n);
  util::ParallelRunner pool(workers_);
  pool.ForEachIndex(n, [&](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
    const auto t0 = Clock::now();
    try {
      outcomes[i].result = RunRegisteredJob(kind, jobs[i].args,
                                            jobs[i].seed);
      outcomes[i].ok = true;
    } catch (const std::exception& e) {
      outcomes[i].error = "job " + std::to_string(i) + " of kind \"" +
                          kind + "\" failed on the thread backend: " +
                          e.what();
    } catch (...) {
      outcomes[i].error = "job " + std::to_string(i) + " of kind \"" +
                          kind +
                          "\" failed on the thread backend: non-exception "
                          "throw";
    }
    latency_ms[i] = MsSince(t0);
  });
  // The bus channels are not thread-safe, so the thread backend records
  // after the barrier, in job-index order. The pool runs min(workers, n)
  // threads; each is numbered by the first job it ran, and one that ran
  // none keeps an entry with zero jobs.
  while (stats_.size() < std::min<std::size_t>(workers_, n)) {
    AddWorker("thread");
  }
  std::vector<std::thread::id> slots;
  for (std::size_t i = 0; i < n; ++i) {
    auto slot = std::find(slots.begin(), slots.end(), ran_on[i]);
    if (slot == slots.end()) slot = slots.insert(slots.end(), ran_on[i]);
    RecordJob(static_cast<unsigned>(slot - slots.begin()), i,
              /*stolen=*/false, outcomes[i].ok, latency_ms[i]);
  }
  return outcomes;
}

std::vector<JobOutcome> CampaignExecutor::RunAll(
    const std::string& kind, const std::vector<JobSpec>& jobs) {
  if (jobs.empty()) return {};
  if (cfg_.backend == Backend::kThread) {
    return RunThreadBackend(kind, jobs);
  }
  SigPipeGuard guard;
  // Never wait for more workers than the batch can feed; a persistent pool
  // keeps whatever size its first Run established.
  AcceptSocketLanes(std::min<std::size_t>(workers_, jobs.size()));
  std::vector<JobOutcome> outcomes(jobs.size());
  DispatchLoop(kind, jobs, &outcomes);
  return outcomes;
}

std::vector<json::Value> CampaignExecutor::Run(
    const std::string& kind, const std::vector<JobSpec>& jobs) {
  std::vector<JobOutcome> outcomes = RunAll(kind, jobs);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].ok) {
      throw CampaignError(outcomes[i].error, i, kind, cfg_.backend);
    }
  }
  std::vector<json::Value> results;
  results.reserve(outcomes.size());
  for (auto& o : outcomes) results.push_back(std::move(o.result));
  return results;
}

json::Value CampaignExecutor::StatsJson() const {
  json::Object root;
  root.emplace_back("backend", BackendName(cfg_.backend));
  root.emplace_back("workers", static_cast<std::int64_t>(workers_));
  json::Array per;
  for (const auto& st : stats_) {
    json::Object o;
    o.emplace_back("worker", static_cast<std::int64_t>(st.worker));
    o.emplace_back("name", st.name);
    o.emplace_back("jobs", static_cast<std::int64_t>(st.jobs));
    o.emplace_back("steals", static_cast<std::int64_t>(st.steals));
    o.emplace_back("failures", static_cast<std::int64_t>(st.failures));
    o.emplace_back("busy_ms",
                   std::round(st.busy_ms * 1000.0) / 1000.0);
    per.push_back(json::Value(std::move(o)));
  }
  root.emplace_back("per_worker", json::Value(std::move(per)));
  return json::Value(std::move(root));
}

}  // namespace grunt::dist
