// Tests for the out-of-process campaign layer (src/dist): frame codec,
// job registry, and the CampaignExecutor's thread and socket backends —
// including the determinism contract (bit-identical results on every
// backend at any worker count) and crash containment (a dying socket
// worker fails one job with a diagnosable error, not the campaign). Socket
// workers are in-process loopback threads, so nothing here forks.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dist/campaign_executor.h"
#include "dist/frame.h"
#include "dist/job_registry.h"
#include "dist/worker_loop.h"
#include "telemetry/bus.h"
#include "util/env.h"
#include "util/json.h"

namespace grunt::dist {
namespace {

// ---- test job kinds ------------------------------------------------------

void RegisterTestKinds() {
  static std::once_flag once;
  std::call_once(once, [] {
    auto& reg = JobRegistry::Global();
    // Deterministic pure function of (args, seed).
    reg.Register("t_echo", [](const json::Value& args, std::uint64_t seed) {
      json::Object o;
      o.emplace_back("sum", args.At("x").AsInt64() +
                                static_cast<std::int64_t>(seed));
      o.emplace_back("tag", args.At("tag").AsString());
      return json::Value(std::move(o));
    });
    // Throws for odd seeds.
    reg.Register("t_flaky", [](const json::Value& args,
                               std::uint64_t seed) -> json::Value {
      if (seed % 2 == 1) {
        throw std::runtime_error("boom seed " + std::to_string(seed));
      }
      return args;
    });
  });
}

std::vector<JobSpec> EchoJobs(std::size_t n) {
  std::vector<JobSpec> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    json::Object o;
    o.emplace_back("x", static_cast<std::int64_t>(i * 10));
    o.emplace_back("tag", "job" + std::to_string(i));
    jobs.push_back(JobSpec{json::Value(std::move(o)), /*seed=*/i + 100});
  }
  return jobs;
}

std::vector<std::string> Dumps(const std::vector<json::Value>& vals) {
  std::vector<std::string> out;
  for (const auto& v : vals) out.push_back(v.Dump(0));
  return out;
}

std::vector<json::Value> RunEchoOn(Backend backend, unsigned workers,
                                   std::size_t n) {
  ExecutorConfig cfg;
  cfg.backend = backend;
  cfg.workers = workers;
  CampaignExecutor exec(cfg);
  return exec.Run("t_echo", EchoJobs(n));
}

/// A socket-backend executor with `lanes` lanes, `workers` of which are
/// served by RunSocketWorker threads over loopback (tests connect scripted
/// peers to port() for the rest).
class LoopbackPool {
 public:
  LoopbackPool(unsigned lanes, unsigned workers,
               telemetry::TelemetryBus* bus = nullptr)
      : exec_(SocketConfig(lanes, bus)), port_(exec_.BindListener()) {
    for (unsigned w = 0; w < workers; ++w) {
      threads_.emplace_back([port = port_, w] {
        RunSocketWorker("127.0.0.1", port, "loopback-" + std::to_string(w));
      });
    }
  }

  CampaignExecutor& exec() { return exec_; }
  std::uint16_t port() const { return port_; }

 private:
  static ExecutorConfig SocketConfig(unsigned lanes,
                                     telemetry::TelemetryBus* bus) {
    ExecutorConfig cfg;
    cfg.backend = Backend::kSocket;
    cfg.workers = lanes;
    cfg.accept_timeout_sec = 30.0;
    cfg.bus = bus;
    return cfg;
  }

  // Declared first so they are joined last: exec_'s destructor sends the
  // kShutdown frames that end the worker loops.
  std::vector<std::jthread> threads_;
  CampaignExecutor exec_;
  std::uint16_t port_;
};

/// A worker that dies mid-job: it joins, reads one kJob, records that job's
/// index in *job and closes its socket without answering.
void DieOnFirstJob(std::uint16_t port, std::int64_t* job) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  try {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
        0) {
      WriteFrame(fd,
                 Frame{FrameType::kHello, R"({"proto":1,"name":"doomed"})"});
      Frame frame;
      if (ReadFrame(fd, &frame) && frame.type == FrameType::kJob) {
        *job = json::Parse(frame.payload).At("job").AsInt64();
      }
    }
  } catch (const std::exception&) {
    // *job stays -1, which the test reports.
  }
  ::close(fd);
}

std::vector<JobSpec> SeedOnlyJobs(std::size_t n) {
  std::vector<JobSpec> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    jobs.push_back(JobSpec{json::Value(json::Object{}), /*seed=*/i});
  }
  return jobs;
}

// ---- frame codec ---------------------------------------------------------

TEST(Frame, RoundTripsOverAPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const Frame sent{FrameType::kJob, R"({"job":0,"kind":"k"})"};
  WriteFrame(fds[1], sent);
  Frame got;
  ASSERT_TRUE(ReadFrame(fds[0], &got));
  EXPECT_EQ(got.type, FrameType::kJob);
  EXPECT_EQ(got.payload, sent.payload);
  // Empty payload is legal (kShutdown has none).
  WriteFrame(fds[1], Frame{FrameType::kShutdown, ""});
  ASSERT_TRUE(ReadFrame(fds[0], &got));
  EXPECT_EQ(got.type, FrameType::kShutdown);
  EXPECT_TRUE(got.payload.empty());
  ::close(fds[1]);
  // Clean EOF at a frame boundary: false, not an error.
  EXPECT_FALSE(ReadFrame(fds[0], &got));
  ::close(fds[0]);
}

TEST(Frame, TruncatedFrameIsAProtocolError) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // Header promises 10 payload bytes; deliver the type byte and 3 of them.
  const std::uint32_t len = 1 + 10;
  ASSERT_EQ(::write(fds[1], &len, 4), 4);
  const unsigned char partial[4] = {2, 'a', 'b', 'c'};
  ASSERT_EQ(::write(fds[1], partial, 4), 4);
  ::close(fds[1]);
  Frame got;
  EXPECT_THROW(ReadFrame(fds[0], &got), FrameError);
  ::close(fds[0]);
}

TEST(Frame, RejectsCorruptHeaders) {
  {  // zero length (no room for the type byte)
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const std::uint32_t len = 0;
    ASSERT_EQ(::write(fds[1], &len, 4), 4);
    ::close(fds[1]);
    Frame got;
    EXPECT_THROW(ReadFrame(fds[0], &got), FrameError);
    ::close(fds[0]);
  }
  {  // absurd length
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const std::uint32_t len = 0xffffffffu;
    ASSERT_EQ(::write(fds[1], &len, 4), 4);
    ::close(fds[1]);
    Frame got;
    EXPECT_THROW(ReadFrame(fds[0], &got), FrameError);
    ::close(fds[0]);
  }
  {  // unknown frame type
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const std::uint32_t len = 1;
    ASSERT_EQ(::write(fds[1], &len, 4), 4);
    const unsigned char type = 99;
    ASSERT_EQ(::write(fds[1], &type, 1), 1);
    ::close(fds[1]);
    Frame got;
    EXPECT_THROW(ReadFrame(fds[0], &got), FrameError);
    ::close(fds[0]);
  }
}

// ---- job registry --------------------------------------------------------

TEST(JobRegistry, FindsRegisteredKindsAndRejectsDuplicates) {
  RegisterTestKinds();
  auto& reg = JobRegistry::Global();
  EXPECT_NE(reg.Find("t_echo"), nullptr);
  EXPECT_EQ(reg.Find("no_such_kind"), nullptr);
  EXPECT_THROW(reg.Register("t_echo", [](const json::Value& a,
                                         std::uint64_t) { return a; }),
               json::Error);
}

TEST(JobRegistry, RunRegisteredJobNamesUnknownKind) {
  try {
    RunRegisteredJob("definitely_missing", json::Value(json::Object{}), 1);
    FAIL() << "expected json::Error";
  } catch (const json::Error& e) {
    EXPECT_NE(std::string(e.what()).find("definitely_missing"),
              std::string::npos)
        << e.what();
  }
}

// ---- executor config -----------------------------------------------------

TEST(ExecutorConfig, ParsesBackendsAndRejectsGarbage) {
  EXPECT_EQ(ParseBackend("thread"), Backend::kThread);
  EXPECT_EQ(ParseBackend("socket"), Backend::kSocket);
  EXPECT_THROW(ParseBackend("forkjoin"), util::EnvError);
  try {
    ParseBackend("process");
    FAIL() << "expected util::EnvError";
  } catch (const util::EnvError& e) {
    EXPECT_NE(std::string(e.what()).find("thread|socket"),
              std::string::npos)
        << e.what();
  }

  ::setenv("GRUNT_BENCH_BACKEND", "socket", 1);
  ::setenv("GRUNT_BENCH_WORKERS", "3", 1);
  ExecutorConfig cfg = ConfigFromEnv();
  EXPECT_EQ(cfg.backend, Backend::kSocket);
  EXPECT_EQ(cfg.workers, 3u);

  ::setenv("GRUNT_BENCH_BACKEND", "process", 1);
  EXPECT_THROW(ConfigFromEnv(), util::EnvError);
  ::setenv("GRUNT_BENCH_BACKEND", "bogus", 1);
  EXPECT_THROW(ConfigFromEnv(), util::EnvError);
  ::setenv("GRUNT_BENCH_BACKEND", "thread", 1);
  ::setenv("GRUNT_BENCH_WORKERS", "minus two", 1);
  EXPECT_THROW(ConfigFromEnv(), util::EnvError);

  ::unsetenv("GRUNT_BENCH_BACKEND");
  ::unsetenv("GRUNT_BENCH_WORKERS");
  cfg = ConfigFromEnv();
  EXPECT_EQ(cfg.backend, Backend::kThread);
  EXPECT_EQ(cfg.workers, 0u);  // resolves to DefaultThreads in the ctor
}

// ---- determinism across backends -----------------------------------------

TEST(CampaignExecutor, ResultsAreBitIdenticalAcrossBackends) {
  RegisterTestKinds();
  constexpr std::size_t kJobs = 9;
  const auto reference = Dumps(RunEchoOn(Backend::kThread, 1, kJobs));
  ASSERT_EQ(reference.size(), kJobs);
  EXPECT_EQ(Dumps(RunEchoOn(Backend::kThread, 4, kJobs)), reference);
}

TEST(CampaignExecutor, SocketBackendMatchesToo) {
  RegisterTestKinds();
  constexpr std::size_t kJobs = 5;
  const auto reference = Dumps(RunEchoOn(Backend::kThread, 1, kJobs));
  for (const unsigned workers : {1u, 3u}) {
    LoopbackPool pool(workers, workers);
    EXPECT_EQ(Dumps(pool.exec().Run("t_echo", EchoJobs(kJobs))), reference)
        << workers << " workers";
    EXPECT_EQ(pool.exec().worker_stats().size(), workers);
    EXPECT_EQ(pool.exec().worker_stats().at(0).name.rfind("loopback-", 0),
              0u);
  }
}

TEST(CampaignExecutor, PoolPersistsAcrossRuns) {
  RegisterTestKinds();
  LoopbackPool pool(2, 2);
  CampaignExecutor& exec = pool.exec();
  const auto first = Dumps(exec.Run("t_echo", EchoJobs(4)));
  const auto second = Dumps(exec.Run("t_echo", EchoJobs(4)));
  EXPECT_EQ(first, second);
  // The same two connections served both batches: the second Run accepted
  // no new worker (it would have blocked: no third worker exists).
  ASSERT_EQ(exec.worker_stats().size(), 2u);
  std::uint64_t total = 0;
  for (const auto& st : exec.worker_stats()) total += st.jobs;
  EXPECT_EQ(total, 8u);
}

// ---- per-worker stats ----------------------------------------------------

TEST(CampaignExecutor, ThreadBackendReportsOneEntryPerPoolThread) {
  RegisterTestKinds();
  ExecutorConfig cfg;
  cfg.backend = Backend::kThread;
  cfg.workers = 2;
  CampaignExecutor exec(cfg);
  exec.Run("t_echo", EchoJobs(5));
  const auto& stats = exec.worker_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].jobs + stats[1].jobs, 5u);
  EXPECT_GE(stats[0].jobs, 1u);  // worker 0 is whoever ran job 0
  for (const auto& st : stats) EXPECT_EQ(st.name, "thread");
  // More workers than jobs: the pool only runs min(workers, jobs) threads.
  cfg.workers = 8;
  CampaignExecutor wide(cfg);
  wide.Run("t_echo", EchoJobs(3));
  EXPECT_EQ(wide.worker_stats().size(), 3u);
}

// ---- error propagation (job-index + backend context) ---------------------

TEST(CampaignExecutor, ThreadBackendCarriesJobContextInErrors) {
  RegisterTestKinds();
  ExecutorConfig cfg;
  cfg.backend = Backend::kThread;
  cfg.workers = 2;
  CampaignExecutor exec(cfg);
  const std::vector<JobSpec> jobs = SeedOnlyJobs(6);
  // Seeds 1,3,5 throw; Run must surface the lowest failed index with kind,
  // backend, and the underlying message.
  try {
    exec.Run("t_flaky", jobs);
    FAIL() << "expected CampaignError";
  } catch (const CampaignError& e) {
    EXPECT_EQ(e.job_index(), 1u);
    EXPECT_EQ(e.kind(), "t_flaky");
    EXPECT_EQ(e.backend(), Backend::kThread);
    const std::string what = e.what();
    EXPECT_NE(what.find("job 1"), std::string::npos) << what;
    EXPECT_NE(what.find("t_flaky"), std::string::npos) << what;
    EXPECT_NE(what.find("thread"), std::string::npos) << what;
    EXPECT_NE(what.find("boom seed 1"), std::string::npos) << what;
  }
  // RunAll reports every failure individually, successes intact.
  const auto outcomes = exec.RunAll("t_flaky", jobs);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].ok, i % 2 == 0) << i;
  }
}

TEST(CampaignExecutor, SocketBackendCarriesJobContextInErrors) {
  RegisterTestKinds();
  LoopbackPool pool(2, 2);
  const std::vector<JobSpec> jobs = SeedOnlyJobs(4);
  try {
    pool.exec().Run("t_flaky", jobs);
    FAIL() << "expected CampaignError";
  } catch (const CampaignError& e) {
    EXPECT_EQ(e.job_index(), 1u);
    EXPECT_EQ(e.kind(), "t_flaky");
    EXPECT_EQ(e.backend(), Backend::kSocket);
    const std::string what = e.what();
    EXPECT_NE(what.find("job 1"), std::string::npos) << what;
    EXPECT_NE(what.find("socket"), std::string::npos) << what;
    EXPECT_NE(what.find("boom seed 1"), std::string::npos) << what;
  }
  // A thrown job leaves its worker alive: the next batch still runs on both.
  const auto outcomes = pool.exec().RunAll("t_flaky", jobs);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].ok, i % 2 == 0) << i << ": " << outcomes[i].error;
  }
}

// ---- crash containment ---------------------------------------------------

TEST(CampaignExecutor, SocketWorkerDeathFailsOnlyItsJob) {
  RegisterTestKinds();
  constexpr std::size_t kJobs = 6;
  {
    // One real worker plus one that dies holding its first job. Both lanes
    // are seeded before any result comes back, so the doomed peer always
    // gets a job; the survivor must finish all the others.
    LoopbackPool pool(2, 1);
    std::int64_t doomed = -1;
    std::jthread peer(DieOnFirstJob, pool.port(), &doomed);
    const auto outcomes = pool.exec().RunAll("t_echo", EchoJobs(kJobs));
    peer.join();
    ASSERT_GE(doomed, 0);
    ASSERT_EQ(outcomes.size(), kJobs);
    const auto dead = static_cast<std::size_t>(doomed);
    for (std::size_t i = 0; i < kJobs; ++i) {
      if (i == dead) continue;
      EXPECT_TRUE(outcomes[i].ok) << i << ": " << outcomes[i].error;
    }
    EXPECT_FALSE(outcomes[dead].ok);
    const std::string& err = outcomes[dead].error;
    EXPECT_NE(err.find("job " + std::to_string(dead)), std::string::npos)
        << err;
    EXPECT_NE(err.find("t_echo"), std::string::npos) << err;
    EXPECT_NE(err.find("socket"), std::string::npos) << err;
    EXPECT_NE(err.find("died"), std::string::npos) << err;
    std::uint64_t failures = 0;
    for (const auto& st : pool.exec().worker_stats()) failures += st.failures;
    EXPECT_EQ(failures, 1u);
  }
  {
    // The only worker dies: its job fails as above, and every job it never
    // reached fails as never run rather than hanging the campaign.
    LoopbackPool pool(1, 0);
    std::int64_t doomed = -1;
    std::jthread peer(DieOnFirstJob, pool.port(), &doomed);
    const auto outcomes = pool.exec().RunAll("t_echo", EchoJobs(kJobs));
    peer.join();
    EXPECT_EQ(doomed, 0);
    ASSERT_EQ(outcomes.size(), kJobs);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_NE(outcomes[0].error.find("died"), std::string::npos)
        << outcomes[0].error;
    for (std::size_t i = 1; i < kJobs; ++i) {
      EXPECT_FALSE(outcomes[i].ok) << i;
      EXPECT_NE(outcomes[i].error.find("never ran: no workers remain"),
                std::string::npos)
          << outcomes[i].error;
      EXPECT_NE(outcomes[i].error.find("job " + std::to_string(i)),
                std::string::npos)
          << outcomes[i].error;
    }
  }
}

// ---- telemetry -----------------------------------------------------------

TEST(CampaignExecutor, PublishesPerJobEventsAndCounters) {
  RegisterTestKinds();
  telemetry::TelemetryBus bus;
  std::vector<std::size_t> seen;
  bus.campaign_job().Subscribe(
      [&](const telemetry::CampaignJobEvent& e) {
        seen.push_back(e.job_index);
        EXPECT_TRUE(e.ok);
        EXPECT_GE(e.latency_ms, 0.0);
      });
  constexpr std::size_t kJobs = 5;
  {
    LoopbackPool pool(2, 2, &bus);
    pool.exec().Run("t_echo", EchoJobs(kJobs));
    const json::Value stats = pool.exec().StatsJson();
    EXPECT_EQ(stats.At("backend").AsString(), "socket");
    std::int64_t total = 0;
    for (const auto& w : stats.At("per_worker").AsArray()) {
      total += w.At("jobs").AsInt64();
      EXPECT_EQ(w.Find("restarts"), nullptr);
    }
    EXPECT_EQ(total, static_cast<std::int64_t>(kJobs));
  }
  EXPECT_EQ(seen.size(), kJobs);
  auto& reg = bus.metrics();
  const auto ok_id = reg.Find("campaign.jobs_ok");
  ASSERT_NE(ok_id, telemetry::MetricsRegistry::kInvalidId);
  EXPECT_EQ(reg.counter_value(ok_id), kJobs);
  const auto ms_id = reg.Find("campaign.job_ms");
  ASSERT_NE(ms_id, telemetry::MetricsRegistry::kInvalidId);
  EXPECT_EQ(reg.histogram_count(ms_id), kJobs);
  EXPECT_EQ(reg.Find("campaign.worker_restarts"),
            telemetry::MetricsRegistry::kInvalidId);
}

TEST(CampaignExecutor, ThreadBackendPublishesInIndexOrder) {
  RegisterTestKinds();
  telemetry::TelemetryBus bus;
  std::vector<std::size_t> seen;
  bus.campaign_job().Subscribe(
      [&](const telemetry::CampaignJobEvent& e) {
        seen.push_back(e.job_index);
      });
  ExecutorConfig cfg;
  cfg.backend = Backend::kThread;
  cfg.workers = 4;
  cfg.bus = &bus;
  CampaignExecutor exec(cfg);
  exec.Run("t_echo", EchoJobs(7));
  // The bus is not thread-safe, so the thread backend publishes after the
  // barrier — deterministically, in job-index order.
  ASSERT_EQ(seen.size(), 7u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

}  // namespace
}  // namespace grunt::dist
