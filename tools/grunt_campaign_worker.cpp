// Remote campaign worker: joins a CampaignExecutor's socket backend from
// this (or any other) machine and serves the registered bench job kinds
// over the length-prefixed frame protocol (src/dist/frame.h).
//
//   grunt_campaign_worker --connect HOST:PORT [--name NAME]
//       Connect to a bench running with GRUNT_BENCH_BACKEND=socket and
//       serve jobs until the dispatcher shuts the campaign down.
//   grunt_campaign_worker --list-kinds
//       Print the job kinds this worker can serve, one per line.
//   grunt_campaign_worker --selfcheck
//       Fast end-to-end check used by CI: verifies that a socket worker
//       process crashing mid-job fails only its own job with a diagnosable
//       error, then runs the same mini-campaign batch on the thread backend
//       (1 and N workers) and the socket backend (an in-process worker
//       thread joining over loopback) and verifies every run returns
//       bit-identical results. Exits 0 on pass, 1 on fail.
//
// Exit codes (--connect): 0 clean shutdown, 2 protocol violation,
// 3 connect failure.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "campaign_jobs.h"
#include "dist/campaign_executor.h"
#include "dist/job_registry.h"
#include "dist/worker_loop.h"
#include "util/json.h"

namespace {

using namespace grunt;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --connect HOST:PORT [--name NAME]\n"
               "       %s --list-kinds\n"
               "       %s --selfcheck\n",
               argv0, argv0, argv0);
  return 64;
}

bool Check(bool ok, const char* what, int* failures) {
  std::printf("%-60s %s\n", what, ok ? "PASS" : "FAIL");
  if (!ok) ++*failures;
  return ok;
}

std::vector<std::uint64_t> HashesOf(const std::vector<json::Value>& raw) {
  std::vector<std::uint64_t> out;
  out.reserve(raw.size());
  for (const auto& r : raw) {
    out.push_back(bench::HashFromHex(r.At("hash").AsString()));
  }
  return out;
}

std::vector<dist::JobSpec> MiniJobs(std::size_t n) {
  std::vector<dist::JobSpec> jobs;
  jobs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    jobs.push_back(dist::JobSpec{json::Value(json::Object{}), i});
  }
  return jobs;
}

std::vector<std::uint64_t> RunMiniOn(dist::Backend backend,
                                     unsigned workers, std::size_t n) {
  dist::ExecutorConfig cfg;
  cfg.backend = backend;
  cfg.workers = workers;
  dist::CampaignExecutor exec(cfg);
  return HashesOf(exec.Run("mini_campaign", MiniJobs(n)));
}

/// CI's campaign smoke. The crash phase forks its socket workers, so it
/// runs before any thread is created (fork from a multi-threaded process is
/// where sanitizers get unhappy); the thread and loopback phases follow.
int SelfCheck() {
  constexpr std::size_t kJobs = 6;
  int failures = 0;

  // Crash containment: two forked socket workers serve a batch whose job 2
  // kills its worker mid-job. Exactly that job must fail, with the job
  // index, kind and backend in the error, and the surviving worker must
  // finish every other job.
  {
    constexpr unsigned kWorkers = 2;
    dist::ExecutorConfig cfg;
    cfg.backend = dist::Backend::kSocket;
    cfg.workers = kWorkers;
    cfg.accept_timeout_sec = 30.0;
    std::vector<pid_t> children;
    std::vector<dist::JobOutcome> outcomes;
    {
      dist::CampaignExecutor exec(cfg);
      const std::uint16_t port = exec.BindListener();
      std::fflush(nullptr);  // a child must not replay buffered output
      for (unsigned w = 0; w < kWorkers; ++w) {
        const pid_t child = ::fork();
        if (child == 0) {
          ::_exit(dist::RunSocketWorker("127.0.0.1", port,
                                        "selfcheck-child"));
        }
        if (child > 0) children.push_back(child);
      }
      std::vector<dist::JobSpec> jobs = MiniJobs(kJobs);
      for (std::size_t i = 0; i < kJobs; ++i) {
        json::Object o;
        o.emplace_back("crash", i == 2);
        jobs[i].args = json::Value(std::move(o));
      }
      if (children.size() == kWorkers) {
        outcomes = exec.RunAll("selfcheck_maybe_crash", jobs);
      }
    }  // destructor shuts the surviving worker down
    for (const pid_t child : children) ::waitpid(child, nullptr, 0);
    bool others_ok = outcomes.size() == kJobs;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (i == 2) continue;
      others_ok = others_ok && outcomes[i].ok;
    }
    Check(others_ok, "worker crash: all other jobs still succeed",
          &failures);
    const bool crashed_diagnosed =
        outcomes.size() == kJobs && !outcomes[2].ok &&
        outcomes[2].error.find("job 2") != std::string::npos &&
        outcomes[2].error.find("selfcheck_maybe_crash") !=
            std::string::npos &&
        outcomes[2].error.find("socket") != std::string::npos;
    Check(crashed_diagnosed,
          "worker crash: failed job carries index/kind/backend", &failures);
    if (!crashed_diagnosed && outcomes.size() == kJobs) {
      std::fprintf(stderr, "  error was: %s\n", outcomes[2].error.c_str());
    }
  }

  // Reference: serial in-process run.
  std::vector<std::uint64_t> expect;
  for (std::size_t i = 0; i < kJobs; ++i) {
    expect.push_back(bench::MiniCampaignHash(i));
  }
  Check(RunMiniOn(dist::Backend::kThread, 1, kJobs) == expect,
        "thread backend (1 worker) bit-identical", &failures);
  Check(RunMiniOn(dist::Backend::kThread, 3, kJobs) == expect,
        "thread backend (3 workers) bit-identical", &failures);

  // Socket backend: an in-process worker thread joins over loopback and the
  // results still match bit-for-bit. The executor lives in a nested scope
  // so its destructor (which sends kShutdown and closes the connection,
  // ending the worker loop) runs before the join.
  {
    std::thread worker;
    std::vector<std::uint64_t> got;
    {
      dist::ExecutorConfig cfg;
      cfg.backend = dist::Backend::kSocket;
      cfg.workers = 1;
      cfg.accept_timeout_sec = 30.0;
      dist::CampaignExecutor exec(cfg);
      const std::uint16_t port = exec.BindListener();
      worker = std::thread([port] {
        dist::RunSocketWorker("127.0.0.1", port, "selfcheck-worker");
      });
      try {
        got = HashesOf(exec.Run("mini_campaign", MiniJobs(kJobs)));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "socket selfcheck: %s\n", e.what());
      }
    }
    worker.join();
    Check(got == expect, "socket backend (loopback worker) bit-identical",
          &failures);
  }

  std::printf("%s: %d failure(s)\n", failures == 0 ? "SELFCHECK PASS"
                                                   : "SELFCHECK FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  grunt::bench::RegisterCampaignJobs();
  // Crash kind for --selfcheck: registered here (not in the bench library)
  // so production campaigns can't trip over it.
  grunt::dist::JobRegistry::Global().Register(
      "selfcheck_maybe_crash",
      [](const json::Value& args, std::uint64_t seed) -> json::Value {
        if (const json::Value* c = args.Find("crash");
            c != nullptr && c->AsBool()) {
          std::fflush(nullptr);
          ::_exit(134);  // simulate an abort without the core-dump noise
        }
        json::Object o;
        o.emplace_back("hash",
                       grunt::bench::HashToHex(
                           grunt::bench::MiniCampaignHash(seed)));
        return json::Value(std::move(o));
      });

  std::string connect, name = "worker";
  bool list_kinds = false, selfcheck = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-kinds") {
      list_kinds = true;
    } else if (arg == "--selfcheck") {
      selfcheck = true;
    } else if (arg == "--connect" && i + 1 < argc) {
      connect = argv[++i];
    } else if (arg.rfind("--connect=", 0) == 0) {
      connect = arg.substr(10);
    } else if (arg == "--name" && i + 1 < argc) {
      name = argv[++i];
    } else if (arg.rfind("--name=", 0) == 0) {
      name = arg.substr(7);
    } else {
      return Usage(argv[0]);
    }
  }

  if (list_kinds) {
    for (const auto& kind : grunt::dist::JobRegistry::Global().Kinds()) {
      std::printf("%s\n", kind.c_str());
    }
    return 0;
  }
  if (selfcheck) return SelfCheck();
  if (connect.empty()) return Usage(argv[0]);

  const std::size_t colon = connect.find_last_of(':');
  if (colon == std::string::npos || colon + 1 >= connect.size()) {
    std::fprintf(stderr, "--connect wants HOST:PORT, got \"%s\"\n",
                 connect.c_str());
    return 64;
  }
  const std::string host = connect.substr(0, colon);
  const long port = std::strtol(connect.c_str() + colon + 1, nullptr, 10);
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "bad port in \"%s\"\n", connect.c_str());
    return 64;
  }
  return grunt::dist::RunSocketWorker(
      host, static_cast<std::uint16_t>(port), name);
}
