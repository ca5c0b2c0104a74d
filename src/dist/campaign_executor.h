#pragma once

// Out-of-process campaign execution (DESIGN §9).
//
// A campaign — the Table-1 damage sweep, a Fig-11 pairwise grid, an
// ablation — is hundreds of independent simulations. CampaignExecutor runs
// a batch of registered jobs (job_registry.h) on one of two
// interchangeable backends behind the same index-ordered contract the
// in-process ParallelRunner established:
//
//   kThread   the ParallelRunner thread pool — jobs run in this process.
//   kSocket   length-prefixed frames over TCP to grunt_campaign_worker
//             processes on this or other machines. A worker that dies
//             fails only the job it was running: its lane is dropped and
//             the other lanes finish the campaign.
//
// Socket dispatch is work-stealing in the self-scheduling sense: job i is
// seeded to lane i, and every later job goes to whichever worker frees up
// first (a job landing off its static shard counts as a steal in
// WorkerStats). Results are merged in job-index order, and job
// descriptions/results serialize through byte-stable util/json — so
// campaign output is bit-identical across backends and worker counts. The
// socket pool persists across Run() calls (accepted once, shut down in the
// destructor).

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "telemetry/bus.h"
#include "util/json.h"

namespace grunt::dist {

enum class Backend : std::uint8_t { kThread, kSocket };

const char* BackendName(Backend b);
/// "thread" | "socket"; anything else throws util::EnvError.
Backend ParseBackend(const std::string& text);

struct ExecutorConfig {
  Backend backend = Backend::kThread;
  /// 0 resolves to ParallelRunner::DefaultThreads().
  unsigned workers = 0;
  /// Socket backend: port to listen on (0 = kernel-assigned; BindListener
  /// returns the actual port) and the address to bind — loopback by
  /// default, "0.0.0.0" to let workers join from other machines.
  std::uint16_t listen_port = 0;
  std::string listen_host = "127.0.0.1";
  /// Socket backend: how long Run() waits for all workers to join.
  double accept_timeout_sec = 60.0;
  /// Optional observability: per-job CampaignJobEvents on the campaign_job
  /// channel plus per-worker job/steal/latency counters in the bus's
  /// metrics registry. The bus must outlive the executor.
  telemetry::TelemetryBus* bus = nullptr;
};

/// GRUNT_BENCH_BACKEND (thread|socket), GRUNT_BENCH_WORKERS,
/// GRUNT_BENCH_LISTEN_PORT, GRUNT_BENCH_LISTEN_HOST. Set-but-invalid
/// values throw util::EnvError (same contract as GRUNT_BENCH_THREADS).
ExecutorConfig ConfigFromEnv();

/// One job: the registered kind's JSON arguments plus the seed carried in
/// the job frame (per-job RNG plumbing — a kind must derive all randomness
/// from it).
struct JobSpec {
  json::Value args;
  std::uint64_t seed = 0;
};

/// Per-job terminal state, in job-index order.
struct JobOutcome {
  bool ok = false;
  json::Value result;  ///< kind's return value when ok
  std::string error;   ///< diagnosis when !ok (includes crash context)
};

/// One socket lane, or one thread-pool thread (numbered by the first job
/// it ran in each batch).
struct WorkerStats {
  unsigned worker = 0;
  std::string name;            ///< socket hello name; "thread" for the pool
  std::uint64_t jobs = 0;
  std::uint64_t steals = 0;    ///< socket jobs run off their static shard
  std::uint64_t failures = 0;  ///< error outcomes (incl. worker deaths)
  double busy_ms = 0;          ///< summed per-job wall time
};

/// What Run() throws for the lowest-indexed failed job: the message carries
/// the job index, kind, backend, and the underlying error, so a failed
/// campaign cell is diagnosable without re-running the sweep.
class CampaignError : public std::runtime_error {
 public:
  CampaignError(const std::string& what, std::size_t job_index,
                std::string kind, Backend backend)
      : std::runtime_error(what),
        job_index_(job_index),
        kind_(std::move(kind)),
        backend_(backend) {}

  std::size_t job_index() const { return job_index_; }
  const std::string& kind() const { return kind_; }
  Backend backend() const { return backend_; }

 private:
  std::size_t job_index_;
  std::string kind_;
  Backend backend_;
};

class CampaignExecutor {
 public:
  explicit CampaignExecutor(ExecutorConfig cfg = ConfigFromEnv());
  ~CampaignExecutor();
  CampaignExecutor(const CampaignExecutor&) = delete;
  CampaignExecutor& operator=(const CampaignExecutor&) = delete;

  Backend backend() const { return cfg_.backend; }
  unsigned workers() const { return workers_; }

  /// Socket backend: bind + listen now and return the actual port (useful
  /// before Run() blocks waiting for workers). Idempotent.
  std::uint16_t BindListener();

  /// Runs registry[kind](jobs[i].args, jobs[i].seed) for every i and
  /// returns the outcomes in job-index order. Individual failures (thrown
  /// jobs, dead workers) land in their JobOutcome; RunAll itself throws
  /// only for setup-level faults (unparseable config, no workers joined).
  std::vector<JobOutcome> RunAll(const std::string& kind,
                                 const std::vector<JobSpec>& jobs);

  /// RunAll, then throws CampaignError for the lowest-indexed failed job
  /// (mirroring ParallelRunner's lowest-index rethrow); on success returns
  /// just the results, in job-index order.
  std::vector<json::Value> Run(const std::string& kind,
                               const std::vector<JobSpec>& jobs);

  /// Cumulative per-lane counters across every Run() so far.
  const std::vector<WorkerStats>& worker_stats() const { return stats_; }

  /// Cumulative stats as one JSON object (the per-worker metrics artifact
  /// benches write when GRUNT_CAMPAIGN_METRICS_JSON is set).
  json::Value StatsJson() const;

 private:
  struct Lane;
  struct Metrics;

  void AddWorker(std::string name);
  void AcceptSocketLanes(std::size_t want);
  void DispatchLoop(const std::string& kind,
                    const std::vector<JobSpec>& jobs,
                    std::vector<JobOutcome>* outcomes);
  void HandleLaneDeath(Lane& lane, const std::string& why,
                       const std::string& kind,
                       std::vector<JobOutcome>* outcomes);
  void RecordJob(unsigned worker, std::size_t index, bool stolen, bool ok,
                 double latency_ms);

  std::vector<JobOutcome> RunThreadBackend(const std::string& kind,
                                           const std::vector<JobSpec>& jobs);

  ExecutorConfig cfg_;
  unsigned workers_ = 1;
  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<WorkerStats> stats_;
  std::unique_ptr<Metrics> metrics_;  ///< interned ids into cfg_.bus
};

}  // namespace grunt::dist
