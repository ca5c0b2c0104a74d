#pragma once

// The three benchmark workloads, driven through the public API of the
// simulator (src/scenario, sim, microsvc, workload, cloud, telemetry) and
// the attack library (src/attack), with the Table-1 fan-out on
// src/dist's CampaignExecutor. See perfbench/README.md for why each
// workload exists and which layer metrics it is meant to move.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  /// Tiny inputs for the self-test: same code paths, seconds of host time.
  bool smoke = false;
  /// Stop at the first simulated event (set-up time only).
  bool setup_only = false;
  /// Mark the first simulation as failed (self-test of failure counting).
  bool inject_failure = false;
  std::string specs_dir = "specs";
};

/// What one process run of a workload measured.
struct WorkloadResult {
  std::int64_t first_event_ns = 0;  ///< steady clock; first RunUntil slice
  std::int64_t end_ns = 0;          ///< results digested and checked
  std::uint64_t sims_attempted = 0;
  std::uint64_t sims_failed = 0;
  std::vector<std::string> failures;
  /// FNV-1a 64 over the byte-stable JSON of every simulation's results, in
  /// simulation order, as 16 hex digits.
  std::string digest;
  std::uint64_t sim_requests = 0;  ///< completed, legit + attack
  std::vector<double> slice_ms;    ///< host ms per simulated second
  unsigned workers = 1;            ///< executor workers (1 when serial)
  /// Executor jobs as the benchmark's job wrapper saw them: start (ms after
  /// the batch was handed to the executor), duration, and worker thread
  /// (numbered in order of first appearance). Empty when serial.
  struct Job {
    double start_ms = 0;
    double ms = 0;
    unsigned thread = 0;
  };
  std::vector<Job> jobs;
  /// Per-layer counters and host times (the per_layer metrics that do not
  /// come from spans).
  std::map<std::string, double> layers;
};

/// Runs one workload ("table1_campaign", "mubench196_steady" or
/// "defended_storm") to completion. Throws std::invalid_argument for an
/// unknown workload name.
WorkloadResult RunWorkload(const RunOptions& opts);

}  // namespace perfbench
