#pragma once

// Named, serializable campaign jobs. A job kind is a pure function from
// (JSON args, seed) to a JSON result; because the description is data, the
// same job runs identically on the in-process thread pool or in a socket
// worker on any machine that linked the same registrations
// (tools/grunt_campaign_worker). Determinism rule: a kind must derive all
// randomness from `seed` and all configuration from `args`, so every
// backend and worker count produces byte-identical results.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/json.h"

namespace grunt::dist {

using JobFn =
    std::function<json::Value(const json::Value& args, std::uint64_t seed)>;

class JobRegistry {
 public:
  /// The process-wide registry the worker loops execute against. Benches
  /// and the worker CLI populate it at startup (RegisterCampaignJobs).
  static JobRegistry& Global();

  /// Registers `kind`; re-registering an existing kind throws
  /// json::Error (two different functions behind one name on different
  /// machines would silently break the determinism contract).
  void Register(const std::string& kind, JobFn fn);

  /// nullptr when unknown.
  const JobFn* Find(const std::string& kind) const;

  /// Registration-order kind names (grunt_campaign_worker --list-kinds).
  std::vector<std::string> Kinds() const;

 private:
  std::vector<std::pair<std::string, JobFn>> entries_;
};

/// Executes `kind` from the global registry; throws json::Error naming the
/// kind when it was never registered.
json::Value RunRegisteredJob(const std::string& kind,
                             const json::Value& args, std::uint64_t seed);

}  // namespace grunt::dist
