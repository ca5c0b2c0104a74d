// grunt_perfbench: runs one benchmark workload once, in this process, and
// prints one JSON object with what it measured (see perfbench/run.py, which
// repeats runs, aggregates medians and checks digests).
//
//   grunt_perfbench --workload <name> [--seed N] [--trace 0|1]
//                   [--specs DIR] [--spans FILE] [--smoke] [--setup-only]
//                   [--inject-failure]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "probe.h"
#include "util/json.h"
#include "workloads.h"

namespace {

namespace json = grunt::json;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

/// Keeps a traced campaign's span file to a few tens of MB.
constexpr std::size_t kMaxAttackerSpans = 100000;

int Usage(const char* why) {
  std::fprintf(stderr,
               "grunt_perfbench: %s\nusage: grunt_perfbench --workload "
               "<name> [--seed N] [--trace 0|1] [--specs DIR] [--spans FILE] "
               "[--smoke] [--setup-only] [--inject-failure]\n",
               why);
  return 2;
}

json::Value ToJson(const std::map<std::string, double>& m) {
  json::Object o;
  for (const auto& [k, v] : m) o.emplace_back(k, v);
  return json::Value(std::move(o));
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      opts.seed = std::strtoull(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0') return Usage("bad --seed");
    } else if (arg == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return Usage("--trace takes 0 or 1");
      opts.traced = v == "1";
    } else if (arg == "--specs" && has_value) {
      opts.specs_dir = argv[++i];
    } else if (arg == "--spans" && has_value) {
      spans_path = argv[++i];
    } else if (arg == "--smoke") {
      opts.smoke = true;
    } else if (arg == "--setup-only") {
      opts.setup_only = true;
    } else if (arg == "--inject-failure") {
      opts.inject_failure = true;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (opts.workload.empty()) return Usage("--workload is required");
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (!kOptimized || kSanitized || build_type == "Debug") {
    std::fprintf(stderr,
                 "grunt_perfbench: refusing to measure a %s%s build; build "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str(), kSanitized ? " sanitizer" : "");
    return 3;
  }
  if (opts.traced) perfbench::Tracer::Get().Enable();

  perfbench::WorkloadResult r;
  try {
    r = perfbench::RunWorkload(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "grunt_perfbench: %s\n", e.what());
    return 1;
  }

  json::Object o;
  o.emplace_back("workload", opts.workload);
  o.emplace_back("seed", static_cast<std::int64_t>(opts.seed));
  o.emplace_back("traced", opts.traced);
  o.emplace_back("first_event_ns", r.first_event_ns);
  o.emplace_back("end_ns", r.end_ns);
  o.emplace_back("sims_attempted", static_cast<std::int64_t>(r.sims_attempted));
  o.emplace_back("sims_failed", static_cast<std::int64_t>(r.sims_failed));
  json::Array failures;
  for (const auto& f : r.failures) failures.push_back(json::Value(f));
  o.emplace_back("failures", json::Value(std::move(failures)));
  o.emplace_back("digest", r.digest);
  o.emplace_back("sim_requests", static_cast<std::int64_t>(r.sim_requests));
  json::Array slices;
  slices.reserve(r.slice_ms.size());
  for (const double ms : r.slice_ms) slices.push_back(json::Value(ms));
  o.emplace_back("slice_ms", json::Value(std::move(slices)));
  o.emplace_back("workers", static_cast<std::int64_t>(r.workers));
  json::Array jobs;
  for (const auto& j : r.jobs) {
    json::Object jo;
    jo.emplace_back("start_ms", j.start_ms);
    jo.emplace_back("ms", j.ms);
    jo.emplace_back("thread", static_cast<std::int64_t>(j.thread));
    jobs.push_back(json::Value(std::move(jo)));
  }
  o.emplace_back("jobs", json::Value(std::move(jobs)));
  o.emplace_back("layers", ToJson(r.layers));
  if (opts.traced) {
    const auto spans = perfbench::Tracer::Get().Collect();
    const auto summary = perfbench::Summarize(spans);
    json::Object s;
    s.emplace_back("count", static_cast<std::int64_t>(spans.size()));
    s.emplace_back("self_ms_by_layer", ToJson(summary.self_ms_by_layer));
    s.emplace_back("total_ms_by_name", ToJson(summary.total_ms_by_name));
    s.emplace_back("self_ms_by_name", ToJson(summary.self_ms_by_name));
    o.emplace_back("spans", json::Value(std::move(s)));
    if (!spans_path.empty() &&
        !perfbench::WriteSpans(spans_path, spans, kMaxAttackerSpans)) {
      std::fprintf(stderr, "grunt_perfbench: cannot write %s\n",
                   spans_path.c_str());
      return 1;
    }
  }
  json::Object build;
  build.emplace_back("compiler", __VERSION__);
  build.emplace_back("build_type", build_type);
  o.emplace_back("build", json::Value(std::move(build)));
  std::printf("%s\n", json::Value(std::move(o)).Dump(0).c_str());
  return 0;
}
