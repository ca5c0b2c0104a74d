// grunt_bench_diff — compare a BENCH_*.json result file against its
// checked-in floor file and print per-metric deltas.
//
//   grunt_bench_diff [--warn-only] <floor.json> <bench.json>
//
// The floor file maps dotted metric paths (resolved against the bench JSON's
// nested objects) to minimum acceptable values:
//
//   {
//     "schema": 2,
//     "note": "...",
//     "floors": {
//       "engine.schedule_fire_events_per_sec": 6000000,
//       "timer_heavy.wheel_speedup": 1.15,
//       "?campaign_fanout.speedup": 2.0
//     }
//   }
//
// Floor schema v4: a path prefixed with "?" is OPTIONAL — it floors metrics
// a bench legitimately skips on some runners (speedups are null with a
// *_skipped note on a 1-core box). An optional metric that is absent or
// null in the bench JSON prints "skipped" and passes; when it IS present it
// is held to its floor like any other. Unprefixed paths keep the strict
// contract: missing means schema drift.
//
// Exit codes: 0 all metrics at or above floor (or --warn-only), 1 at least
// one metric below floor, 2 usage / schema errors. A required metric path
// that does not resolve in the bench JSON is always a hard error (exit 2),
// even under --warn-only: that is schema drift, not runner noise. Under
// --warn-only a dip prints a GitHub Actions `::warning` annotation instead
// of failing, the same contract as the old inline python floor checks.

#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

#include "util/json.h"

namespace {

/// Resolves "a.b.c" against nested JSON objects; nullptr when any hop is
/// missing or not an object.
const grunt::json::Value* Resolve(const grunt::json::Value& root,
                                  std::string_view path) {
  const grunt::json::Value* v = &root;
  while (!path.empty()) {
    const std::size_t dot = path.find('.');
    const std::string_view key =
        dot == std::string_view::npos ? path : path.substr(0, dot);
    path = dot == std::string_view::npos ? std::string_view{}
                                         : path.substr(dot + 1);
    v = v->Find(key);
    if (v == nullptr) return nullptr;
  }
  return v;
}

int Usage() {
  std::fprintf(stderr,
               "usage: grunt_bench_diff [--warn-only] <floor.json> "
               "<bench.json>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool warn_only = false;
  int arg = 1;
  if (arg < argc && std::strcmp(argv[arg], "--warn-only") == 0) {
    warn_only = true;
    ++arg;
  }
  if (argc - arg != 2) return Usage();
  const std::string floor_path = argv[arg];
  const std::string bench_path = argv[arg + 1];

  try {
    const grunt::json::Value floor = grunt::json::ParseFile(floor_path);
    const grunt::json::Value bench = grunt::json::ParseFile(bench_path);
    const grunt::json::Value& floors = floor.At("floors");
    if (!floors.is_object() || floors.AsObject().empty()) {
      std::fprintf(stderr, "%s: \"floors\" must be a non-empty object\n",
                   floor_path.c_str());
      return 2;
    }

    int below = 0;
    for (const auto& [raw_path, min_v] : floors.AsObject()) {
      const bool optional = !raw_path.empty() && raw_path[0] == '?';
      const std::string path =
          optional ? raw_path.substr(1) : raw_path;
      const grunt::json::Value* got = Resolve(bench, path);
      if (optional && (got == nullptr || got->is_null())) {
        std::printf("%-48s %14s  floor %14.2f  skipped on this runner\n",
                    path.c_str(), "-", min_v.AsDouble());
        continue;
      }
      if (got == nullptr || !got->is_number()) {
        std::fprintf(stderr,
                     "%s: metric \"%s\" missing from %s (schema drift?)\n",
                     floor_path.c_str(), path.c_str(), bench_path.c_str());
        return 2;
      }
      const double value = got->AsDouble();
      const double lo = min_v.AsDouble();
      const double delta_pct = lo > 0 ? (value / lo - 1.0) * 100.0 : 0.0;
      if (value < lo) {
        ++below;
        std::printf("%-48s %14.2f  floor %14.2f  %+.1f%% BELOW\n",
                    path.c_str(), value, lo, delta_pct);
        if (warn_only) {
          std::printf("::warning title=bench floor::%s at %.2f, below the "
                      "%.2f floor\n",
                      path.c_str(), value, lo);
        }
      } else {
        std::printf("%-48s %14.2f  floor %14.2f  %+.1f%% ok\n", path.c_str(),
                    value, lo, delta_pct);
      }
    }
    if (below > 0 && !warn_only) return 1;
    return 0;
  } catch (const grunt::json::Error& e) {
    std::fprintf(stderr, "grunt_bench_diff: %s\n", e.what());
    return 2;
  }
}
