#pragma once

// Outside-in probes for the benchmark harness. Spans are recorded only by
// the harness itself, around its calls into the simulator's modules (the
// layers below are the src/ module names); nothing inside src/ is
// instrumented. An untraced run records no spans and attaches no decorator,
// so the only probe it pays for is the two clock reads per one-second
// simulation slice that slice_ms needs.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "attack/target_client.h"

namespace perfbench {

enum class Layer : std::uint8_t {
  kScenario,
  kSim,
  kMicrosvc,
  kWorkload,
  kCloud,
  kTelemetry,
  kAttack,
  kDist,
  kCount,
};

const char* LayerName(Layer layer);

/// CLOCK_MONOTONIC nanoseconds (steady_clock on Linux), so a parent process
/// can compare its own spawn time with the harness's timestamps.
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One recorded interval. `parent` is the id of the enclosing span on the
/// same thread (-1 at top level); `sim` identifies the simulation the work
/// belongs to (0 when it belongs to none).
struct Span {
  std::int64_t id = 0;
  std::int64_t parent = -1;
  const char* name = "";
  Layer layer = Layer::kSim;
  std::uint32_t sim = 0;
  std::uint32_t thread = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Process-wide in-memory span store. Each thread appends to its own buffer
/// (registered once under a mutex), so recording takes no lock.
class Tracer {
 public:
  static Tracer& Get();

  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread.
  void Begin(const char* name, Layer layer, std::uint32_t sim);
  /// Closes the innermost open span of the calling thread.
  void End();

  /// Every recorded span, ordered by id. Call after all threads joined.
  std::vector<Span> Collect() const;

 private:
  struct ThreadBuffer;
  ThreadBuffer& Local();

  bool enabled_ = false;
  /// Buffers outlive their threads: Collect() runs after the workers joined.
  mutable std::mutex buffers_mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span; a no-op unless the tracer is enabled.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, Layer layer, std::uint32_t sim = 0)
      : on_(Tracer::Get().enabled()) {
    if (on_) Tracer::Get().Begin(name, layer, sim);
  }
  ~ScopedSpan() {
    if (on_) Tracer::Get().End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool on_;
};

/// Span times in ms. A span's self time is its duration minus the part its
/// child spans cover.
struct SpanSummary {
  std::map<std::string, double> total_ms_by_name;
  std::map<std::string, double> self_ms_by_name;
  std::map<std::string, double> self_ms_by_layer;  ///< every layer present
};
SpanSummary Summarize(const std::vector<Span>& spans);

/// Writes one JSON object per span (name, layer, sim, thread, id, parent,
/// start/end ns). The attacker decorator's spans (one per Send and per
/// callback, about a million in a traced campaign) are written at an even
/// stride so that at most `max_attacker_spans` of them reach the file; all
/// other spans are written. Returns false on an I/O error.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                std::size_t max_attacker_spans);

/// TargetClient decorator used only by traced runs: a span around every
/// Send ("attack.send") and around every attacker callback the simulation
/// fires — After() timers and response callbacks ("attack.callback"). The
/// attacker's self time is callback time minus the Sends nested in it.
class TimedTargetClient : public grunt::attack::TargetClient {
 public:
  TimedTargetClient(grunt::attack::TargetClient& inner, std::uint32_t sim)
      : inner_(inner), sim_(sim) {}

  std::vector<grunt::attack::PublicUrl> CrawlUrls() override;
  void Send(std::int32_t url_id, bool heavy, std::uint64_t bot_id,
            bool attack_traffic, ResponseCallback on_response) override;
  grunt::SimTime Now() const override { return inner_.Now(); }
  void After(grunt::SimDuration delay, std::function<void()> fn) override;

  std::uint64_t callbacks() const { return callbacks_; }

 private:
  grunt::attack::TargetClient& inner_;
  std::uint32_t sim_;
  std::uint64_t callbacks_ = 0;
};

}  // namespace perfbench
