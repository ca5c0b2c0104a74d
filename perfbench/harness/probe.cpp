#include "probe.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <unordered_map>

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kScenario: return "scenario";
    case Layer::kSim: return "sim";
    case Layer::kMicrosvc: return "microsvc";
    case Layer::kWorkload: return "workload";
    case Layer::kCloud: return "cloud";
    case Layer::kTelemetry: return "telemetry";
    case Layer::kAttack: return "attack";
    case Layer::kDist: return "dist";
    case Layer::kCount: break;
  }
  return "?";
}

struct Tracer::ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
  std::vector<std::size_t> open;  ///< indices into spans, innermost last
};

namespace {

constexpr int kThreadShift = 40;

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuffer& Tracer::Local() {
  thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(buffers_mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    local = buffers_.back().get();
    local->thread = static_cast<std::uint32_t>(buffers_.size() - 1);
  }
  return *local;
}

void Tracer::Begin(const char* name, Layer layer, std::uint32_t sim) {
  ThreadBuffer& buf = Local();
  Span s;
  s.id = (static_cast<std::int64_t>(buf.thread) << kThreadShift) |
         static_cast<std::int64_t>(buf.spans.size());
  s.parent = buf.open.empty() ? -1 : buf.spans[buf.open.back()].id;
  s.name = name;
  s.layer = layer;
  s.sim = sim;
  s.thread = buf.thread;
  buf.open.push_back(buf.spans.size());
  buf.spans.push_back(s);
  buf.spans.back().start_ns = NowNs();
}

void Tracer::End() {
  const std::int64_t now = NowNs();
  ThreadBuffer& buf = Local();
  if (buf.open.empty()) return;
  buf.spans[buf.open.back()].end_ns = now;
  buf.open.pop_back();
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(buffers_mu_);
  std::vector<Span> all;
  for (const auto& buf : buffers_) {
    all.insert(all.end(), buf->spans.begin(), buf->spans.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

SpanSummary Summarize(const std::vector<Span>& spans) {
  std::unordered_map<std::int64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t dur = spans[i].end_ns - spans[i].start_ns;
    self[i] += dur;
    if (spans[i].parent >= 0) {
      const auto it = index.find(spans[i].parent);
      if (it != index.end()) self[it->second] -= dur;
    }
  }
  SpanSummary out;
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    out.self_ms_by_layer[LayerName(static_cast<Layer>(l))] = 0;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out.total_ms_by_name[s.name] +=
        static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    out.self_ms_by_name[s.name] += static_cast<double>(self[i]) / 1e6;
    out.self_ms_by_layer[LayerName(s.layer)] +=
        static_cast<double>(self[i]) / 1e6;
  }
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                std::size_t max_attacker_spans) {
  const auto per_request = [](const Span& s) {
    return std::strcmp(s.name, "attack.send") == 0 ||
           std::strcmp(s.name, "attack.callback") == 0;
  };
  const std::size_t n = static_cast<std::size_t>(
      std::count_if(spans.begin(), spans.end(), per_request));
  const std::size_t cap = std::max<std::size_t>(1, max_attacker_spans);
  const std::size_t stride = std::max<std::size_t>(1, (n + cap - 1) / cap);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::size_t seen = 0;
  for (const Span& s : spans) {
    if (per_request(s) && seen++ % stride != 0) continue;
    std::fprintf(f,
                 "{\"id\":%lld,\"parent\":%lld,\"name\":\"%s\","
                 "\"layer\":\"%s\",\"sim\":%u,\"thread\":%u,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent), s.name,
                 LayerName(s.layer), s.sim, s.thread,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

std::vector<grunt::attack::PublicUrl> TimedTargetClient::CrawlUrls() {
  ScopedSpan span("attack.crawl", Layer::kAttack, sim_);
  return inner_.CrawlUrls();
}

void TimedTargetClient::Send(std::int32_t url_id, bool heavy,
                             std::uint64_t bot_id, bool attack_traffic,
                             ResponseCallback on_response) {
  ScopedSpan span("attack.send", Layer::kAttack, sim_);
  inner_.Send(url_id, heavy, bot_id, attack_traffic,
              [this, cb = std::move(on_response)](grunt::SimTime sent,
                                                  grunt::SimTime done,
                                                  bool ok) {
                ++callbacks_;
                ScopedSpan inner("attack.callback", Layer::kAttack, sim_);
                if (cb) cb(sent, done, ok);
              });
}

void TimedTargetClient::After(grunt::SimDuration delay,
                              std::function<void()> fn) {
  inner_.After(delay, [this, fn = std::move(fn)] {
    ++callbacks_;
    ScopedSpan inner("attack.callback", Layer::kAttack, sim_);
    fn();
  });
}

}  // namespace perfbench
