#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>

#include "apps/socialnetwork.h"
#include "attack/grunt_attack.h"
#include "attack/sim_target_client.h"
#include "cloud/autoscaler.h"
#include "cloud/ids.h"
#include "cloud/monitor.h"
#include "dist/campaign_executor.h"
#include "dist/job_registry.h"
#include "microsvc/cluster.h"
#include "probe.h"
#include "scenario/builder.h"
#include "scenario/loader.h"
#include "scenario/spec.h"
#include "trace/dependency.h"
#include "util/json.h"
#include "util/stats.h"
#include "workload/workload.h"

namespace perfbench {

namespace {

namespace attack = grunt::attack;
namespace cloud = grunt::cloud;
namespace dist = grunt::dist;
namespace json = grunt::json;
namespace microsvc = grunt::microsvc;
namespace scenario = grunt::scenario;
namespace workload = grunt::workload;
using grunt::Samples;
using grunt::Sec;
using grunt::SimDuration;
using grunt::SimTime;
using grunt::ToSeconds;

using Counters = std::map<std::string, double>;

// ---- digests ---------------------------------------------------------------

struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;
  void Add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ull;
  }
  void Add(const std::string& s) { Add(s.data(), s.size()); }
};

std::string Hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

json::Value Int(std::uint64_t v) {
  return json::Value(static_cast<std::int64_t>(v));
}

json::Value SamplesJson(const Samples& s) {
  json::Array a;
  a.reserve(s.count());
  for (const double v : s.values()) a.push_back(json::Value(v));
  return json::Value(std::move(a));
}

// ---- one deployed simulation -----------------------------------------------

/// The operator stack of the paper benches (closed-loop users, CloudWatch
/// and fine-grained monitors, response-time monitor, autoscaler, IDS, and
/// optionally the attacker's client), built in the benches' order so that
/// bus subscription order — and therefore every simulated result — matches
/// them. Every call into a layer sits inside a span; traced runs also wrap
/// the attacker's client and count completion and span events on the bus.
class Deployment {
 public:
  Deployment(microsvc::Application app,
             const workload::ClosedLoopWorkload::Config& users,
             const scenario::OperatorSpec& ops, std::uint64_t seed,
             std::uint32_t sim_id, bool with_client, bool traced)
      : app_(std::move(app)), sim_id_(sim_id) {
    {
      ScopedSpan span("microsvc.cluster", Layer::kMicrosvc, sim_id_);
      cluster_ = std::make_unique<microsvc::Cluster>(sim_, app_, seed);
    }
    {
      ScopedSpan span("workload.start", Layer::kWorkload, sim_id_);
      users_ = std::make_unique<workload::ClosedLoopWorkload>(*cluster_,
                                                              users, seed);
      users_->Start();
    }
    {
      ScopedSpan span("cloud.operators", Layer::kCloud, sim_id_);
      cloudwatch_ = std::make_unique<cloud::ResourceMonitor>(
          *cluster_, cloud::ResourceMonitor::Config{ops.coarse_granularity,
                                                    "cloudwatch"});
      fine_ = std::make_unique<cloud::ResourceMonitor>(
          *cluster_,
          cloud::ResourceMonitor::Config{ops.fine_granularity, "fine"});
      rt_ = std::make_unique<cloud::ResponseTimeMonitor>(
          *cluster_,
          cloud::ResponseTimeMonitor::Config{ops.rt_granularity, "rt"});
      if (ops.autoscaler_enabled) {
        scaler_ = std::make_unique<cloud::AutoScaler>(*cluster_, *cloudwatch_,
                                                      ops.autoscaler);
      }
      if (ops.ids_enabled) {
        ids_ = std::make_unique<cloud::Ids>(*cluster_, cloudwatch_.get(),
                                            rt_.get(), ops.ids);
      }
      cloudwatch_->Start();
      fine_->Start();
      rt_->Start();
      if (scaler_) scaler_->Start();
      if (ids_) ids_->Start();
    }
    if (with_client) {
      ScopedSpan span("attack.client", Layer::kAttack, sim_id_);
      client_ = std::make_unique<attack::SimTargetClient>(*cluster_);
      if (traced) {
        timed_client_ = std::make_unique<TimedTargetClient>(*client_, sim_id_);
      }
    }
    if (traced) {
      // The span subscription switches on span construction inside the
      // cluster, so only traced runs make it.
      ScopedSpan span("telemetry.subscribe", Layer::kTelemetry, sim_id_);
      auto& bus = cluster_->telemetry();
      bus.completion().Subscribe(
          [this](const microsvc::CompletionRecord&) { ++bus_completions_; });
      bus.span().Subscribe(
          [this](const microsvc::SpanEvent&) { ++bus_spans_; });
    }
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  SimTime now() const { return sim_.Now(); }
  const microsvc::Application& app() const { return app_; }
  microsvc::Cluster& cluster() { return *cluster_; }
  cloud::ResourceMonitor& cloudwatch() { return *cloudwatch_; }
  cloud::ResponseTimeMonitor& rt() { return *rt_; }
  cloud::AutoScaler* scaler() { return scaler_.get(); }
  cloud::Ids* ids() { return ids_.get(); }
  std::uint32_t sim_id() const { return sim_id_; }
  /// What the attacker talks to: the decorator in traced runs.
  attack::TargetClient& client() {
    if (timed_client_) return *timed_client_;
    return *client_;
  }
  std::uint64_t attack_sends() const {
    return client_ ? client_->requests_sent() : 0;
  }
  const std::vector<double>& slice_ms() const { return slice_ms_; }
  std::int64_t first_event_ns() const { return first_event_ns_; }

  /// Advances the simulation to `until` in slices that end on whole
  /// simulated seconds, timing each slice. Splitting RunUntil does not
  /// change firing order, which is by (time, seq) across slices.
  void AdvanceTo(SimTime until) {
    while (sim_.Now() < until) {
      const SimTime next =
          std::min(until, (sim_.Now() / Sec(1) + 1) * Sec(1));
      const std::int64_t t0 = NowNs();
      if (first_event_ns_ == 0) first_event_ns_ = t0;
      {
        ScopedSpan span("sim.RunUntil", Layer::kSim, sim_id_);
        sim_.RunUntil(next);
      }
      slice_ms_.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    }
  }

  /// The benches' RunUntilFlag: 10 s steps until `flag` is set or `cap`.
  bool AdvanceUntilFlag(const bool& flag, SimTime cap) {
    while (!flag && sim_.Now() < cap) AdvanceTo(sim_.Now() + Sec(10));
    return flag;
  }

  /// Runs a cloud-layer query under the window-query span.
  template <class F>
  auto Window(F&& query) {
    ScopedSpan span("cloud.window", Layer::kCloud, sim_id_);
    return query();
  }

  /// Stops the users and every operator, then runs until nothing is left
  /// to fire (bounded by `cap` past now). Returns false if events remain.
  bool Drain(SimDuration cap) {
    users_->SetUserCount(0);
    cloudwatch_->Stop();
    fine_->Stop();
    rt_->Stop();
    if (scaler_) scaler_->Stop();
    if (ids_) ids_->Stop();
    ScopedSpan span("sim.drain", Layer::kSim, sim_id_);
    sim_.RunUntil(sim_.Now() + cap);
    return sim_.pending_events() == 0;
  }

  /// Conservation checks from public counters; "" when they hold.
  std::string BrokenInvariants() const {
    std::string out;
    std::uint64_t sum = 0;
    for (std::size_t o = 0; o < microsvc::kOutcomeCount; ++o) {
      sum += cluster_->outcome_count(static_cast<microsvc::Outcome>(o));
    }
    if (sum != cluster_->completed_count()) {
      out += "outcome counts sum to " + std::to_string(sum) +
             " but completed_count() is " +
             std::to_string(cluster_->completed_count()) + "; ";
    }
    if (attack_sends() > cluster_->submitted_count()) {
      out += "attack sends " + std::to_string(attack_sends()) +
             " exceed submitted_count() " +
             std::to_string(cluster_->submitted_count()) + "; ";
    }
    return out;
  }

  /// Adds this simulation's per-layer counters to `c`.
  void AddCounters(Counters& c, bool traced) {
    const auto st = sim_.stats();
    c["sim.events"] += static_cast<double>(sim_.events_fired());
    c["sim.immediate_scheduled"] += static_cast<double>(st.immediate_scheduled);
    c["sim.wheel_cascades"] += static_cast<double>(st.wheel_cascades);
    c["sim.wheel_cancelled"] += static_cast<double>(st.wheel_cancelled);
    c["sim.heap_callbacks"] += static_cast<double>(st.heap_callbacks);
    c["sim.compactions"] += static_cast<double>(st.compactions);
    const auto& cl = *cluster_;
    c["microsvc.completed"] += static_cast<double>(cl.completed_count());
    c["microsvc.outcome.timeout"] +=
        static_cast<double>(cl.outcome_count(microsvc::Outcome::kTimeout));
    c["microsvc.outcome.rejected"] +=
        static_cast<double>(cl.outcome_count(microsvc::Outcome::kRejected));
    c["microsvc.outcome.deadline"] += static_cast<double>(
        cl.outcome_count(microsvc::Outcome::kDeadlineExceeded));
    c["microsvc.deadline_sheds"] += static_cast<double>(cl.deadline_sheds());
    c["microsvc.pool_high_water"] =
        std::max(c["microsvc.pool_high_water"],
                 static_cast<double>(cl.lifecycle_stats().requests.high_water));
    c["workload.legit_submitted"] +=
        static_cast<double>(cl.submitted_count() - attack_sends());
    double samples = static_cast<double>(rt_->legit_mean_ms().size());
    for (std::size_t s = 0; s < cl.service_count(); ++s) {
      const auto sid = static_cast<microsvc::ServiceId>(s);
      samples += static_cast<double>(cloudwatch_->cpu_util(sid).size() +
                                     fine_->cpu_util(sid).size());
    }
    c["cloud.monitor_samples"] += samples;
    if (scaler_) {
      c["cloud.scale_actions"] += static_cast<double>(
          scaler_->scale_up_count() + scaler_->scale_down_count());
    }
    if (ids_) {
      c["cloud.ids_alerts"] += static_cast<double>(ids_->alerts().size());
    }
    c["attack.sends"] += static_cast<double>(attack_sends());
    if (traced) {
      {
        ScopedSpan span("telemetry.snapshot", Layer::kTelemetry, sim_id_);
        (void)cluster_->telemetry().metrics().Snapshot();
      }
      c["telemetry.completions"] += static_cast<double>(bus_completions_);
      c["telemetry.spans"] += static_cast<double>(bus_spans_);
      if (timed_client_) {
        c["attack.callbacks"] +=
            static_cast<double>(timed_client_->callbacks());
      }
    }
  }

 private:
  grunt::sim::Simulation sim_;
  microsvc::Application app_;
  std::uint32_t sim_id_;
  std::unique_ptr<microsvc::Cluster> cluster_;
  std::unique_ptr<workload::ClosedLoopWorkload> users_;
  std::unique_ptr<cloud::ResourceMonitor> cloudwatch_;
  std::unique_ptr<cloud::ResourceMonitor> fine_;
  std::unique_ptr<cloud::ResponseTimeMonitor> rt_;
  std::unique_ptr<cloud::AutoScaler> scaler_;
  std::unique_ptr<cloud::Ids> ids_;
  std::unique_ptr<attack::SimTargetClient> client_;
  std::unique_ptr<TimedTargetClient> timed_client_;
  std::uint64_t bus_completions_ = 0;
  std::uint64_t bus_spans_ = 0;
  std::vector<double> slice_ms_;
  std::int64_t first_event_ns_ = 0;
};

// ---- Grunt campaign (the benches' RunSocialNetworkCampaign) ----------------

struct CampaignPlan {
  SimDuration attack_duration = Sec(60);
  attack::GruntConfig cfg;
  const attack::ProfileResult* profile = nullptr;  ///< null: blackbox
};

/// The paper tables' representative bottleneck: the non-gateway service
/// with the highest mean CPU in [from, to). Gateways are recognized by
/// their huge thread pools (in SocialNetwork that is service 0 alone).
microsvc::ServiceId HottestBackend(Deployment& d, SimTime from, SimTime to) {
  return d.Window([&] {
    microsvc::ServiceId best = 0;
    double best_util = -1;
    for (std::size_t i = 0; i < d.cluster().service_count(); ++i) {
      const auto sid = static_cast<microsvc::ServiceId>(i);
      if (d.app().service(sid).threads_per_replica >=
          scenario::kGatewayThreads) {
        continue;
      }
      const double util = d.cloudwatch().cpu_util(sid).WindowMean(from, to);
      if (util > best_util) {
        best_util = util;
        best = sid;
      }
    }
    return best;
  });
}

/// Runs baseline window, attack campaign and attack window on `d`, and
/// returns the campaign's results in the byte-stable layout of the benches'
/// campaign codec (bench/campaign_jobs.cpp CampaignResultToJson), so that
/// digests compare with the paper benches. Adds the attack-layer counters.
json::Value RunCampaign(Deployment& d, const CampaignPlan& plan, Counters& c,
                        std::string& error) {
  const SimTime kBaseFrom = Sec(20), kBaseTo = Sec(50);
  d.AdvanceTo(kBaseTo);
  auto& rt = d.rt();
  auto& cw = d.cloudwatch();
  const Samples base_rt =
      d.Window([&] { return rt.LegitWindow(kBaseFrom, kBaseTo); });
  const double base_goodput =
      d.Window([&] { return rt.goodput().WindowMean(kBaseFrom, kBaseTo); });
  const double base_error = d.Window(
      [&] { return rt.error_rate().WindowMean(kBaseFrom, kBaseTo); });
  const double base_mbps = d.Window(
      [&] { return cw.gateway_mbps().WindowMean(kBaseFrom, kBaseTo); });
  const auto hottest =
      HottestBackend(d, kBaseFrom, kBaseTo);
  const double base_cpu = 100.0 * d.Window([&] {
    return cw.cpu_util(hottest).WindowMean(kBaseFrom, kBaseTo);
  });

  std::unique_ptr<attack::GruntAttack> grunt;
  SimTime attack_start = 0;
  attack::GruntReport report;
  bool done = false;
  const SimTime launched = d.now();
  {
    ScopedSpan span("attack.launch", Layer::kAttack, d.sim_id());
    grunt = std::make_unique<attack::GruntAttack>(d.client(), plan.cfg);
    grunt->OnAttackPhaseStart([&](SimTime at) { attack_start = at; });
    auto on_done = [&](const attack::GruntReport& r) {
      report = r;
      done = true;
    };
    if (plan.profile != nullptr) {
      grunt->RunWithProfile(*plan.profile, plan.attack_duration, on_done);
    } else {
      grunt->Run(plan.attack_duration, on_done);
    }
  }
  if (!d.AdvanceUntilFlag(done, Sec(7200))) {
    error += "campaign did not finish by 7200 simulated seconds; ";
  }
  const SimTime attack_end = attack_start + plan.attack_duration;
  const SimTime att_from = attack_start + Sec(5);

  json::Object o;
  o.emplace_back("base_rt_ms", SamplesJson(base_rt));
  o.emplace_back("att_rt_ms", SamplesJson(d.Window([&] {
                   return rt.LegitWindow(att_from, attack_end);
                 })));
  o.emplace_back("base_mbps", base_mbps);
  o.emplace_back("att_mbps", d.Window([&] {
                   return cw.gateway_mbps().WindowMean(att_from, attack_end);
                 }));
  o.emplace_back("base_cpu_pct", base_cpu);
  o.emplace_back("att_cpu_pct", 100.0 * d.Window([&] {
                   return cw.cpu_util(hottest).WindowMean(att_from,
                                                          attack_end);
                 }));
  o.emplace_back("base_goodput", base_goodput);
  o.emplace_back("att_goodput", d.Window([&] {
                   return rt.goodput().WindowMean(att_from, attack_end);
                 }));
  o.emplace_back("base_error_rate", base_error);
  o.emplace_back("att_error_rate", d.Window([&] {
                   return rt.error_rate().WindowMean(att_from, attack_end);
                 }));
  std::int64_t bulkhead = 0, limiter = 0, sheds = 0;
  for (std::size_t i = 0; i < d.cluster().service_count(); ++i) {
    const auto& svc = d.cluster().service(static_cast<microsvc::ServiceId>(i));
    bulkhead += svc.bulkhead_rejections();
    limiter += svc.limiter_rejections();
    sheds += svc.deadline_sheds();
  }
  o.emplace_back("bulkhead_rejections", bulkhead);
  o.emplace_back("limiter_rejections", limiter);
  o.emplace_back("deadline_sheds", sheds);
  json::Array outcomes;
  for (std::size_t k = 0; k < microsvc::kOutcomeCount; ++k) {
    outcomes.push_back(
        Int(rt.legit_outcome_count(static_cast<microsvc::Outcome>(k))));
  }
  o.emplace_back("legit_outcomes", json::Value(std::move(outcomes)));
  o.emplace_back("bottleneck_service", d.app().service(hottest).name);
  o.emplace_back("bots", Int(report.bots_used));
  o.emplace_back("mean_pmb_ms", report.MeanPmbMs());
  std::size_t scale_during = 0;
  if (d.scaler() != nullptr) {
    for (const auto& action : d.scaler()->actions()) {
      if (action.at >= attack_start && action.at < attack_end) ++scale_during;
    }
  }
  o.emplace_back("scale_actions_during_attack", Int(scale_during));
  o.emplace_back("attributed_alerts",
                 Int(d.ids() != nullptr ? d.ids()->attributed_attack_alerts()
                                        : 0));
  o.emplace_back("attack_start", static_cast<std::int64_t>(attack_start));
  o.emplace_back("attack_end", static_cast<std::int64_t>(attack_end));
  o.emplace_back("report_bots_used", Int(report.bots_used));
  o.emplace_back("report_attack_requests", Int(report.attack_requests));

  std::size_t bursts = 0;
  for (const auto& g : report.groups) bursts += g.bursts.size();
  c["attack.bursts"] += static_cast<double>(bursts);
  c["attack.bots"] += static_cast<double>(report.bots_used);
  c["attack.prep_sim_s"] += ToSeconds(attack_start - launched);
  return json::Value(std::move(o));
}

// ---- shared scenario plumbing ----------------------------------------------

struct Scenario {
  scenario::ScenarioSpec spec;
  microsvc::Application app;
  workload::ClosedLoopWorkload::Config users;
};

Scenario LoadScenario(const std::string& path) {
  Scenario s;
  {
    ScopedSpan span("scenario.parse", Layer::kScenario);
    s.spec = scenario::LoadScenarioFile(path);
  }
  if (s.spec.workload.kind != scenario::WorkloadSpec::Kind::kClosedLoop) {
    throw std::runtime_error(path + ": the benchmark expects a closed-loop "
                                    "workload");
  }
  ScopedSpan span("scenario.build", Layer::kScenario);
  s.app = scenario::BuildApplication(s.spec.topology);
  s.users.users = s.spec.workload.users;
  s.users.think_mean = s.spec.workload.think_mean;
  s.users.navigator = scenario::BuildNavigator(s.app, s.spec.workload);
  return s;
}

/// Ground-truth profile of `app` under the spec's legit request rates (the
/// white-box profile the defense bench hands to RunWithProfile).
attack::ProfileResult TruthProfile(const microsvc::Application& app,
                                   const scenario::WorkloadSpec& wl) {
  ScopedSpan span("attack.truth_profile", Layer::kAttack);
  const auto mix = scenario::BuildRequestMix(app, wl);
  double total_w = 0;
  for (const double w : mix.weights) total_w += w;
  const double total_rate =
      static_cast<double>(wl.users) / ToSeconds(wl.think_mean);
  std::vector<double> rates(app.request_type_count(), 0.0);
  for (std::size_t i = 0; i < mix.types.size(); ++i) {
    rates[static_cast<std::size_t>(mix.types[i])] =
        total_rate * mix.weights[i] / total_w;
  }
  attack::ProfileResult profile;
  profile.baseline_rt_ms.assign(app.request_type_count(), 20.0);
  for (const auto t : app.PublicDynamicTypes()) {
    profile.candidates.push_back(t);
    attack::PublicUrl url;
    url.url_id = t;
    url.path = "/" + app.request_type(t).name;
    profile.urls.push_back(url);
  }
  grunt::trace::GroundTruth truth(app, rates);
  grunt::trace::DependencyGroups groups(app.request_type_count());
  for (const auto& dep : truth.AllPairs()) {
    if (grunt::trace::IsDependent(dep.type)) {
      profile.pairs.push_back(dep);
      groups.Union(dep.a, dep.b);
    }
  }
  for (const auto& g : groups.Groups()) {
    if (!app.request_type(g.front()).is_static || g.size() > 1) {
      profile.groups.push_back(g);
    }
  }
  return profile;
}

/// Seeds: seed 0 reproduces the paper benches' seeds; every other seed
/// shifts all of a workload's seeds by the same stride.
std::uint64_t SeedFor(std::uint64_t base, std::uint64_t seed) {
  return base + seed * 1'000'003ull;
}

/// Finishes a serial (one-simulation) workload result.
void FinishSerial(WorkloadResult& out, Deployment& d, const json::Value& stats,
                  const std::string& error, const RunOptions& opts) {
  d.AddCounters(out.layers, opts.traced);
  std::string broken = error + d.BrokenInvariants();
  if (opts.inject_failure) broken += "injected failure; ";
  Fnv1a h;
  h.Add(stats.Dump(0));
  out.digest = Hex(h.h);
  out.sims_attempted = 1;
  if (!broken.empty()) {
    out.sims_failed = 1;
    out.failures.push_back("sim 1: " + broken);
  }
  out.sim_requests = d.cluster().completed_count();
  out.slice_ms = d.slice_ms();
  out.first_event_ns = d.first_event_ns();
}

// ---- workload: table1_campaign ---------------------------------------------

struct Setting {
  const char* name;
  std::int32_t users;
  double capacity_scale;
  std::int32_t replica_scale;
};

/// bench/rig.cpp PaperSettings(): Table I's six cloud settings.
constexpr Setting kPaperSettings[] = {
    {"EC2-7K", 7000, 1.00, 1},      {"EC2-12K", 12000, 1.00, 2},
    {"Azure-4K", 4000, 0.95, 1},    {"Azure-9K", 9000, 0.95, 2},
    {"CloudLab-5K", 5000, 1.05, 1}, {"CloudLab-11K", 11000, 1.05, 2},
};

/// What the benchmark's job wrapper records about one job, outside the
/// executor: wall interval, thread, and the simulation's own measurements.
struct JobRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::size_t thread = 0;
  std::int64_t first_event_ns = 0;
  std::vector<double> slice_ms;
  Counters counters;
  std::uint64_t completed = 0;
  std::string broken;
};

struct Table1State {
  bool traced = false;
  bool smoke = false;
  std::vector<JobRecord> jobs;  ///< sized before Run; job i writes slot i
};
Table1State* g_table1 = nullptr;

constexpr const char* kTable1Kind = "perfbench.table1_campaign";

workload::ClosedLoopWorkload::Config SocialNetworkUsers(
    const microsvc::Application& app, std::int32_t users) {
  workload::ClosedLoopWorkload::Config wl;
  wl.users = users;
  wl.navigator = grunt::apps::SocialNetworkNavigator(app);
  return wl;
}

microsvc::Application BuildSocialNetwork(const json::Value& args) {
  ScopedSpan span("scenario.build", Layer::kScenario);
  grunt::apps::SocialNetworkOptions opts;
  opts.replica_scale =
      static_cast<std::int32_t>(args.At("replica_scale").AsInt64());
  opts.capacity_scale = args.At("capacity_scale").AsDouble();
  opts.dist = microsvc::ServiceTimeDist::kExponential;
  return grunt::apps::MakeSocialNetwork(opts);
}

json::Value Table1Job(const json::Value& args, std::uint64_t seed) {
  const auto index = static_cast<std::size_t>(args.At("index").AsInt64());
  JobRecord& rec = g_table1->jobs.at(index);
  rec.start_ns = NowNs();
  rec.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  const auto sim_id = static_cast<std::uint32_t>(index + 1);
  json::Value result;
  {
    ScopedSpan job("dist.job", Layer::kDist, sim_id);
    auto app = BuildSocialNetwork(args);
    const auto users = SocialNetworkUsers(
        app, static_cast<std::int32_t>(args.At("users").AsInt64()));
    Deployment d(std::move(app), users, scenario::OperatorSpec{}, seed,
                 sim_id, /*with_client=*/true, g_table1->traced);
    CampaignPlan plan;
    plan.attack_duration = Sec(args.At("attack_sec").AsInt64());
    std::string error;
    result = RunCampaign(d, plan, rec.counters, error);
    d.AddCounters(rec.counters, g_table1->traced);
    rec.broken = error + d.BrokenInvariants();
    rec.first_event_ns = d.first_event_ns();
    rec.slice_ms = d.slice_ms();
    rec.completed = d.cluster().completed_count();
  }
  rec.end_ns = NowNs();
  return result;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

WorkloadResult RunTable1(const RunOptions& opts) {
  static bool registered = false;
  if (!registered) {
    dist::JobRegistry::Global().Register(kTable1Kind, Table1Job);
    registered = true;
  }
  Table1State state;
  state.traced = opts.traced;
  state.smoke = opts.smoke;
  g_table1 = &state;

  dist::ExecutorConfig cfg;
  cfg.backend = dist::Backend::kThread;
  cfg.workers = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  dist::CampaignExecutor exec(cfg);

  std::vector<dist::JobSpec> jobs;
  const std::size_t n = opts.smoke ? 2 : std::size(kPaperSettings);
  for (std::size_t i = 0; i < n; ++i) {
    const Setting& s = kPaperSettings[i];
    json::Object args;
    args.emplace_back("name", s.name);
    args.emplace_back("users",
                      static_cast<std::int64_t>(opts.smoke ? s.users / 10
                                                           : s.users));
    args.emplace_back("capacity_scale", s.capacity_scale);
    args.emplace_back("replica_scale",
                      static_cast<std::int64_t>(s.replica_scale));
    args.emplace_back("attack_sec", std::int64_t{opts.smoke ? 10 : 60});
    args.emplace_back("index", static_cast<std::int64_t>(i));
    jobs.push_back(dist::JobSpec{
        json::Value(std::move(args)),
        SeedFor(1000 + static_cast<std::uint64_t>(s.users), opts.seed)});
  }
  state.jobs.resize(n);

  WorkloadResult out;
  out.workers = exec.workers();
  if (opts.setup_only) {
    // Job 0's set-up on this thread: what a worker does before its first
    // simulated event.
    auto app = BuildSocialNetwork(jobs[0].args);
    const auto users = SocialNetworkUsers(
        app, static_cast<std::int32_t>(jobs[0].args.At("users").AsInt64()));
    Deployment d(std::move(app), users, scenario::OperatorSpec{},
                 jobs[0].seed, 1, true, opts.traced);
    out.first_event_ns = NowNs();
    g_table1 = nullptr;
    return out;
  }

  const std::int64_t run_start = NowNs();
  const auto outcomes = exec.RunAll(kTable1Kind, jobs);
  const std::int64_t run_end = NowNs();

  Fnv1a h;
  double codec_ms = 0;
  std::vector<double> job_ms;
  std::vector<std::size_t> thread_ids;
  for (std::size_t i = 0; i < n; ++i) {
    const JobRecord& rec = state.jobs[i];
    out.sims_attempted += 1;
    std::string broken = outcomes[i].ok ? rec.broken : outcomes[i].error;
    if (opts.inject_failure && i == 0) broken += "injected failure; ";
    if (!broken.empty()) {
      out.sims_failed += 1;
      out.failures.push_back("sim " + std::to_string(i + 1) + ": " + broken);
    }
    if (outcomes[i].ok) {
      // Serializing the results to their wire text (what the process and
      // socket backends frame) is the codec cost; the digest reads it.
      const std::int64_t t0 = NowNs();
      {
        ScopedSpan codec("dist.codec", Layer::kDist);
        h.Add(outcomes[i].result.Dump(0));
      }
      codec_ms += static_cast<double>(NowNs() - t0) / 1e6;
    }
    if (rec.first_event_ns != 0 &&
        (out.first_event_ns == 0 || rec.first_event_ns < out.first_event_ns)) {
      out.first_event_ns = rec.first_event_ns;
    }
    out.slice_ms.insert(out.slice_ms.end(), rec.slice_ms.begin(),
                        rec.slice_ms.end());
    out.sim_requests += rec.completed;
    for (const auto& [k, v] : rec.counters) {
      if (k == "microsvc.pool_high_water") {
        out.layers[k] = std::max(out.layers[k], v);
      } else {
        out.layers[k] += v;
      }
    }
    job_ms.push_back(static_cast<double>(rec.end_ns - rec.start_ns) / 1e6);
    auto it = std::find(thread_ids.begin(), thread_ids.end(), rec.thread);
    if (it == thread_ids.end()) it = thread_ids.insert(it, rec.thread);
    out.jobs.push_back(
        {static_cast<double>(rec.start_ns - run_start) / 1e6, job_ms.back(),
         static_cast<unsigned>(it - thread_ids.begin())});
  }
  out.digest = Hex(h.h);

  double busy_ms = 0;
  for (const double ms : job_ms) busy_ms += ms;
  const double wall_ms = static_cast<double>(run_end - run_start) / 1e6;
  out.layers["dist.job_ms_p50"] = Percentile(job_ms, 50);
  out.layers["dist.job_ms_max"] =
      job_ms.empty() ? 0 : *std::max_element(job_ms.begin(), job_ms.end());
  out.layers["dist.idle_frac"] =
      1.0 - busy_ms / (static_cast<double>(out.workers) * wall_ms);
  out.layers["dist.codec_ms"] = codec_ms;
  g_table1 = nullptr;
  return out;
}

// ---- workload: mubench196_steady -------------------------------------------

WorkloadResult RunMubenchSteady(const RunOptions& opts) {
  Scenario s = LoadScenario(opts.specs_dir + "/mubench-196.json");
  Deployment d(std::move(s.app), s.users, s.spec.operators,
               SeedFor(7, opts.seed), 1, /*with_client=*/false, opts.traced);
  WorkloadResult out;
  if (opts.setup_only) {
    out.first_event_ns = NowNs();
    return out;
  }
  const SimTime end = opts.smoke ? Sec(60) : Sec(600);
  const SimTime from = Sec(30);
  d.AdvanceTo(end);

  auto& rt = d.rt();
  json::Object o;
  o.reserve(16);  // also avoids a GCC 12 -Warray-bounds false positive
  const Samples legit = d.Window([&] { return rt.LegitWindow(from, end); });
  Fnv1a values;
  values.Add(legit.values().data(), legit.values().size() * sizeof(double));
  o.emplace_back("legit_count", Int(legit.count()));
  o.emplace_back("legit_values_fnv", Hex(values.h));
  o.emplace_back("legit_mean_ms", legit.mean());
  o.emplace_back("legit_p50_ms", legit.Percentile(50));
  o.emplace_back("legit_p99_ms", legit.Percentile(99));
  o.emplace_back("goodput",
                 d.Window([&] { return rt.goodput().WindowMean(from, end); }));
  o.emplace_back("gateway_mbps", d.Window([&] {
                   return d.cloudwatch().gateway_mbps().WindowMean(from, end);
                 }));
  const auto hottest =
      d.Window([&] { return d.cloudwatch().HottestService(from, end); });
  o.emplace_back("hottest_service", d.app().service(hottest).name);
  o.emplace_back("hottest_cpu", d.Window([&] {
                   return d.cloudwatch().cpu_util(hottest).WindowMean(from,
                                                                      end);
                 }));
  json::Array actions;
  if (d.scaler() != nullptr) {
    for (const auto& a : d.scaler()->actions()) {
      actions.push_back(json::Value(json::Array{
          json::Value(static_cast<std::int64_t>(a.at)),
          json::Value(static_cast<std::int64_t>(a.service)),
          json::Value(static_cast<std::int64_t>(a.delta))}));
    }
  }
  o.emplace_back("scale_actions", json::Value(std::move(actions)));
  o.emplace_back("ids_alerts",
                 Int(d.ids() != nullptr ? d.ids()->alerts().size() : 0));

  std::string error;
  if (!d.Drain(Sec(600))) error += "events still pending after drain; ";
  error += d.cluster().DrainInvariantsBroken();
  o.emplace_back("submitted", Int(d.cluster().submitted_count()));
  o.emplace_back("completed", Int(d.cluster().completed_count()));
  json::Array outcomes;
  for (std::size_t k = 0; k < microsvc::kOutcomeCount; ++k) {
    outcomes.push_back(
        Int(d.cluster().outcome_count(static_cast<microsvc::Outcome>(k))));
  }
  o.emplace_back("outcomes", json::Value(std::move(outcomes)));
  o.emplace_back("gateway_bytes", d.cluster().gateway_bytes());
  FinishSerial(out, d, json::Value(std::move(o)), error, opts);
  return out;
}

// ---- workload: defended_storm ----------------------------------------------

WorkloadResult RunDefendedStorm(const RunOptions& opts) {
  Scenario s = LoadScenario(opts.specs_dir + "/socialnetwork_defended.json");
  const attack::ProfileResult profile = TruthProfile(s.app, s.spec.workload);
  Deployment d(std::move(s.app), s.users, s.spec.operators,
               SeedFor(17, opts.seed), 1, /*with_client=*/true, opts.traced);
  WorkloadResult out;
  if (opts.setup_only) {
    out.first_event_ns = NowNs();
    return out;
  }
  CampaignPlan plan;
  plan.attack_duration = opts.smoke ? Sec(20) : Sec(600);
  // The defense bench's equal-attacker budget.
  plan.cfg.botfarm.max_bots = 2000;
  plan.profile = &profile;
  std::string error;
  json::Value stats = RunCampaign(d, plan, out.layers, error);
  json::Array outcomes;
  for (std::size_t k = 0; k < microsvc::kOutcomeCount; ++k) {
    outcomes.push_back(
        Int(d.cluster().outcome_count(static_cast<microsvc::Outcome>(k))));
  }
  stats.Set("outcomes", json::Value(std::move(outcomes)));
  stats.Set("submitted", Int(d.cluster().submitted_count()));
  FinishSerial(out, d, stats, error, opts);
  return out;
}

}  // namespace

WorkloadResult RunWorkload(const RunOptions& opts) {
  WorkloadResult out;
  if (opts.workload == "table1_campaign") {
    out = RunTable1(opts);
  } else if (opts.workload == "mubench196_steady") {
    out = RunMubenchSteady(opts);
  } else if (opts.workload == "defended_storm") {
    out = RunDefendedStorm(opts);
  } else {
    throw std::invalid_argument("unknown workload \"" + opts.workload + "\"");
  }
  out.end_ns = NowNs();
  return out;
}

}  // namespace perfbench
