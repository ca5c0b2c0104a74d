#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "attack/botfarm.h"
#include "attack/burst.h"
#include "attack/kalman.h"
#include "attack/profiler.h"
#include "attack/target_client.h"
#include "model/queuing_model.h"
#include "util/timeseries.h"

namespace grunt::attack {

/// Tuning of the Commander module (Sec IV-D).
struct CommanderConfig {
  // --- attacking goals ---
  double target_tmin_ms = 1000.0;  ///< damage goal: avg RT >= 1 s
  double pmb_limit_ms = 500.0;     ///< stealth goal: P_MB <= 500 ms

  // --- initialisation (find min B, max L, min m) ---
  /// Geometric sweep for the minimum burst rate that triggers a
  /// millibottleneck (requests/second).
  double rate_sweep_lo = 200.0;
  double rate_sweep_hi = 6400.0;
  std::int32_t rate_probe_count = 16;  ///< requests per rate-test burst
  /// A burst whose mean RT exceeds `trigger_factor * baseline` (or baseline
  /// + trigger_floor_ms) indicates resource saturation (Sec IV-D step 1).
  double trigger_factor = 2.5;
  double trigger_floor_ms = 40.0;
  /// Baseline RT assumed for a path the profiler produced no measurement
  /// for (e.g. every baseline probe failed against a fault-tolerant
  /// target). A warning is logged the first time it is used.
  double fallback_baseline_ms = 100.0;
  /// A rate-sweep burst also counts as "triggered" when the target starts
  /// failing requests: a fault-tolerant deployment sheds or times out
  /// instead of letting RT grow, so errors ARE the saturation signal.
  double trigger_error_fraction = 0.10;
  /// Margin under the stealth cap targeted during L calibration.
  double pmb_target_fraction = 0.9;
  std::int32_t max_paths = 6;    ///< cap on m
  std::int32_t min_count = 4;    ///< smallest burst size ever used
  std::int32_t max_count = 4096; ///< safety cap on burst size

  // --- steady-state control loop ---
  SimDuration min_interval = Ms(100);
  SimDuration max_interval = Sec(5);
  /// Monitor-module probe cadence: light (legit-like) requests sent during
  /// the attack to estimate the damage a normal user experiences; this is
  /// the t_min feedback signal (burst requests are heavy and would
  /// overestimate it).
  SimDuration probe_period = Ms(250);
  /// Cool-down between calibration bursts: probe-until-quiet, same
  /// mechanism as the profiler's settle.
  SimDuration settle = Ms(500);
  std::int32_t settle_max_tries = 16;
  double settle_factor = 2.0;
  /// Kalman variances for the P_MB and t_min estimators.
  double kf_process_var = 400.0;       // (ms^2) drift between bursts
  double kf_measurement_var = 2500.0;  // (ms^2) noise of one estimate
  /// Stability guards on the periodic loop: never have more than
  /// `max_inflight_bursts` bursts without feedback, and pause firing while
  /// the damage estimate exceeds `overshoot_factor` * target (the feedback
  /// itself is delayed by the damage it reports, so unbounded firing would
  /// run away).
  std::int32_t max_inflight_bursts = 3;
  double overshoot_factor = 1.5;
  /// Per-service stealth: each bottleneck service may spend at most this
  /// fraction of wall time inside a millibottleneck, keeping its 1 s-mean
  /// CPU below the autoscaler/IDS thresholds. With m alternating paths the
  /// rotation provides the spacing; with m = 1 this forces cool gaps —
  /// which is exactly why single-path attacks cannot meet both goals.
  double max_duty_cycle = 0.30;
  /// Ablation switches (Sec V / DESIGN.md ablation benches).
  bool use_kalman = true;
  bool alternate_paths = true;  ///< false: hammer a single path (Tail-style)
};

/// One attack burst as fired and observed.
struct BurstRecord {
  SimTime at = 0;
  std::int32_t url = -1;
  double rate = 0;
  std::int32_t count = 0;
  double pmb_ms = 0;      ///< Monitor estimate for this burst
  double mean_rt_ms = 0;  ///< Monitor damage estimate for this burst
  double ok_fraction = 1.0;  ///< responses that were not errors
};

/// Per-path attack parameters discovered during initialisation.
struct PathPlan {
  std::int32_t url = -1;
  double baseline_ms = 0;
  double rate = 0;            ///< B_i
  std::int32_t count = 0;     ///< B_i * L_i in requests
  double measured_pmb_ms = 0; ///< P_MB at the calibrated volume
  model::BlockingKind kind = model::BlockingKind::kCrossTier;

  double length_s() const {
    return rate > 0 ? static_cast<double>(count) / rate : 0;
  }
  double volume() const { return static_cast<double>(count); }
};

/// Open-loop replay of a previously calibrated campaign: the per-path plans
/// plus the steady firing intervals observed in a reference run. Installed
/// with GroupCommander::SetReplay() before Initialize(); calibration is then
/// skipped entirely and the burst loop fires the fixed plans at the fixed
/// intervals with NO feedback adaptation of volume or cadence. This is how
/// the defense benches hold the attack constant while toggling the
/// deployment under it ("same campaign, defense toggled") — a re-optimizing
/// attacker is a different experiment.
struct GroupReplay {
  std::vector<PathPlan> plans;
  /// Aligned with `plans`; 0 (or missing) falls back to the default cadence.
  std::vector<SimDuration> intervals;
  std::int32_t paths_used = 0;  ///< m; 0 = all plans
};

/// Attack-time telemetry for one dependency group.
struct GroupStats {
  std::vector<PathPlan> plans;            ///< all calibrated paths, ranked
  std::int32_t paths_used = 0;            ///< m
  std::vector<BurstRecord> bursts;
  TimeSeries tmin_est_ms;                 ///< Kalman t_min after each burst
  TimeSeries burst_volume;                ///< requests per burst over time
  std::uint64_t attack_requests = 0;

  double MeanPmbMs() const;
  double MeanTminMs() const;
};

/// Drives the Grunt attack against ONE dependency group: calibrates each
/// member path (min B, max L), ranks candidates by blocking kind and volume
/// (Sec III-C), finds the minimum number of paths m that meets the damage
/// goal, then runs the alternating-burst loop with Kalman-filtered feedback
/// until told to stop.
class GroupCommander {
 public:
  /// `group` lists the member URL ids; `profile` supplies baselines and the
  /// pairwise evidence used for ranking.
  GroupCommander(TargetClient& target, BotFarm& bots, CommanderConfig cfg,
                 std::vector<std::int32_t> group, const ProfileResult& profile);

  /// Installs a pre-calibrated open-loop schedule; must be called before
  /// Initialize(). See GroupReplay.
  void SetReplay(GroupReplay replay) { replay_ = std::move(replay); }

  /// Phase 1+2: per-path calibration and m search; `done` fires when the
  /// group is ready to attack. With a replay installed, both phases are
  /// skipped and the group is ready immediately.
  void Initialize(std::function<void()> done);

  /// Phase 3: attack until `until` (target clock), then `done`.
  void Attack(SimTime until, std::function<void()> done);

  const GroupStats& stats() const { return stats_; }
  bool initialized() const { return initialized_; }

 private:
  struct PathRuntime {
    PathPlan plan;
    ScalarKalman pmb_kf;
    ScalarKalman tmin_kf;  ///< per-path damage estimate (diagnostics)
    SimDuration interval = Ms(450);
    bool inflight = false;  ///< a burst on this path is awaiting responses
  };

  // Initialisation state machine.
  void CalibratePath(std::size_t idx, std::function<void()> done);
  void FindMinRate(std::size_t idx, double rate, std::function<void()> done);
  void FindMaxCount(std::size_t idx, std::int32_t count,
                    std::int32_t last_good, double last_good_pmb,
                    std::function<void()> done);
  void RankAndTrim();
  void TrialRun(std::int32_t m, std::function<void()> done);

  // Periodic burst engine (Sec III-B: the next burst fires one interval
  // after the previous burst STARTS, overlapping its drain so the blocking
  // effect never lapses).
  struct LoopCtx {
    std::int32_t m = 1;          ///< paths in rotation
    SimTime until = 0;
    bool trial = false;          ///< record into trial_rts_, send as probes
    std::function<void()> done;
    std::size_t idx = 0;         ///< rotation position
  };
  void FireInitialMixedBurst();
  void FireLoop(std::shared_ptr<LoopCtx> ctx);
  /// Monitor-module probe loop: runs alongside FireLoop for the same ctx.
  void ProbeLoop(std::shared_ptr<LoopCtx> ctx, std::size_t probe_idx);
  void OnBurstDone(std::size_t path_idx, const BurstObservation& obs,
                   bool trial);

  double BaselineOf(std::int32_t url) const;
  /// Probe-until-quiet cool-down on one path.
  void SettleQuiet(std::int32_t url, std::function<void()> done);

  TargetClient& target_;
  BotFarm& bots_;
  CommanderConfig cfg_;
  std::vector<std::int32_t> group_;
  const ProfileResult& profile_;
  std::vector<PathRuntime> paths_;  ///< ranked after calibration
  std::optional<GroupReplay> replay_;
  GroupStats stats_;
  bool initialized_ = false;
  bool attacking_ = false;
  mutable bool warned_fallback_baseline_ = false;
  SimTime attack_until_ = 0;
  std::function<void()> attack_done_;
  std::vector<double> trial_rts_;  ///< burst mean RTs of the current trial
  double trial_tmin_ms_ = 0;  ///< damage seen during the last trial cycle
  std::int32_t outstanding_bursts_ = 0;
  double last_tmin_est_ms_ = 0;
  /// Group-level damage estimator fed by the light probes.
  ScalarKalman group_tmin_kf_{400.0, 2500.0, 0.0, 1e5};
};

}  // namespace grunt::attack
