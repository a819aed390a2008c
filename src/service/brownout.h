/// \file brownout.h
/// \brief Brownout ladder: degrade answer quality under pressure instead of
/// failing requests outright.
///
/// When the service is saturated, the choices are to queue (latency grows
/// without bound), shed (work is refused), or *degrade*: spend less per
/// request so more requests finish inside their deadlines. NedExplain
/// answers degrade naturally -- the secondary answer and the detailed
/// listing are strictly additive over the condensed answer (Defs 2.12-2.14),
/// so dropping them keeps every remaining statement true.
///
/// The ladder, driven by measured pressure:
///
///   L0  full answers (no degradation)
///   L1  skip the secondary answer (compute_secondary = false)
///   L2  condensed-focused: additionally drop TabQ dumps and cap the
///       rendered detailed listing at `detailed_cap` entries
///   L3  shed batch/background work at admission; interactive still served
///       at L2 quality
///
/// Pressure is the worst of three normalized signals: queue depth / queue
/// capacity, in-flight memory / watermark, and recent-completion p99 /
/// target. Level transitions are hysteretic -- stepping *up* is immediate
/// (overload hurts now), stepping *down* requires the pressure to stay below
/// the lower threshold for `step_down_hold_ms` (so the ladder does not
/// oscillate at a threshold boundary).
///
/// Honesty rules, enforced by the service: every degraded answer is flagged
/// in AnswerSummary::degradation (rendered by report.cpp), and degraded
/// answers are never put into the answer tier -- a tier hit must always be
/// the full answer, never a brownout artifact outliving the overload that
/// caused it.
///
/// The controller is a passive object, externally synchronized by the
/// service mutex; it reads time only via the injected Clock.

#ifndef NED_SERVICE_BROWNOUT_H_
#define NED_SERVICE_BROWNOUT_H_

#include <cstdint>
#include <vector>

#include "common/timer.h"
#include "core/nedexplain.h"
#include "core/report.h"

namespace ned {

/// Ladder policy; embedded in ServiceOptions. Disabled by default: brownout
/// changes answer content, so operators opt in.
struct BrownoutOptions {
  bool enabled = false;
  /// Pressure thresholds for entering each level (monotone increasing).
  double level1_pressure = 0.50;
  double level2_pressure = 0.75;
  double level3_pressure = 0.90;
  /// At L2+, the rendered detailed listing is truncated to this many
  /// entries (the counts still report the true totals).
  size_t detailed_cap = 8;
  /// Completions sampled for the p99 pressure signal.
  size_t latency_window = 128;
  /// p99 target; 0 means "use the service's default deadline".
  int64_t p99_target_ms = 0;
  /// Pressure must stay below the step-down threshold this long before the
  /// level drops (step-up is immediate).
  int64_t step_down_hold_ms = 100;
};

/// Measured-pressure state machine for the ladder. Externally synchronized.
class BrownoutController {
 public:
  BrownoutController(BrownoutOptions options, const Clock* clock);

  /// Records one request completion for the p99 signal.
  void RecordCompletion(int64_t latency_ms);

  /// Recomputes pressure from current signals and advances the level.
  /// `queue_frac` = queued / capacity, `mem_frac` = in-flight bytes /
  /// watermark (0 when unlimited). Returns the new level.
  int Update(double queue_frac, double mem_frac);

  int level() const { return level_; }
  double pressure() const { return pressure_; }

  /// p99 of the recorded completion window (0 when empty).
  int64_t RecentP99Ms() const;

  /// Pure threshold map, no hysteresis: the level `pressure` alone asks
  /// for. Exposed so tests can sweep it for monotonicity.
  static int LevelForPressure(double pressure, const BrownoutOptions& options);

 private:
  const BrownoutOptions options_;
  const Clock* const clock_;

  int level_ = 0;
  double pressure_ = 0.0;
  /// When the measured level first dropped below level_; reset whenever the
  /// measurement climbs back. Step-down commits after step_down_hold_ms.
  bool step_down_pending_ = false;
  Clock::TimePoint step_down_since_{};

  /// Fixed-size ring of recent completion latencies.
  std::vector<int64_t> window_;
  size_t window_next_ = 0;
  size_t window_filled_ = 0;
};

/// Applies level `level`'s computation cuts to engine options:
/// L1+ disables the secondary answer, L2+ drops TabQ dumps.
void ApplyBrownoutToOptions(int level, NedExplainOptions* options);

/// Stamps the degradation flag on a freshly computed summary and applies
/// L2's rendering cap to the detailed listing. No-op at level 0.
void ApplyBrownoutToSummary(int level, size_t detailed_cap,
                            AnswerSummary* summary);

}  // namespace ned

#endif  // NED_SERVICE_BROWNOUT_H_
