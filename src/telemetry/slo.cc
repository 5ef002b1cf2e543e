#include "src/telemetry/slo.h"

#include <initializer_list>
#include <utility>

namespace cxl::telemetry {

namespace {
constexpr int kReasonLatency = 0;
constexpr int kReasonThroughput = 1;
}  // namespace

SloTracker::SloTracker(SloSpec spec, MetricRegistry* sink, WindowAttributor attributor)
    : spec_(std::move(spec)), sink_(sink), attributor_(std::move(attributor)) {}

void SloTracker::Observe(double t_ms, double latency_us, double throughput) {
  const double dt_ms = have_obs_ ? t_ms - prev_t_ms_ : 0.0;
  if (!have_obs_) {
    first_t_ms_ = t_ms;
    have_obs_ = true;
  }

  const bool latency_breach = latency_us > 0.0 && latency_us > spec_.max_latency_us;
  const bool throughput_breach = throughput < spec_.min_throughput;

  if (latency_breach || throughput_breach) {
    ++breach_streak_;
    good_streak_ = 0;
    if (open_) {
      open_burned_ms_ += dt_ms;
    } else {
      pending_burn_ms_ += dt_ms;
      if (breach_streak_ >= spec_.arm_observations) {
        // Latency dominates when both objectives are breached.
        const int reason = latency_breach ? kReasonLatency : kReasonThroughput;
        const double observed = latency_breach ? latency_us : throughput;
        const double objective =
            latency_breach ? spec_.max_latency_us : spec_.min_throughput;
        OpenViolation(t_ms, reason, observed, objective);
      }
    }
  } else {
    ++good_streak_;
    breach_streak_ = 0;
    pending_burn_ms_ = 0.0;
    if (open_ && good_streak_ >= spec_.clear_observations) {
      CloseViolation(t_ms);
    }
  }

  prev_t_ms_ = t_ms;
  last_t_ms_ = t_ms;
}

void SloTracker::Finish() {
  if (open_) {
    CloseViolation(last_t_ms_);
  }
  if (sink_ != nullptr) {
    // The three gauge names share one buffer: slo.<workload> plus a suffix.
    std::string name = "slo." + spec_.workload;
    const size_t stem = name.size();
    for (const auto& [suffix, value] : {std::pair<const char*, double>{".burned_ms", burned_ms_},
                                        {".burn_rate", burn_rate()},
                                        {".violations", static_cast<double>(violations_)}}) {
      name.resize(stem);
      name += suffix;
      sink_->GetGauge(name).Set(value);
    }
  }
}

double SloTracker::burn_rate() const {
  const double span_ms = last_t_ms_ - first_t_ms_;
  const double budget_ms = spec_.budget_fraction * span_ms;
  return budget_ms > 0.0 ? burned_ms_ / budget_ms : 0.0;
}

void SloTracker::OpenViolation(double t_ms, int reason, double observed, double objective) {
  open_ = true;
  open_reason_ = reason;
  // The arming intervals burned while we were deciding; count them.
  open_burned_ms_ = pending_burn_ms_;
  pending_burn_ms_ = 0.0;
  ++violations_;
  open_window_ = attributor_ ? attributor_(t_ms) : kNoWindow;
  if (sink_ != nullptr) {
    sink_->events().Record(Event(EventKind::kSloViolationOpen, t_ms)
                               .WithWindow(open_window_)
                               .WithReason(reason)
                               .WithA(observed)
                               .WithB(objective));
  }
}

void SloTracker::CloseViolation(double t_ms) {
  open_ = false;
  good_streak_ = 0;
  burned_ms_ += open_burned_ms_;
  if (sink_ != nullptr) {
    sink_->events().Record(Event(EventKind::kSloViolationClose, t_ms)
                               .WithWindow(open_window_)
                               .WithReason(open_reason_)
                               .WithA(open_burned_ms_));
  }
  open_burned_ms_ = 0.0;
}

}  // namespace cxl::telemetry
