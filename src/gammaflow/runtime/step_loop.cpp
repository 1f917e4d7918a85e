#include "gammaflow/runtime/step_loop.hpp"

#include <cmath>
#include <string_view>

#include "gammaflow/gamma/multiset.hpp"
#include "gammaflow/gamma/store.hpp"
#include "gammaflow/obs/run_recorder.hpp"
#include "gammaflow/obs/telemetry.hpp"
#include "gammaflow/runtime/match_pipeline.hpp"

namespace gammaflow::runtime {

bool admit_step(LimitPolicy policy, std::uint64_t fired, std::uint64_t budget,
                const char* engine, const char* knob) {
  if (fired < budget) return true;
  if (policy == LimitPolicy::Throw) {
    throw EngineError(std::string(engine) + " exceeded " + knob + "=" +
                      std::to_string(budget));
  }
  return false;
}

EngineTelemetry::EngineTelemetry(const RunOptions& options, const char* domain)
    : tel_(options.telemetry), domain_(domain), mode_(options.eval_mode()) {
  if (tel_ != nullptr) {
    batch_evals0_ = expr::batch_evals();
    batch_width0_ = expr::batch_width_counts();
    compactions0_ = gamma::column_compactions_total();
    probes0_ = probes_total();
    refuted_skips0_ = refuted_skips_total();
  }
}

obs::ThreadRecorder* EngineTelemetry::recorder(const std::string& name) const {
  return tel_ != nullptr ? &tel_->register_thread(name) : nullptr;
}

void EngineTelemetry::finish(Outcome outcome, MetricsSnapshot& out) const {
  if (tel_ == nullptr) return;
  auto& stats = tel_->stats();
  stats.count(std::string(domain_) + ".outcome." + to_string(outcome));
  // Dataflow nodes always fire through the walker: the mode describes
  // nothing there, so only the domains that match through it report it.
  if (std::string_view(domain_) != "df") {
    stats.count(std::string(domain_) + ".eval_mode." + expr::to_string(mode_));
  }
  stats.count("vm.batch_evals", expr::batch_evals() - batch_evals0_);
  // Replay the process-global width tally as per-run histogram deltas. The
  // global array buckets widths by bit_width — the same indexing the
  // Histogram uses — so 2^(b-1) is an exact representative for bucket b.
  const auto widths = expr::batch_width_counts();
  for (std::size_t b = 1; b < widths.size(); ++b) {
    const std::uint64_t delta = widths[b] - batch_width0_[b];
    if (delta != 0) {
      stats.hist("vm.batch_width")
          .observe_n(std::ldexp(1.0, static_cast<int>(b) - 1), delta);
    }
  }
  stats.count("store.column_compactions",
              gamma::column_compactions_total() - compactions0_);
  stats.count("gamma.probes", probes_total() - probes0_);
  stats.count("gamma.refuted_skips", refuted_skips_total() - refuted_skips0_);
  out = tel_->metrics();
}

std::map<std::string, std::int64_t> store_counts(const gamma::Multiset& ms) {
  std::map<std::string, std::int64_t> counts;
  for (const gamma::Element& e : ms) ++counts[e.to_string()];
  return counts;
}

void RunRecording::begin(const gamma::Multiset& initial) const {
  if (rec_ != nullptr) rec_->begin(engine_, kind_, store_counts(initial));
}

void RunRecording::round() const {
  if (rec_ != nullptr) rec_->round();
}

void RunRecording::round(const gamma::Multiset& store) const {
  if (rec_ != nullptr) rec_->round(store_counts(store));
}

void RunRecording::finish(Outcome outcome,
                          const gamma::Multiset& final_store) const {
  if (rec_ != nullptr) {
    rec_->finish(to_string(outcome), store_counts(final_store));
  }
}

}  // namespace gammaflow::runtime
