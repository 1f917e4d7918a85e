#include "gammaflow/serve/session.hpp"

#include <chrono>
#include <utility>

#include "gammaflow/analysis/interference.hpp"
#include "gammaflow/runtime/step_loop.hpp"

namespace gammaflow::serve {

Session::Session(std::string id, gamma::Program program,
                 const SessionOptions& options)
    : id_(std::move(id)) {
  runtime::WorklistOptions wopts = options.worklist;
  // Serve sessions never throw on budget exhaustion — the client gets an
  // error reply with a valid partial store instead of a dead daemon.
  wopts.limit_policy = LimitPolicy::Partial;
  if (options.record) {
    recorder_ = std::make_unique<obs::RunRecorder>();
    wopts.record = recorder_.get();
  }
  std::vector<runtime::WakeKeys> keys = analysis::wakeup_keys(program);
  fix_ = std::make_unique<runtime::IncrementalFixpoint>(
      std::move(program), std::move(keys), wopts);
  // After construction: IncrementalFixpoint's begin() reset the journal,
  // so the tag survives until close().
  if (recorder_) recorder_->set_session(id_);
}

Session::InjectResult Session::inject(const gamma::Multiset& elements) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto t0 = std::chrono::steady_clock::now();
  InjectResult r;
  r.outcome = fix_->inject(elements);
  r.fires = fix_->last_fires();
  r.fires_total = fix_->stats().fires;
  r.store_size = fix_->store().size();
  r.quiesce_us = std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  quiesce_us_.observe(r.quiesce_us);
  return r;
}

std::int64_t Session::count_label(const std::string& label) const {
  const std::lock_guard<std::mutex> lock(mu_);
  // Field 1 is the label slot; only arity >= 2 elements have one.
  return static_cast<std::int64_t>(fix_->store().count_field(1, Value(label)));
}

std::int64_t Session::count_element(const gamma::Element& element) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::int64_t>(fix_->store().count(element));
}

std::size_t Session::store_size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return fix_->store().size();
}

obs::StoreCounts Session::snapshot_counts() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return runtime::store_counts(fix_->snapshot());
}

gamma::Multiset Session::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return fix_->snapshot();
}

runtime::WorklistStats Session::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return fix_->stats();
}

HistogramSnapshot Session::quiesce_histogram() const {
  return quiesce_us_.snapshot();
}

obs::Journal Session::close() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (!recorder_) return obs::Journal{};
  fix_->finish_recording();
  return recorder_->take();
}

}  // namespace gammaflow::serve
