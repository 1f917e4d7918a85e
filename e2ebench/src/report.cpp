#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <stdexcept>

namespace e2e {

const std::vector<MetricSpec> kEndToEnd = {
    {"run_cpu_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayer = {
    // serve-join's client-side figures (untraced socket phases of the
    // traced run).
    {"inject_p50_us", "us"},
    {"inject_p99_us", "us"},
    {"query_p50_us", "us"},
    {"query_p99_us", "us"},
    {"max_rate_rps", "req/s"},
    // cluster-sum's simulated-network figures.
    {"rounds", "count"},
    {"messages", "count"},
    {"fail_ratio", "ratio"},
    {"dsl.parse_us", "us"},
    {"expr.compile_ms", "ms"},
    {"frontend.compile_us", "us"},
    {"frontend.nodes", "count"},
    {"translate.alg1_us", "us"},
    {"translate.reactions", "count"},
    {"dataflow.run_us", "us"},
    {"dataflow.firings", "count"},
    {"analysis.wakeup_keys_us", "us"},
    {"runtime.find_hit_us", "us"},
    {"runtime.find_miss_us", "us"},
    {"runtime.finds", "count"},
    {"runtime.hit_ratio", "ratio"},
    {"runtime.find_us_per_fire", "us"},
    {"gamma.passes", "count"},
    {"vm.batch_evals_per_fire", "count"},
    {"vm.batch_width_mean", "count"},
    {"vm.instrs_per_fire", "count"},
    {"gamma.commit_us", "us"},
    {"gamma.commit_us_per_fire", "us"},
    {"store.column_compactions", "count"},
    {"store.dead_rows_max", "count"},
    {"worklist.quiesce_p50_us", "us"},
    {"worklist.quiesce_p99_us", "us"},
    {"worklist.wakeups_per_inject", "count"},
    {"worklist.rematches_per_inject", "count"},
    {"worklist.fires_per_inject", "count"},
    {"serve.parse_us", "us"},
    {"serve.handle_inject_us", "us"},
    {"serve.handle_query_us", "us"},
    {"serve.socket_us", "us"},
    {"obs.journal_bytes_per_inject", "bytes"},
    {"obs.record_overhead_us", "us"},
    {"distrib.round_us", "us"},
    {"distrib.fires_per_round", "count"},
    {"distrib.migrations", "count"},
    {"distrib.checkpoints", "count"},
    {"distrib.retransmissions", "count"},
    {"distrib.wal_us", "us"},
    {"distrib.wal_bytes", "bytes"},
    {"distrib.wal_compactions", "count"},
    {"distrib.token_laps", "count"},
    {"gen.lag_p99_us", "us"},
    {"gen.backlog_max", "count"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.unattributed_ratio", "ratio"},
};

namespace {

bool known_metric(const std::string& name) {
  const auto named = [&](const MetricSpec& m) { return name == m.name; };
  return std::any_of(kEndToEnd.begin(), kEndToEnd.end(), named) ||
         std::any_of(kPerLayer.begin(), kPerLayer.end(), named);
}

}  // namespace

void Report::set(const std::string& name, double value) {
  if (!known_metric(name)) throw std::logic_error("unknown metric " + name);
  values_[name] = value;
}

double Report::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) throw std::logic_error("metric not set: " + name);
  return it->second;
}

void Report::set_quantile(const std::string& name,
                          std::vector<double> samples) {
  set(name, quantile(samples, kReportQuantile));
  samples_[name] = std::move(samples);
}

void Report::check(bool ok, const std::string& what) {
  add_ops(1, ok ? 0 : 1, what);
}

void Report::add_ops(std::uint64_t n, std::uint64_t failed,
                     const std::string& what) {
  attempted_ += n;
  failed_ += failed;
  if (failed > 0) {
    std::cerr << "e2ebench: FAILED " << failed << "/" << n << ": " << what
              << "\n";
  }
}

std::uint32_t Tracer::begin(const char* name) {
  const auto id = static_cast<std::uint32_t>(spans_.size());
  const std::uint32_t parent = open_.empty() ? kNoParent : open_.back();
  spans_.push_back(Span{name, parent, Clock::now(), {}});
  open_.push_back(id);
  return id;
}

void Tracer::end(std::uint32_t id, const char* rename) {
  const Clock::time_point now = Clock::now();
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("tracer: spans closed out of order");
  }
  open_.pop_back();
  spans_[id].end = now;
  if (rename != nullptr) spans_[id].name = rename;
}

double Tracer::duration_us(std::uint32_t id) const {
  return us_between(spans_[id].start, spans_[id].end);
}

double Tracer::self_us(std::uint32_t id) const {
  double children = 0.0;
  for (std::size_t i = id + 1; i < spans_.size(); ++i) {
    if (spans_[i].parent == id) {
      children += duration_us(static_cast<std::uint32_t>(i));
    }
  }
  return duration_us(id) - children;
}

std::map<std::string, Tracer::Totals> Tracer::totals(
    std::uint32_t root) const {
  // Spans are appended in start order, so a descendant of `root` has a
  // larger id and its parent chain reaches `root`.
  std::vector<bool> inside(spans_.size(), false);
  std::vector<double> child_us(spans_.size(), 0.0);
  inside[root] = true;
  for (std::size_t i = root + 1; i < spans_.size(); ++i) {
    const std::uint32_t p = spans_[i].parent;
    if (p == kNoParent || !inside[p]) continue;
    inside[i] = true;
    child_us[p] += duration_us(static_cast<std::uint32_t>(i));
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = root; i < spans_.size(); ++i) {
    if (!inside[i]) continue;
    const double dur = duration_us(static_cast<std::uint32_t>(i));
    Totals& t = out[spans_[i].name];
    ++t.count;
    t.total_us += dur;
    t.self_us += dur - child_us[i];
  }
  return out;
}

void Tracer::write_chrome(const std::string& path, std::size_t cap) const {
  std::ofstream out(path);
  if (!out || spans_.empty()) return;
  const Clock::time_point epoch = spans_.front().start;
  out << "[";
  const std::size_t n = std::min(cap, spans_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << R"({"name":")" << s.name
        << R"(","ph":"X","pid":1,"tid":1,"ts":)"
        << us_between(epoch, s.start) << R"(,"dur":)"
        << us_between(s.start, s.end) << "}";
  }
  out << "]\n";
}

void check_attribution(const Tracer& tracer, std::uint32_t root,
                       Report& report, const std::string& pass) {
  const double wall = tracer.duration_us(root);
  const double unattributed = tracer.self_us(root);
  const double ratio = wall > 0.0 ? unattributed / wall : 1.0;
  std::cerr << "e2ebench: " << pass << ": traced wall " << wall
            << " us, unattributed " << unattributed << " us ("
            << ratio * 100.0 << "%)\n";
  const double prev = report.has("trace.unattributed_ratio")
                          ? report.get("trace.unattributed_ratio")
                          : 0.0;
  report.set("trace.unattributed_ratio", std::max(prev, ratio));
  report.check(ratio <= kMaxUnattributed,
               pass + ": layer self times leave " +
                   std::to_string(ratio * 100.0) +
                   "% of the traced wall time unattributed (limit " +
                   std::to_string(kMaxUnattributed * 100.0) + "%)");
}

void set_run_cpu_s(Report& report, const std::vector<Timed>& runs) {
  std::vector<double> wall;
  std::vector<double> cpu;
  std::cerr << "e2ebench: " << runs.size() << " timed instances (cpu s/wall s):";
  for (const Timed& r : runs) {
    std::cerr << " " << r.cpu_s << "/" << r.wall_s;
    wall.push_back(r.wall_s);
    cpu.push_back(r.cpu_s);
  }
  std::cerr << "\ne2ebench: cpu s p10 " << quantile(cpu, kReportQuantile)
            << " median " << median(cpu) << "; wall s median " << median(wall)
            << "\n";
  report.set_quantile("run_cpu_s", std::move(cpu));
}

void SetupSamples::report(Report& report) const {
  std::cerr << "e2ebench: " << samples_.size() << " set-ups, cpu s p10 "
            << quantile(samples_, kReportQuantile) << " median "
            << median(samples_) << "\n";
  report.set_quantile("setup_s", samples_);
}

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(status, rest);
  }
  return 0.0;
}

}  // namespace e2e
