#include "gammaflow/obs/report.hpp"

#include <iomanip>
#include <ostream>

namespace gammaflow::obs {

void write_report(std::ostream& os, const MetricsSnapshot& metrics) {
  if (!metrics.counters.empty()) {
    os << "counters:\n";
    for (const auto& [name, value] : metrics.counters) {
      os << "  " << std::left << std::setw(36) << name << std::right
         << std::setw(14) << value << '\n';
    }
  }
  if (!metrics.summaries.empty()) {
    os << "summaries:\n";
    for (const auto& [name, s] : metrics.summaries) {
      os << "  " << std::left << std::setw(36) << name << std::right
         << " n=" << s.count() << " mean=" << s.mean() << " min=" << s.min()
         << " max=" << s.max() << '\n';
    }
  }
  if (!metrics.histograms.empty()) {
    os << "histograms:\n";
    for (const auto& [name, h] : metrics.histograms) {
      os << "  " << std::left << std::setw(36) << name << std::right
         << " n=" << h.count << " mean=" << h.mean()
         << " p50=" << h.quantile(0.5) << " p90=" << h.quantile(0.9)
         << " p99=" << h.quantile(0.99) << " max=" << h.max << '\n';
    }
  }
  // Probe efficiency: candidates a match search examined per fire — the
  // number that exposes an O(n^2) search.
  const auto end = metrics.counters.end();
  const auto probes = metrics.counters.find("gamma.probes");
  auto fires = metrics.counters.find("gamma.fires");
  if (fires == end) fires = metrics.counters.find("distrib.fires");
  if (probes != end && fires != end && fires->second > 0) {
    os << "derived:\n  " << std::left << std::setw(36)
       << "gamma.probes_per_fire" << std::right << std::setw(14)
       << static_cast<double>(probes->second) /
              static_cast<double>(fires->second)
       << '\n';
  }
  if (metrics.empty()) os << "(no metrics recorded)\n";
}

void write_report(std::ostream& os, const Telemetry& telemetry) {
  write_report(os, telemetry.metrics());
  const auto threads = telemetry.threads();
  if (threads.empty()) return;
  os << "threads:\n";
  for (const auto& t : threads) {
    os << "  " << std::left << std::setw(36) << t.name << std::right
       << " events=" << t.recorder->recorded()
       << " dropped=" << t.recorder->dropped() << '\n';
  }
}

}  // namespace gammaflow::obs
