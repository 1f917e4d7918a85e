// Shared plumbing of the end-to-end benchmark: the metric tables (the names
// BENCHMARK.json lists), the per-run Report that collects values and
// correctness checks, the span Tracer the traced run records from the
// benchmark's own code, and small statistics helpers.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}
[[nodiscard]] inline double us_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// CPU time used so far by every thread of this process.
[[nodiscard]] inline double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One timed stretch of work: its wall time and the CPU time the process
/// spent in it.
struct Timed {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Wall and process CPU time of `fn()`.
template <typename Fn>
Timed timed(Fn&& fn) {
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  fn();
  Timed out;
  out.wall_s = seconds_since(t0);
  out.cpu_s = process_cpu_s() - cpu0;
  return out;
}

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed by an untraced run (`--trace 0`), on every workload.
extern const std::vector<MetricSpec> kEndToEnd;
/// Printed by a traced run (`--trace 1`), on every workload; a layer the
/// workload never reaches reports 0.
extern const std::vector<MetricSpec> kPerLayer;

/// `run_cpu_s` and `setup_s` report this quantile (the fastest tenth) of
/// the samples a run takes. On a shared host, stretches of several seconds
/// run up to 2.8x slower than the rest (another tenant on the same core),
/// and runs land in them at random; the fast tail of samples spread over a
/// whole run is what the program costs on this machine.
inline constexpr double kReportQuantile = 0.10;

/// Everything one run measured and checked.
class Report {
 public:
  /// Records a metric; `name` must be in kEndToEnd or kPerLayer.
  void set(const std::string& name, double value);
  [[nodiscard]] bool has(const std::string& name) const {
    return values_.count(name) != 0;
  }
  [[nodiscard]] double get(const std::string& name) const;
  /// Records `name` as kReportQuantile of `samples`, and keeps the samples
  /// so that run.py can pool them over the processes of one run.
  void set_quantile(const std::string& name, std::vector<double> samples);
  /// The samples behind each set_quantile metric.
  [[nodiscard]] const std::map<std::string, std::vector<double>>& samples()
      const noexcept {
    return samples_;
  }

  /// One checked operation: counted as attempted, and as failed unless
  /// `ok`. `what` names the failure on stderr.
  void check(bool ok, const std::string& what);
  /// Counts `n` operations attempted, `failed` of them failed.
  void add_ops(std::uint64_t n, std::uint64_t failed, const std::string& what);

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::vector<double>> samples_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Spans recorded around calls into the program's layers. Spans nest: a
/// span opened while another is open is its child, and a layer's self time
/// is its duration minus what its children cover.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::uint32_t parent;  // kNoParent for a root
    Clock::time_point start;
    Clock::time_point end;
  };
  static constexpr std::uint32_t kNoParent = UINT32_MAX;

  std::uint32_t begin(const char* name);
  /// Closes the innermost open span (which must be `id`), optionally
  /// renaming it — a find is a hit or a miss only once it returns.
  void end(std::uint32_t id, const char* rename = nullptr);

  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t), id_(t.begin(name)) {}
    ~Scope() { t_.end(id_, rename_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void rename(const char* name) noexcept { rename_ = name; }

   private:
    Tracer& t_;
    std::uint32_t id_;
    const char* rename_ = nullptr;
  };

  struct Totals {
    std::uint64_t count = 0;
    double total_us = 0.0;  // inclusive
    double self_us = 0.0;   // minus children
  };
  /// Per-name totals over the spans under root span `root` (inclusive).
  [[nodiscard]] std::map<std::string, Totals> totals(std::uint32_t root) const;
  [[nodiscard]] double duration_us(std::uint32_t id) const;
  /// Duration of span `id` minus what its direct children cover.
  [[nodiscard]] double self_us(std::uint32_t id) const;

  /// Chrome trace-event JSON of the first `cap` spans.
  void write_chrome(const std::string& path, std::size_t cap) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// Checks that the self times under a traced pass's root account for its
/// wall time: the root's own self time (work no layer span covers) must be
/// at most kMaxUnattributed of the pass. Records
/// `trace.unattributed_ratio` (the worst pass) and counts a failure
/// otherwise.
inline constexpr double kMaxUnattributed = 0.10;
void check_attribution(const Tracer& tracer, std::uint32_t root,
                       Report& report, const std::string& pass);

[[nodiscard]] double median(std::vector<double> xs);

/// Records kReportQuantile of the CPU times of `runs` as `run_cpu_s`, and
/// logs every sample with its wall time.
void set_run_cpu_s(Report& report, const std::vector<Timed>& runs);

/// CPU times of a workload's set-up, sampled in slices between the timed
/// instances so that they spread over the whole run.
class SetupSamples {
 public:
  /// CPU seconds one slice spends setting up (at least 3 times, at most
  /// 2000).
  static constexpr double kSliceS = 0.03;

  /// Runs `fn` for one slice, timing each call.
  template <typename Fn>
  void take(Fn&& fn) {
    double spent = 0.0;
    for (int i = 0; i < 2000 && (i < 3 || spent < kSliceS); ++i) {
      const double cpu0 = process_cpu_s();
      fn();
      samples_.push_back(process_cpu_s() - cpu0);
      spent += samples_.back();
    }
  }
  /// Records kReportQuantile of the samples as `setup_s`.
  void report(Report& report) const;

 private:
  std::vector<double> samples_;
};

/// Exact quantile (linear interpolation between closest ranks).
[[nodiscard]] double quantile(std::vector<double> xs, double q);
/// Peak resident set size of this process (VmHWM), in MB.
[[nodiscard]] double peak_rss_mb();

/// Everything a workload needs from the command line.
struct Ctx {
  std::uint64_t seed = 1;
  /// Which of the processes of one untraced run this is (run.py runs
  /// several and pools their samples); each draws its own instances.
  std::uint64_t part = 0;
  double seconds = 1.0;
  bool trace = false;
  std::string out_dir;  // run artifacts (WAL, socket, trace files)
  Report& report;
  Tracer& tracer;
  Clock::time_point start = Clock::now();

  /// First seed of this process's series of seeded instances.
  [[nodiscard]] std::uint64_t instance_seed() const {
    return seed ^ (part * 0x9e3779b97f4a7c15ULL);
  }

  /// True while the measuring budget (--seconds) is not used up.
  [[nodiscard]] bool time_left() const {
    return seconds_since(start) < seconds;
  }
};

void run_sieve(Ctx& ctx);
void run_paper_loop(Ctx& ctx);
void run_serve_join(Ctx& ctx);
void run_cluster_sum(Ctx& ctx);

}  // namespace e2e
