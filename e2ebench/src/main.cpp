// gf_e2e — gammaflow's end-to-end benchmark, one workload per process:
//
//   gf_e2e --workload <sieve-1500|paper-loop|serve-join|cluster-sum>
//          --seed <n> --seconds <s> --trace <0|1>
//          [--out-dir <dir>] [--commit <id>] [--part <k>]
//
// Prints a build stamp and every metric by name and unit as `#` lines, then,
// as the last line of stdout, one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1. Exits 0 when every checked output was
// right, 1 when one was not, 2 on a usage error or an unoptimised build.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "report.hpp"

namespace {

using namespace e2e;

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int usage(const std::string& why) {
  std::cerr << "gf_e2e: " << why
            << "\nusage: gf_e2e --workload <sieve-1500|paper-loop|serve-join|"
               "cluster-sum> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>] [--commit <id>] [--part <k>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::cerr << "gf_e2e: refusing to run: built without optimisation; build "
               "with -DCMAKE_BUILD_TYPE=RelWithDebInfo\n";
  return 2;
#endif
  std::map<std::string, std::string> args{{"--out-dir", ".bench_out"},
                                          {"--commit", "unknown"},
                                          {"--part", "0"}};
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 == 0) return usage("odd argument count");
  for (const char* key : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (args.count(key) == 0) return usage(std::string("missing ") + key);
  }
  const std::map<std::string, void (*)(Ctx&)> workloads{
      {"sieve-1500", run_sieve},
      {"paper-loop", run_paper_loop},
      {"serve-join", run_serve_join},
      {"cluster-sum", run_cluster_sum},
  };
  const std::string workload = args["--workload"];
  const auto fn = workloads.find(workload);
  if (fn == workloads.end()) return usage("unknown workload " + workload);

  Report report;
  Tracer tracer;
  Ctx ctx{.seed = std::strtoull(args["--seed"].c_str(), nullptr, 10),
          .part = std::strtoull(args["--part"].c_str(), nullptr, 10),
          .seconds = std::atof(args["--seconds"].c_str()),
          .trace = args["--trace"] == "1",
          .out_dir = args["--out-dir"],
          .report = report,
          .tracer = tracer};
  if (!(ctx.seconds > 0.0)) return usage("--seconds must be positive");
  std::filesystem::create_directories(ctx.out_dir);

  std::ostringstream stamp;
  stamp << "{\"workload\":" << quote(workload) << ",\"seed\":" << ctx.seed
        << ",\"part\":" << ctx.part
        << ",\"trace\":" << (ctx.trace ? 1 : 0)
        << ",\"compiler\":" << quote(GF_E2E_COMPILER)
        << ",\"build_type\":" << quote(GF_E2E_BUILD_TYPE)
        << ",\"flags\":" << quote(GF_E2E_FLAGS)
        << ",\"commit\":" << quote(args["--commit"])
        << ",\"nproc\":" << ::sysconf(_SC_NPROCESSORS_ONLN) << "}";
  std::cout << "# stamp " << stamp.str() << "\n" << std::flush;

  try {
    fn->second(ctx);
  } catch (const std::exception& e) {
    report.check(false, workload + ": " + e.what());
  }
  const double fail_ratio =
      report.attempted() == 0
          ? 1.0
          : static_cast<double>(report.failed()) /
                static_cast<double>(report.attempted());
  report.set("fail_ratio", fail_ratio);
  if (!ctx.trace) report.set("peak_rss_mb", peak_rss_mb());

  // Every metric this run measured, by name and unit.
  const auto& printed = ctx.trace ? kPerLayer : kEndToEnd;
  std::ostringstream metrics;
  bool complete = true;
  for (const MetricSpec& m : printed) {
    double v = 0.0;  // a layer this workload never reaches did no work
    if (report.has(m.name)) {
      v = report.get(m.name);
    } else if (!ctx.trace) {
      complete = false;
      std::cerr << "gf_e2e: " << workload << " did not measure " << m.name
                << "\n";
    }
    if (!std::isfinite(v)) {
      complete = false;
      v = 0.0;
    }
    std::cout << "# metric " << m.name << " " << number(v) << " " << m.unit
              << "\n";
    metrics << (metrics.tellp() == 0 ? "" : ",") << quote(m.name)
            << ":{\"value\":" << number(v) << ",\"unit\":" << quote(m.unit)
            << "}";
  }
  // The samples behind quantile metrics: `# samples <name> <quantile> <v>...`
  for (const auto& [name, xs] : report.samples()) {
    std::cout << "# samples " << name << " " << number(kReportQuantile);
    for (const double x : xs) std::cout << " " << number(x);
    std::cout << "\n";
  }
  const bool correct = complete && report.failed() == 0 &&
                       report.attempted() > 0;
  const std::string result =
      std::string("{\"correct\":") + (correct ? "true" : "false") +
      ",\"attempted\":" + std::to_string(report.attempted()) +
      ",\"failed\":" + std::to_string(report.failed()) + ",\"metrics\":{" +
      metrics.str() + "}}";

  const std::string stem = ctx.out_dir + "/" + workload + "-seed" +
                           std::to_string(ctx.seed) + "-trace" +
                           (ctx.trace ? "1" : "0") + "-part" +
                           std::to_string(ctx.part);
  std::ofstream(stem + ".json") << "{\"stamp\":" << stamp.str()
                                << ",\"result\":" << result << "}\n";
  if (ctx.trace) tracer.write_chrome(stem + ".trace.json", 200000);

  std::cout << result << "\n" << std::flush;
  return correct ? 0 : 1;
}
