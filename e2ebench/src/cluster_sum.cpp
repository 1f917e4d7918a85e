// cluster-sum: distrib::run_distributed folding 5000 [i,'acc'] elements
// into their sum on 4 simulated nodes, with 5 % message loss and node 1
// crashed for 10 rounds. Checked against n(n-1)/2.
//
// The timed instances run without a WAL: with one, every round rewrites the
// WAL manifest through a temp file and a rename, so an instance waits
// 0.4-1.3 s on the disk, and on a shared disk that wait swings the run
// time by over 25 % from run to run. The traced run times one instance
// with per-node WALs in a directory this benchmark owns and reports the
// difference as `distrib.wal_us`.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <numeric>

#include "gammaflow/common/rng.hpp"
#include "gammaflow/distrib/cluster.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/obs/telemetry.hpp"
#include "report.hpp"

namespace e2e {

using namespace gammaflow;

namespace {

/// Short enough (~0.4 s an instance; 10000 takes ~1.8 s) that a run holds
/// dozens of instances and so a fast tail to report.
constexpr std::int64_t kElements = 5000;
const char* const kProgram =
    "Rsum = replace [a,'acc'], [b,'acc'] by [a + b, 'acc']";

/// One cluster-sum instance: the elements in a seeded order, the cluster
/// seed (stirring, which messages are lost) and the crash round. A run
/// times a series of instances.
struct ClusterInstance {
  std::string init_text;
  distrib::ClusterOptions opts;
};

ClusterInstance cluster_instance(std::uint64_t seed) {
  ClusterInstance in;
  Rng rng(seed);
  std::vector<std::int64_t> values(static_cast<std::size_t>(kElements));
  std::iota(values.begin(), values.end(), std::int64_t{0});
  std::shuffle(values.begin(), values.end(), rng);
  for (const std::int64_t v : values) {
    in.init_text += (in.init_text.empty() ? "[" : ", [") +
                    std::to_string(v) + ",'acc']";
  }
  in.opts.nodes = 4;
  in.opts.seed = rng();
  in.opts.faults.loss = 0.05;
  in.opts.faults.crashes.push_back(FaultPlan::Crash{
      .round = 36 + static_cast<std::size_t>(rng.bounded(9)),
      .node = 1,
      .downtime = 10});
  return in;
}

}  // namespace

void run_cluster_sum(Ctx& ctx) {
  Rng instance_seeds(ctx.instance_seed());
  ClusterInstance in = cluster_instance(instance_seeds());
  const gamma::Multiset expected{gamma::Element{
      Value(kElements * (kElements - 1) / 2), Value("acc")}};

  gamma::Program program;
  gamma::Multiset initial;
  SetupSamples setup;
  const auto set_up = [&] {
    program = gamma::dsl::parse_program(kProgram);
    initial = gamma::dsl::parse_elements(in.init_text);
    in.opts.validate();
  };
  setup.take(set_up);

  const auto run_once = [&](obs::Telemetry* tel, bool wal, Timed& t) {
    distrib::ClusterOptions o = in.opts;
    o.telemetry = tel;
    if (wal) {
      o.wal_dir = ctx.out_dir + "/cluster-wal-" + std::to_string(::getpid());
      std::filesystem::remove_all(o.wal_dir);
      std::filesystem::create_directories(o.wal_dir);
    }
    distrib::ClusterResult r;
    bool ok = false;
    t = timed([&] {
      r = distrib::run_distributed(program, initial, o);
      ok = r.outcome == Outcome::Completed && r.final_multiset == expected;
    });
    if (wal) std::filesystem::remove_all(o.wal_dir);
    ctx.report.check(ok, "cluster-sum: final multiset is not {[" +
                             std::to_string(kElements * (kElements - 1) / 2) +
                             ",'acc']}");
    return r;
  };

  if (!ctx.trace) {
    std::vector<Timed> runs;
    while (true) {
      Timed t;
      (void)run_once(nullptr, false, t);
      runs.push_back(t);
      if (!ctx.time_left()) break;
      in = cluster_instance(instance_seeds());
      setup.take(set_up);
    }
    set_run_cpu_s(ctx.report, runs);
    setup.report(ctx.report);
    return;
  }

  Timed untraced;
  const distrib::ClusterResult r = run_once(nullptr, false, untraced);
  Timed wal;
  const distrib::ClusterResult with_wal = run_once(nullptr, true, wal);
  const double untraced_s = untraced.wall_s;
  const double wal_s = wal.wall_s;
  obs::Telemetry tel;
  Tracer& tracer = ctx.tracer;
  const std::uint32_t root = tracer.begin("e2e.cluster_pass");
  {
    const Tracer::Scope span(tracer, "dsl.parse");
    program = gamma::dsl::parse_program(kProgram);
    initial = gamma::dsl::parse_elements(in.init_text);
  }
  Timed traced_t;
  distrib::ClusterResult traced;
  {
    const Tracer::Scope span(tracer, "distrib.run");
    traced = run_once(&tel, false, traced_t);
  }
  const double traced_s = traced_t.wall_s;
  tracer.end(root);
  ctx.report.check(traced.rounds == r.rounds && traced.fires == r.fires,
                   "cluster-sum: the telemetry-on run took a different "
                   "schedule than the untraced one");
  check_attribution(tracer, root, ctx.report, "cluster-sum traced pass");

  const MetricsSnapshot m = tel.metrics();
  const auto compile = m.histograms.find("expr.compile_ms");
  ctx.report.set("expr.compile_ms",
                 compile == m.histograms.end() ? 0.0 : compile->second.sum);
  const auto compactions = m.counters.find("store.column_compactions");
  ctx.report.set("store.column_compactions",
                 compactions == m.counters.end()
                     ? 0.0
                     : static_cast<double>(compactions->second));
  ctx.report.set("trace.overhead_ratio", traced_s / untraced_s);
  ctx.report.set("dsl.parse_us", tracer.totals(root).at("dsl.parse").total_us);

  const double rounds = static_cast<double>(std::max<std::size_t>(r.rounds, 1));
  ctx.report.set("rounds", static_cast<double>(r.rounds));
  ctx.report.set("messages", static_cast<double>(r.messages));
  ctx.report.set("distrib.round_us", untraced_s * 1e6 / rounds);
  ctx.report.set("distrib.fires_per_round",
                 static_cast<double>(r.fires) / rounds);
  ctx.report.set("distrib.migrations", static_cast<double>(r.migrations));
  ctx.report.set("distrib.checkpoints", static_cast<double>(r.checkpoints));
  ctx.report.set("distrib.retransmissions",
                 static_cast<double>(r.retransmissions));
  ctx.report.set("distrib.wal_us", (wal_s - untraced_s) * 1e6);
  ctx.report.set("distrib.wal_bytes", static_cast<double>(with_wal.wal_bytes));
  ctx.report.set("distrib.wal_compactions",
                 static_cast<double>(with_wal.wal_compactions));
  ctx.report.set("distrib.token_laps", static_cast<double>(r.token_laps));
  std::cerr << "e2ebench: cluster-sum: " << r.rounds << " rounds, "
            << r.messages << " messages, " << r.fires << " fires, "
            << r.crashes << " crashes, " << r.messages_lost
            << " messages lost\n";
}

}  // namespace e2e
