// sieve-1500 and paper-loop: batch fixpoints on IndexedEngine.
//
// Untraced, both call IndexedEngine::run (and, for paper-loop, the dataflow
// Interpreter) unchanged. Traced, they run the engine again with its
// telemetry on, then drive the same seeded find→commit fixpoint over a
// gamma::Store through runtime::MatchPipeline from this file — the probe
// order of IndexedEngine, step for step — so each find and each commit can
// be timed on its own.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <numeric>
#include <optional>
#include <sstream>

#include "gammaflow/common/rng.hpp"
#include "gammaflow/dataflow/engine.hpp"
#include "gammaflow/expr/bytecode.hpp"
#include "gammaflow/frontend/compile.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/gamma/store.hpp"
#include "gammaflow/obs/telemetry.hpp"
#include "gammaflow/runtime/match_pipeline.hpp"
#include "gammaflow/translate/df_to_gamma.hpp"
#include "gammaflow/translate/equivalence.hpp"
#include "report.hpp"

namespace e2e {

using namespace gammaflow;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

template <typename Fn>
double time_s(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

struct LoopResult {
  gamma::Multiset final_multiset;
  std::uint64_t fires = 0;
  std::uint64_t finds = 0;
  std::uint64_t passes = 0;
  std::uint64_t dead_rows_max = 0;
};

/// IndexedEngine's schedule (shuffled passes over each stage, each reaction
/// fired while enabled, a pass without a fire proves the stage fixpoint)
/// with a span around every find and every commit. The same seed consumes
/// the Rng exactly as the engine does, so the run is step-identical.
LoopResult traced_fixpoint(const gamma::Program& program,
                           const gamma::Multiset& initial, std::uint64_t seed,
                           Tracer& tracer) {
  LoopResult out;
  Rng rng(seed);
  const expr::EvalMode mode = gamma::RunOptions{}.eval_mode();
  std::optional<gamma::Store> store;
  {
    const Tracer::Scope span(tracer, "gamma.store_build");
    store.emplace(initial);
  }
  for (const auto& stage : program.stages()) {
    std::vector<std::size_t> order(stage.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    bool progressed = true;
    while (progressed) {
      progressed = false;
      ++out.passes;
      std::shuffle(order.begin(), order.end(), rng);
      for (const std::size_t idx : order) {
        const gamma::Reaction& reaction = stage[idx];
        while (true) {
          std::optional<gamma::Match> match;
          {
            Tracer::Scope span(tracer, "runtime.find_hit");
            match = runtime::MatchPipeline::find(*store, reaction, &rng, mode);
            if (!match) span.rename("runtime.find_miss");
          }
          ++out.finds;
          if (!match) break;
          {
            const Tracer::Scope span(tracer, "gamma.commit");
            runtime::MatchPipeline::commit(*store, *match);
          }
          ++out.fires;
          progressed = true;
          out.dead_rows_max = std::max(out.dead_rows_max, store->dead_rows());
        }
      }
    }
  }
  const Tracer::Scope span(tracer, "gamma.snapshot");
  out.final_multiset = store->to_multiset();
  return out;
}

double counter(const MetricsSnapshot& m, const std::string& name) {
  const auto it = m.counters.find(name);
  return it == m.counters.end() ? 0.0 : static_cast<double>(it->second);
}

/// Engine-side counters of one telemetry-on IndexedEngine run.
struct EngineCounters {
  gamma::RunResult result;
  double wall_s = 0.0;
  double batch_lanes = 0.0;  // exact lane total (the histogram is bucketed)
};

EngineCounters run_with_telemetry(const gamma::Program& program,
                                  const gamma::Multiset& initial,
                                  gamma::RunOptions opts,
                                  obs::Telemetry& tel) {
  EngineCounters out;
  opts.telemetry = &tel;
  const std::uint64_t lanes0 = expr::batch_lanes();
  out.wall_s = time_s([&] {
    out.result = gamma::IndexedEngine().run(program, initial, opts);
  });
  out.batch_lanes = static_cast<double>(expr::batch_lanes() - lanes0);
  return out;
}

/// The per-layer figures the engine telemetry and the traced loop share on
/// both batch workloads.
void report_gamma_layers(Report& report, const Tracer& tracer,
                         std::uint32_t root, const LoopResult& loop,
                         const EngineCounters& eng, const obs::Telemetry& tel) {
  const MetricsSnapshot m = tel.metrics();
  const double fires = static_cast<double>(std::max<std::uint64_t>(
      eng.result.steps, 1));
  const double batch_evals = counter(m, "vm.batch_evals");
  report.set("gamma.passes", counter(m, "gamma.passes"));
  report.set("vm.batch_evals_per_fire", batch_evals / fires);
  report.set("vm.batch_width_mean",
             batch_evals > 0.0 ? eng.batch_lanes / batch_evals : 0.0);
  report.set("vm.instrs_per_fire", counter(m, "vm.instrs_executed") / fires);
  report.set("store.column_compactions",
             counter(m, "store.column_compactions"));
  const auto compile = m.histograms.find("expr.compile_ms");
  report.set("expr.compile_ms",
             compile == m.histograms.end() ? 0.0 : compile->second.sum);

  const auto totals = tracer.totals(root);
  const auto total_us = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_us;
  };
  const double loop_fires =
      static_cast<double>(std::max<std::uint64_t>(loop.fires, 1));
  const double hit = total_us("runtime.find_hit");
  const double miss = total_us("runtime.find_miss");
  report.set("runtime.find_hit_us", hit);
  report.set("runtime.find_miss_us", miss);
  report.set("runtime.finds", static_cast<double>(loop.finds));
  report.set("runtime.hit_ratio", static_cast<double>(loop.fires) /
                                      static_cast<double>(loop.finds));
  report.set("runtime.find_us_per_fire", (hit + miss) / loop_fires);
  report.set("gamma.commit_us", total_us("gamma.commit"));
  report.set("gamma.commit_us_per_fire", total_us("gamma.commit") / loop_fires);
  report.set("store.dead_rows_max", static_cast<double>(loop.dead_rows_max));
  report.set("dsl.parse_us", total_us("dsl.parse"));
  std::cerr << "e2ebench: traced fixpoint: " << loop.fires << " fires, "
            << loop.finds << " finds, " << loop.passes << " passes; find hit "
            << hit << " us, find miss " << miss << " us, commit "
            << total_us("gamma.commit") << " us\n";
}

/// The traced loop must agree with IndexedEngine::run on the final
/// multiset and the fire count.
void check_consistent(Report& report, const LoopResult& loop,
                      const gamma::RunResult& engine, const char* workload) {
  report.check(loop.final_multiset == engine.final_multiset &&
                   loop.fires == engine.steps,
               std::string(workload) +
                   ": traced find→commit loop diverged from "
                   "IndexedEngine::run (" +
                   std::to_string(loop.fires) + " vs " +
                   std::to_string(engine.steps) + " fires)");
}

std::vector<std::int64_t> plain_sieve(std::int64_t hi) {
  std::vector<bool> composite(static_cast<std::size_t>(hi + 1), false);
  std::vector<std::int64_t> primes;
  for (std::int64_t i = 2; i <= hi; ++i) {
    if (composite[static_cast<std::size_t>(i)]) continue;
    primes.push_back(i);
    for (std::int64_t j = i * i; j <= hi; j += i) {
      composite[static_cast<std::size_t>(j)] = true;
    }
  }
  return primes;
}

}  // namespace

/// One sieve-1500 instance: the range 2..hi (hi within 2 of 1500) in a
/// seeded order, and the engine seed. IndexedEngine's run time on one
/// instance depends on the order and the schedule (about 0.35-0.5 s
/// shuffled on 4 cores; ascending order is several times slower), so a run
/// times a series of instances. An instance is kept this short (2..2000
/// takes ~1.2 s) so that a run holds dozens of them: on a shared host the
/// machine slows for seconds at a time, and only short instances leave a
/// fast tail to report.
struct SieveInstance {
  std::int64_t hi = 0;
  std::string init_text;
  gamma::RunOptions opts;
  gamma::Multiset expected;
};

SieveInstance sieve_instance(std::uint64_t seed) {
  SieveInstance in;
  Rng rng(seed);
  in.hi = 1498 + static_cast<std::int64_t>(rng.bounded(5));
  std::vector<std::int64_t> values(static_cast<std::size_t>(in.hi - 1));
  std::iota(values.begin(), values.end(), std::int64_t{2});
  std::shuffle(values.begin(), values.end(), rng);
  for (const std::int64_t v : values) {
    in.init_text +=
        (in.init_text.empty() ? "[" : ", [") + std::to_string(v) + "]";
  }
  in.opts.seed = rng();
  for (const std::int64_t p : plain_sieve(in.hi)) {
    in.expected.add(gamma::Element{Value(p)});
  }
  return in;
}

void run_sieve(Ctx& ctx) {
  Rng instance_seeds(ctx.instance_seed());
  SieveInstance in = sieve_instance(instance_seeds());
  const std::string source = read_file("examples/programs/sieve.gamma");
  const auto check = [&](const gamma::RunResult& r) {
    ctx.report.check(
        r.outcome == Outcome::Completed && r.final_multiset == in.expected,
        "sieve-1500: final multiset is not the primes in 2.." +
            std::to_string(in.hi));
  };

  gamma::Program program;
  gamma::Multiset initial;
  SetupSamples setup;
  const auto set_up = [&] {
    program = gamma::dsl::parse_program(source);
    initial = gamma::dsl::parse_elements(in.init_text);
  };
  setup.take(set_up);

  const gamma::IndexedEngine engine;
  if (!ctx.trace) {
    std::vector<Timed> runs;
    while (true) {
      gamma::RunResult r;
      runs.push_back(
          timed([&] { r = engine.run(program, initial, in.opts); }));
      check(r);
      if (!ctx.time_left()) break;
      in = sieve_instance(instance_seeds());
      setup.take(set_up);
    }
    set_run_cpu_s(ctx.report, runs);
    setup.report(ctx.report);
    return;
  }

  gamma::RunResult reference;
  const double untraced_s =
      time_s([&] { reference = engine.run(program, initial, in.opts); });
  check(reference);
  obs::Telemetry tel;
  const EngineCounters eng = run_with_telemetry(program, initial, in.opts, tel);
  check(eng.result);
  ctx.report.set("trace.overhead_ratio", eng.wall_s / untraced_s);

  Tracer& tracer = ctx.tracer;
  const std::uint32_t root = tracer.begin("e2e.sieve_pass");
  {
    const Tracer::Scope span(tracer, "dsl.parse");
    program = gamma::dsl::parse_program(source);
    initial = gamma::dsl::parse_elements(in.init_text);
  }
  const LoopResult loop =
      traced_fixpoint(program, initial, in.opts.seed, tracer);
  tracer.end(root);
  check_consistent(ctx.report, loop, reference, "sieve-1500");
  check_attribution(tracer, root, ctx.report, "sieve-1500 traced pass");
  report_gamma_layers(ctx.report, tracer, root, loop, eng, tel);
}

/// One paper-loop instance: the Fig. 2 loop with z = 10000 and seeded y
/// and x0, and the engine seed. Like sieve-1500, a run times a series of
/// short instances (~0.35 s; z = 20000 takes ~1.4 s).
struct LoopInstance {
  std::string source;
  gamma::RunOptions opts;
  Value expected;
};

LoopInstance loop_instance(std::uint64_t seed) {
  constexpr std::int64_t kZ = 10000;
  LoopInstance in;
  Rng rng(seed);
  const std::int64_t y = 1 + static_cast<std::int64_t>(rng.bounded(9));
  const std::int64_t x0 = static_cast<std::int64_t>(rng.bounded(1000));
  in.opts.seed = rng();
  in.source = "int y = " + std::to_string(y) +
              ";\nint z = " + std::to_string(kZ) +
              ";\nint x = " + std::to_string(x0) +
              ";\nfor (i = z; i > 0; i--)\n  x = x + y;\noutput x;\n";
  in.expected = Value(x0 + kZ * y);
  return in;
}

void run_paper_loop(Ctx& ctx) {
  Rng instance_seeds(ctx.instance_seed());
  LoopInstance in = loop_instance(instance_seeds());

  dataflow::Graph graph;
  translate::GammaConversion conv;
  const auto set_up = [&] {
    graph = frontend::compile_source(in.source);
    conv = translate::dataflow_to_gamma(graph);
  };
  SetupSamples setup;
  setup.take(set_up);

  // x = x0 + z*y on the dataflow side and on the Gamma side.
  const auto check = [&](const dataflow::DfRunResult& df,
                         const gamma::RunResult& gm) {
    std::vector<Value> observed;
    for (const std::string& label : conv.output_labels.at("x")) {
      for (const auto& [tag, value] :
           translate::observed_elements(gm.final_multiset, label)) {
        observed.push_back(value);
      }
    }
    const bool ok = df.outcome == Outcome::Completed &&
                    gm.outcome == Outcome::Completed &&
                    df.output_values("x") == std::vector<Value>{in.expected} &&
                    observed == std::vector<Value>{in.expected};
    ctx.report.check(ok, "paper-loop: x != x0 + z*y = " +
                             in.expected.to_string() +
                             " on the dataflow or the Gamma side");
  };

  const dataflow::Interpreter interp;
  const gamma::IndexedEngine engine;
  if (!ctx.trace) {
    std::vector<Timed> runs;
    while (true) {
      runs.push_back(timed([&] {
        const dataflow::DfRunResult df = interp.run(graph);
        const gamma::RunResult gm =
            engine.run(conv.program, conv.initial, in.opts);
        check(df, gm);
      }));
      if (!ctx.time_left()) break;
      in = loop_instance(instance_seeds());
      setup.take(set_up);
    }
    set_run_cpu_s(ctx.report, runs);
    setup.report(ctx.report);
    return;
  }

  gamma::RunResult reference;
  const double untraced_s = time_s([&] {
    const dataflow::DfRunResult df = interp.run(graph);
    reference = engine.run(conv.program, conv.initial, in.opts);
    check(df, reference);
  });
  obs::Telemetry tel;
  EngineCounters eng;
  const double telemetry_s = time_s([&] {
    dataflow::DfRunOptions df_opts;
    df_opts.telemetry = &tel;
    const dataflow::DfRunResult df = interp.run(graph, df_opts);
    eng = run_with_telemetry(conv.program, conv.initial, in.opts, tel);
    check(df, eng.result);
  });
  ctx.report.set("trace.overhead_ratio", telemetry_s / untraced_s);

  Tracer& tracer = ctx.tracer;
  const std::uint32_t root = tracer.begin("e2e.paper_loop_pass");
  {
    const Tracer::Scope span(tracer, "frontend.compile");
    graph = frontend::compile_source(in.source);
  }
  {
    const Tracer::Scope span(tracer, "translate.alg1");
    conv = translate::dataflow_to_gamma(graph);
  }
  dataflow::DfRunResult df;
  {
    const Tracer::Scope span(tracer, "dataflow.run");
    df = interp.run(graph);
  }
  const LoopResult loop =
      traced_fixpoint(conv.program, conv.initial, in.opts.seed, tracer);
  tracer.end(root);
  gamma::RunResult looped;
  looped.final_multiset = loop.final_multiset;
  check(df, looped);
  check_consistent(ctx.report, loop, reference, "paper-loop");
  check_attribution(tracer, root, ctx.report, "paper-loop traced pass");
  report_gamma_layers(ctx.report, tracer, root, loop, eng, tel);

  const auto totals = tracer.totals(root);
  ctx.report.set("frontend.compile_us",
                 totals.at("frontend.compile").total_us);
  ctx.report.set("frontend.nodes", static_cast<double>(graph.node_count()));
  ctx.report.set("translate.alg1_us", totals.at("translate.alg1").total_us);
  ctx.report.set("translate.reactions",
                 static_cast<double>(conv.program.reaction_count()));
  ctx.report.set("dataflow.run_us", totals.at("dataflow.run").total_us);
  ctx.report.set("dataflow.firings", static_cast<double>(df.fires));
}

}  // namespace e2e
