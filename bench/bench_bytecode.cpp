// E18: batch lane code vs the AST walker. The same condition expressions
// are evaluated by the walker (expr::eval, one evaluation per candidate) and
// as 4096-lane column batches (compile_batch + BatchVm); every bitmap lane
// is asserted identical to the walker's verdict, then per-lane latency and
// an engine-level rungamma workload (batch on vs `--no-batch`) are
// compared. The headline number is the geometric-mean per-lane speedup,
// emitted as `bytecode.batch_geomean_speedup_milli` in the "# metrics"
// line.
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <sstream>

#include "bench_util.hpp"
#include "gammaflow/expr/bytecode.hpp"
#include "gammaflow/expr/env.hpp"
#include "gammaflow/expr/eval.hpp"
#include "gammaflow/expr/parser.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/obs/telemetry.hpp"

using namespace gammaflow;

namespace {

expr::ExprPtr parse_expr(const std::string& text) {
  expr::TokenStream ts(expr::tokenize(text));
  expr::ExprPtr e = expr::parse_expression(ts);
  if (!ts.done()) throw Error("trailing input in '" + text + "'");
  return e;
}

/// Condition-shaped workloads over slots {x, y, z} — the mix a reaction's
/// `where` clause sees: comparisons, mod-tests, short-circuit chains.
struct Workload {
  const char* name;
  const char* source;
};
constexpr Workload kWorkloads[] = {
    {"cmp", "x < y"},
    {"and_chain", "x < y and y < z and x + 1 < z"},
    {"mod_parity", "x % 2 == y % 2 or z % 3 == 0"},
    {"arith_cmp", "(x + y) * 2 - z > x * 3 or x == z"},
    {"poly_mod", "(x * x + y * y - z * z) % 7 == (x + y + z) % 5"},
};

void verify() {
  bench::header(
      "E18 — batch lane code vs the AST walker",
      "claim: conditions evaluated over whole candidate columns cost less "
      "per lane than one walker evaluation per candidate, with bitmaps "
      "identical to the walker's verdicts");

  static const std::vector<std::string> kSlots = {"x", "y", "z"};
  MetricsSnapshot metrics;

  // Each condition over a 4096-lane column — slot x varies per lane, y/z
  // broadcast, exactly the shape the match pipeline feeds it (innermost
  // binder = column, outer binders = scalars). The bitmap must agree with
  // the walker on every lane; the timed loops then compare amortized
  // per-lane latency against one walker evaluation per lane.
  bench::Table table(
      {"workload", "ast_ns", "batch_ns_lane", "speedup", "fused", "agree"});
  constexpr std::size_t kLanes = 4096;
  constexpr std::array<std::uint8_t, 3> kVec = {1, 0, 0};
  std::vector<std::int64_t> col(kLanes);
  for (std::size_t i = 0; i < kLanes; ++i) {
    col[i] = static_cast<std::int64_t>(i % 97) - 11;
  }
  const std::int64_t yv = 8, zv = 12;
  double log_sum = 0.0;
  std::size_t measured = 0;
  for (const Workload& w : kWorkloads) {
    const expr::ExprPtr e = parse_expr(w.source);
    const auto bchunk = expr::compile_batch(e, kSlots, kVec);
    if (!bchunk) {
      std::cerr << "FATAL: int-only workload " << w.name
                << " refused by compile_batch\n";
      std::exit(1);
    }
    std::array<expr::BatchVm::SlotInput, 3> slots{};
    slots[0].column = col.data();
    slots[1].scalar = yv;
    slots[2].scalar = zv;
    expr::BatchVm bvm;
    std::vector<std::uint8_t> bits;
    if (!bvm.run(*bchunk, slots, kLanes, bits)) {
      std::cerr << "FATAL: batch run aborted on " << w.name << '\n';
      std::exit(1);
    }
    expr::Env env;
    env.bind("x", Value(std::int64_t{0}));
    env.bind("y", Value(yv));
    env.bind("z", Value(zv));
    bool agree = true;
    for (std::size_t i = 0; i < kLanes; ++i) {
      env.bind("x", Value(col[i]));
      if (expr::eval(e, env).truthy() != (bits[i] != 0)) agree = false;
    }

    const double ast_ns = [&] {
      const auto t0 = std::chrono::steady_clock::now();
      constexpr int kReps = 16;
      for (int rep = 0; rep < kReps; ++rep) {
        for (std::size_t i = 0; i < kLanes; ++i) {
          env.bind("x", Value(col[i]));
          benchmark::DoNotOptimize(expr::eval(e, env));
        }
      }
      const auto dt = std::chrono::steady_clock::now() - t0;
      return std::chrono::duration<double, std::nano>(dt).count() / kReps /
             static_cast<double>(kLanes);
    }();
    const double batch_ns = [&] {
      const auto t0 = std::chrono::steady_clock::now();
      constexpr int kReps = 64;
      for (int rep = 0; rep < kReps; ++rep) {
        benchmark::DoNotOptimize(bvm.run(*bchunk, slots, kLanes, bits));
      }
      const auto dt = std::chrono::steady_clock::now() - t0;
      return std::chrono::duration<double, std::nano>(dt).count() / kReps /
             static_cast<double>(kLanes);
    }();
    const double speedup = ast_ns / batch_ns;
    log_sum += std::log(speedup);
    ++measured;

    std::ostringstream sp, bn;
    sp.precision(3);
    sp << speedup << 'x';
    bn.precision(3);
    bn << batch_ns;
    table.row(w.name, static_cast<std::int64_t>(ast_ns), bn.str(), sp.str(),
              bchunk->fused_loads, agree ? "yes" : "NO");
    metrics.counters["bytecode.ast_ns." + std::string(w.name)] =
        static_cast<std::uint64_t>(ast_ns);
    metrics.counters["bytecode.batch_lane_ps." + std::string(w.name)] =
        static_cast<std::uint64_t>(batch_ns * 1000.0);
    metrics.counters["bytecode.batch_speedup_milli." + std::string(w.name)] =
        static_cast<std::uint64_t>(speedup * 1000.0);
    if (!agree) {
      std::cerr << "FATAL: batch bitmap disagrees with the walker on "
                << w.name << '\n';
      std::exit(1);
    }
  }
  const double geomean = std::exp(log_sum / static_cast<double>(measured));
  std::ostringstream gm;
  gm.precision(3);
  gm << geomean << 'x';
  table.row("geomean", "", "", gm.str(), "", "");
  metrics.counters["bytecode.batch_geomean_speedup_milli"] =
      static_cast<std::uint64_t>(geomean * 1000.0);

  // Engine-level: a condition-heavy single-reaction program (minimum by
  // pairwise elimination — every candidate pair evaluates the condition)
  // under the indexed engine, batch on vs off, same seed.
  const gamma::Program program =
      gamma::dsl::parse_program("Rmin = replace x, y by x where x < y");
  gamma::Multiset initial;
  for (std::int64_t i = 0; i < 200; ++i) {
    initial.add(gamma::Element{Value((i * 2654435761) % 10'000)});
  }
  const auto timed_run = [&](bool batch, obs::Telemetry* tel) {
    gamma::RunOptions ropts;
    ropts.seed = 42;
    ropts.batch = batch;
    ropts.telemetry = tel;
    const auto t0 = std::chrono::steady_clock::now();
    auto result = gamma::IndexedEngine().run(program, initial, ropts);
    const auto dt = std::chrono::steady_clock::now() - t0;
    return std::pair{std::move(result),
                     std::chrono::duration<double, std::milli>(dt).count()};
  };
  (void)timed_run(true, nullptr);  // warm-up (allocators, caches)
  const auto [batch_result, batch_ms] = timed_run(true, nullptr);
  const auto [ast_result, ast_ms] = timed_run(false, nullptr);
  obs::Telemetry tel;  // separate instrumented run feeds the metrics line
  (void)timed_run(true, &tel);
  if (!(batch_result.final_multiset == ast_result.final_multiset) ||
      batch_result.steps != ast_result.steps) {
    std::cerr << "FATAL: engine runs diverge between batch on/off\n";
    std::exit(1);
  }
  std::cout << "\nrungamma min(200), indexed engine: ast " << ast_ms
            << " ms, batch " << batch_ms << " ms, runs identical\n";
  metrics.counters["bytecode.rungamma_ast_us"] =
      static_cast<std::uint64_t>(ast_ms * 1000.0);
  metrics.counters["bytecode.rungamma_batch_us"] =
      static_cast<std::uint64_t>(batch_ms * 1000.0);
  metrics.merge(tel.metrics());
  bench::metrics_json(std::cout, "bytecode", metrics);
}

void BM_Cond_Ast(benchmark::State& state) {
  const expr::ExprPtr e = parse_expr(kWorkloads[1].source);
  expr::Env env;
  env.bind("x", Value(std::int64_t{3}));
  env.bind("y", Value(std::int64_t{8}));
  env.bind("z", Value(std::int64_t{12}));
  for (auto _ : state) benchmark::DoNotOptimize(expr::eval(e, env));
}
BENCHMARK(BM_Cond_Ast)->Unit(benchmark::kNanosecond);

/// Whole-batch bitmap evaluation: items/s counts LANES, so this is directly
/// comparable with BM_Cond_Ast's per-eval rate.
void BM_Cond_Batch(benchmark::State& state) {
  static const std::vector<std::string> kSlots = {"x", "y", "z"};
  constexpr std::array<std::uint8_t, 3> kVec = {1, 0, 0};
  const auto bchunk = expr::compile_batch(parse_expr(kWorkloads[1].source),
                                          kSlots, kVec);
  std::vector<std::int64_t> col(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < col.size(); ++i) {
    col[i] = static_cast<std::int64_t>(i % 97) - 11;
  }
  std::array<expr::BatchVm::SlotInput, 3> slots{};
  slots[0].column = col.data();
  slots[1].scalar = 8;
  slots[2].scalar = 12;
  expr::BatchVm vm;
  std::vector<std::uint8_t> bits;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vm.run(*bchunk, slots, col.size(), bits));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Cond_Batch)
    ->RangeMultiplier(8)
    ->Range(8, 4096)
    ->Unit(benchmark::kNanosecond);

void BM_Rungamma_Min(benchmark::State& state) {
  const gamma::Program program =
      gamma::dsl::parse_program("Rmin = replace x, y by x where x < y");
  gamma::Multiset initial;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    initial.add(gamma::Element{Value((i * 2654435761) % 10'000)});
  }
  gamma::RunOptions ropts;
  ropts.seed = 42;
  ropts.batch = state.range(1) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gamma::IndexedEngine().run(program, initial, ropts));
  }
}
BENCHMARK(BM_Rungamma_Min)
    ->ArgsProduct({{64, 256}, {0, 1}})
    ->ArgNames({"n", "batch"})
    ->Unit(benchmark::kMillisecond);

}  // namespace

GF_BENCH_MAIN(verify)
