// Whole-pipeline property tests: random imperative programs through every
// stage — compile, optimize, both dataflow engines, Algorithm 1, all three
// Gamma engines, the distributed cluster — must agree on every observable.
// Plus journal-replay validation of engine runs.
#include <gtest/gtest.h>

#include "gammaflow/dataflow/engine.hpp"
#include "gammaflow/dataflow/optimize.hpp"
#include "gammaflow/distrib/cluster.hpp"
#include "gammaflow/frontend/compile.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/obs/run_recorder.hpp"
#include "gammaflow/paper/figures.hpp"
#include "gammaflow/runtime/step_loop.hpp"
#include "gammaflow/translate/df_to_gamma.hpp"
#include "gammaflow/translate/equivalence.hpp"

namespace gammaflow {
namespace {

class PipelineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineProperty, AllStagesAgreeOnObservables) {
  const std::uint64_t seed = GetParam();
  const std::string source = paper::random_source_program(seed);
  SCOPED_TRACE("source:\n" + source);

  const dataflow::Graph g = frontend::compile_source(source);
  const auto reference = dataflow::Interpreter().run(g);

  // Parallel dataflow engine.
  dataflow::DfRunOptions dopts;
  dopts.workers = 3;
  const auto par = dataflow::ParallelEngine().run(g, dopts);
  for (const auto& [name, tokens] : reference.outputs) {
    EXPECT_EQ(par.output_values(name), reference.output_values(name)) << name;
  }

  // Optimizer.
  const auto opt = dataflow::optimize(g);
  const auto opt_run = dataflow::Interpreter().run(opt.graph);
  for (const auto& [name, tokens] : reference.outputs) {
    EXPECT_EQ(opt_run.output_values(name), reference.output_values(name))
        << name;
  }

  // Memoized run.
  dataflow::DfRunOptions mopts;
  mopts.memoize = true;
  const auto memo = dataflow::Interpreter().run(g, mopts);
  for (const auto& [name, tokens] : reference.outputs) {
    EXPECT_EQ(memo.output_values(name), reference.output_values(name)) << name;
  }

  // Algorithm 1 + every Gamma engine.
  const auto rep = translate::check_equivalence_seeds(g, seed, 3);
  EXPECT_TRUE(rep.equivalent) << rep.detail;

  // Distributed cluster on the converted program.
  const auto conv = translate::dataflow_to_gamma(g);
  distrib::ClusterOptions copts;
  copts.nodes = 3;
  copts.seed = seed;
  const auto cluster =
      distrib::run_distributed(conv.program, conv.initial, copts);
  for (const auto& [output, labels] : conv.output_labels) {
    for (const std::string& label : labels) {
      EXPECT_EQ(translate::observed_elements(cluster.final_multiset, label),
                translate::observed_elements(rep.gamma_result.final_multiset,
                                             label))
          << output << '/' << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperty,
                         ::testing::Range(std::uint64_t{1}, std::uint64_t{25}));

TEST(PipelineProperty, LooplessProgramsSweep) {
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    const std::string source = paper::random_source_program(seed, false);
    const dataflow::Graph g = frontend::compile_source(source);
    const auto rep = translate::check_equivalence_seeds(g, seed, 2);
    EXPECT_TRUE(rep.equivalent) << source << "\n" << rep.detail;
  }
}

// ---- journal replay validation ----

struct Recorded {
  gamma::RunResult run;
  obs::Journal journal;
};

Recorded record(const gamma::Engine& engine, const gamma::Program& p,
                const gamma::Multiset& m, gamma::RunOptions opts = {}) {
  obs::RunRecorder rec;
  opts.record = &rec;
  Recorded out{engine.run(p, m, opts), {}};
  out.journal = rec.take();
  return out;
}

/// Every fire was kept, and replaying them from the initial store reaches
/// the run's own final multiset.
void expect_fires_replay(const Recorded& r) {
  ASSERT_EQ(r.journal.fires_dropped, 0u);
  EXPECT_EQ(obs::verify_journal(r.journal), "");
  EXPECT_EQ(obs::replay_fires(r.journal, r.journal.fires.size()),
            runtime::store_counts(r.run.final_multiset));
}

TEST(Replay, SequentialEngineTraceReplays) {
  const auto conv =
      translate::dataflow_to_gamma(paper::fig2_graph(5, 3, 10, true));
  expect_fires_replay(
      record(gamma::SequentialEngine(), conv.program, conv.initial));
}

TEST(Replay, IndexedEngineTraceReplays) {
  const auto p = gamma::dsl::parse_program(
      "R = replace x, y by [x - y], [y] where x > y");
  const gamma::Multiset m{gamma::Element{Value(12)}, gamma::Element{Value(18)},
                          gamma::Element{Value(30)}};
  expect_fires_replay(record(gamma::IndexedEngine(), p, m));
}

TEST(Replay, ParallelEngineTraceIsLinearizable) {
  // The journal's commit order must be a valid sequential schedule — the
  // linearizability witness for the optimistic engine.
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  gamma::Multiset m;
  for (std::int64_t i = 1; i <= 200; ++i) m.add(gamma::Element{Value(i)});
  gamma::RunOptions opts;
  opts.workers = 4;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    opts.seed = seed;
    expect_fires_replay(record(gamma::ParallelEngine(), p, m, opts));
  }
}

TEST(Replay, CorruptTraceIsRejected) {
  // Three summands: the second fire consumes the first one's product, so
  // swapping them, or naming an element that never existed, is an invalid
  // schedule whose replay misses the final store.
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  const gamma::Multiset m{gamma::Element{Value(1)}, gamma::Element{Value(2)},
                          gamma::Element{Value(3)}};
  const obs::Journal j = record(gamma::IndexedEngine(), p, m).journal;
  ASSERT_EQ(j.fires.size(), 2u);
  ASSERT_EQ(obs::verify_journal(j), "");

  obs::Journal swapped = j;
  std::swap(swapped.fires.front(), swapped.fires.back());
  EXPECT_NE(obs::verify_journal(swapped), "");

  obs::Journal corrupt = j;
  corrupt.fires[0].consumed[0] = gamma::Element{Value(99)}.to_string();
  EXPECT_NE(obs::verify_journal(corrupt), "");
}

TEST(Replay, EmptyTraceIsIdentity) {
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  const gamma::Multiset m{gamma::Element{Value(7)}};
  const Recorded r = record(gamma::IndexedEngine(), p, m);
  ASSERT_TRUE(r.journal.fires.empty());
  EXPECT_EQ(obs::replay_fires(r.journal, 0), runtime::store_counts(m));
  EXPECT_EQ(obs::verify_journal(r.journal), "");
}

}  // namespace
}  // namespace gammaflow
