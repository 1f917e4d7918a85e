// Tagged-token execution: firing rule, steer routing, inctag isolation,
// loops, leftovers, limits — parameterized over Interpreter and the
// parallel PE engine.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <numeric>
#include <thread>

#include "gammaflow/common/strings.hpp"
#include "gammaflow/dataflow/engine.hpp"
#include "gammaflow/obs/run_recorder.hpp"
#include "gammaflow/paper/figures.hpp"

namespace gammaflow::dataflow {
namespace {

using expr::BinOp;

enum class Kind { Interp, Parallel };

std::unique_ptr<DfEngine> make_engine(Kind k) {
  if (k == Kind::Interp) return std::make_unique<Interpreter>();
  return std::make_unique<ParallelEngine>();
}

class DfEngineSuite : public ::testing::TestWithParam<Kind> {
 protected:
  DfRunResult run(const Graph& g) {
    DfRunOptions opts;
    opts.workers = 3;
    return make_engine(GetParam())->run(g, opts);
  }
};

TEST_P(DfEngineSuite, Fig1ComputesZero) {
  const auto r = run(paper::fig1_graph());
  EXPECT_EQ(r.single_output("m"), Value(0));
  EXPECT_EQ(r.fires, 8u);  // 4 const + 3 arith + 1 output
  EXPECT_TRUE(r.leftovers.empty());
}

TEST_P(DfEngineSuite, Fig1ParameterSweep) {
  for (std::int64_t x : {0, 1, -5, 100}) {
    for (std::int64_t j : {0, 2, 7}) {
      const auto r = run(paper::fig1_graph(x, 5, 3, j));
      EXPECT_EQ(r.single_output("m"), Value((x + 5) - 3 * j));
    }
  }
}

TEST_P(DfEngineSuite, Fig2LoopAccumulates) {
  // for(i=z; i>0; i--) x += y  =>  x + z*y
  const auto r = run(paper::fig2_graph(4, 5, 100, true));
  EXPECT_EQ(r.single_output("x_final"), Value(120));
}

TEST_P(DfEngineSuite, Fig2ZeroIterations) {
  const auto r = run(paper::fig2_graph(0, 5, 100, true));
  EXPECT_EQ(r.single_output("x_final"), Value(100));
}

TEST_P(DfEngineSuite, Fig2WithoutObserverDiscardsEverything) {
  // The paper's literal Fig. 2: all steer FALSE ports dangle; the machine
  // quiesces with no outputs and no parked operands.
  const auto r = run(paper::fig2_graph(3, 5, 100, false));
  EXPECT_TRUE(r.outputs.empty());
  EXPECT_TRUE(r.leftovers.empty());
}

TEST_P(DfEngineSuite, SteerRoutesByControl) {
  for (const bool flag : {true, false}) {
    GraphBuilder b;
    auto data = b.constant(Value(std::int64_t{42}), "d");
    auto ctrl = b.constant(Value(std::int64_t{flag ? 1 : 0}), "c");
    const NodeId st = b.steer(data, ctrl);
    const NodeId t = b.output("true_out");
    const NodeId f = b.output("false_out");
    b.connect(GraphBuilder::true_out(st), t, 0);
    b.connect(GraphBuilder::false_out(st), f, 0);
    const auto r = run(std::move(b).build());
    if (flag) {
      EXPECT_EQ(r.single_output("true_out"), Value(42));
      EXPECT_EQ(r.outputs.count("false_out"), 0u);
    } else {
      EXPECT_EQ(r.single_output("false_out"), Value(42));
      EXPECT_EQ(r.outputs.count("true_out"), 0u);
    }
  }
}

TEST_P(DfEngineSuite, CmpEmitsIntNotBool) {
  GraphBuilder b;
  auto a = b.constant(Value(3), "a");
  auto c = b.constant(Value(7), "c");
  b.output(b.cmp(BinOp::Lt, a, c), "lt");
  const auto r = run(std::move(b).build());
  EXPECT_EQ(r.single_output("lt"), Value(1));  // Int 1, not Bool true
}

TEST_P(DfEngineSuite, ImmediateArithmetic) {
  GraphBuilder b;
  auto c = b.constant(Value(10), "c");
  b.output(b.arith_imm(BinOp::Sub, c, Value(std::int64_t{1})), "dec");
  b.output(b.cmp_imm(BinOp::Gt, c, Value(std::int64_t{0})), "pos");
  const auto r = run(std::move(b).build());
  EXPECT_EQ(r.single_output("dec"), Value(9));
  EXPECT_EQ(r.single_output("pos"), Value(1));
}

TEST_P(DfEngineSuite, FanOutReplicatesTokens) {
  GraphBuilder b;
  auto c = b.constant(Value(5), "c");
  const NodeId o1 = b.output("o1");
  const NodeId o2 = b.output("o2");
  const NodeId o3 = b.output("o3");
  b.connect(c, o1, 0);
  b.connect(c, o2, 0);
  b.connect(c, o3, 0);
  const auto r = run(std::move(b).build());
  EXPECT_EQ(r.single_output("o1"), Value(5));
  EXPECT_EQ(r.single_output("o2"), Value(5));
  EXPECT_EQ(r.single_output("o3"), Value(5));
}

TEST_P(DfEngineSuite, UnmatchedOperandReportedAsLeftover) {
  // Add's second input never receives a token with the same tag: port 1 is
  // fed only via an inctag (tag 1) while port 0 keeps tag 0.
  GraphBuilder b;
  auto a = b.constant(Value(1), "a");
  auto c = b.constant(Value(2), "c");
  const NodeId add = b.arith(BinOp::Add);
  b.connect(a, add, 0);
  b.connect(b.inctag(c), add, 1);  // arrives with tag 1
  const NodeId out = b.output("never");
  b.connect(GraphBuilder::out(add), out, 0);
  const auto r = run(std::move(b).build());
  EXPECT_EQ(r.outputs.count("never"), 0u);
  EXPECT_EQ(r.leftovers.size(), 2u);  // both operands parked under ≠ tags
}

TEST_P(DfEngineSuite, MultiLoopGraphsRunIndependently) {
  const auto r = run(paper::multi_loop_graph(4, 5, true));
  for (std::size_t l = 0; l < 4; ++l) {
    // Loop l accumulates y=l+1 five times from x=0.
    EXPECT_EQ(r.single_output(str_cat("L", l, ".x_final")),
              Value(static_cast<std::int64_t>(5 * (l + 1))));
  }
}

TEST_P(DfEngineSuite, MaxFiresGuardThrows) {
  // Infinite loop: steer always true.
  GraphBuilder b;
  auto start = b.constant(Value(1), "s");
  const NodeId inc = b.inctag();
  b.connect(start, inc, 0, "seed");
  auto always = b.cmp_imm(BinOp::Ge, GraphBuilder::out(inc),
                          Value(std::int64_t{0}));
  const NodeId st = b.steer(GraphBuilder::out(inc), always);
  b.connect(GraphBuilder::true_out(st), inc, 0, "back");
  const Graph g = std::move(b).build();
  DfRunOptions opts;
  opts.max_fires = 1000;
  opts.workers = 3;
  EXPECT_THROW((void)make_engine(GetParam())->run(g, opts), EngineError);
}

TEST_P(DfEngineSuite, ExtraTokenInjection) {
  // A lone arith node fed by injection on both edges.
  GraphBuilder b;
  auto c1 = b.constant(Value(1), "c1");
  auto c2 = b.constant(Value(2), "c2");
  const NodeId add = b.arith(BinOp::Add);
  b.connect(c1, add, 0, "ea");
  b.connect(c2, add, 1, "eb");
  const NodeId out = b.output("sum");
  b.connect(GraphBuilder::out(add), out, 0);
  const Graph g = std::move(b).build();

  // Inject an extra pair with tag 7: two results arrive.
  std::vector<std::pair<Label, Token>> extra;
  extra.emplace_back(Label("ea"), Token{Value(10), 7});
  extra.emplace_back(Label("eb"), Token{Value(20), 7});
  const auto r = make_engine(GetParam())->run(g, DfRunOptions{}, extra);
  const auto values = r.output_values("sum");
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0], Value(3));   // tag 0
  EXPECT_EQ(values[1], Value(30));  // tag 7
}

TEST_P(DfEngineSuite, InjectionOnUnknownEdgeThrows) {
  const Graph g = paper::fig1_graph();
  std::vector<std::pair<Label, Token>> extra;
  extra.emplace_back(Label("no_such_edge"), Token{Value(1), 0});
  EXPECT_THROW((void)make_engine(GetParam())->run(g, DfRunOptions{}, extra),
               EngineError);
}

TEST_P(DfEngineSuite, FiresByNodeAccounting) {
  const Graph g = paper::fig2_graph(3, 5, 0, true);
  const auto r = run(g);
  std::uint64_t total = std::accumulate(r.fires_by_node.begin(),
                                        r.fires_by_node.end(), std::uint64_t{0});
  EXPECT_EQ(total, r.fires);
  // Every loop node fires z+1 = 4 times (3 iterations + exit round).
  EXPECT_EQ(r.fires_by_node[*g.find("R14")], 4u);
  EXPECT_EQ(r.fires_by_node[*g.find("R18")], 3u);  // only on taken branches
}

// ---------------------------------------------------------------------------
// Cooperative stopping: deadline, cancellation, and budget with
// LimitPolicy::Partial return a valid partial machine state (outputs so
// far, unfired operands as leftovers) with DfRunResult::outcome set.
// ---------------------------------------------------------------------------

namespace {
/// The MaxFiresGuardThrows loop: steer always true, never drains.
Graph infinite_loop_graph() {
  GraphBuilder b;
  auto start = b.constant(Value(1), "s");
  const NodeId inc = b.inctag();
  b.connect(start, inc, 0, "seed");
  auto always = b.cmp_imm(BinOp::Ge, GraphBuilder::out(inc),
                          Value(std::int64_t{0}));
  const NodeId st = b.steer(GraphBuilder::out(inc), always);
  b.connect(GraphBuilder::true_out(st), inc, 0, "back");
  return std::move(b).build();
}
}  // namespace

TEST_P(DfEngineSuite, DeadlineExceededReturnsPartialState) {
  DfRunOptions opts;
  opts.workers = 3;
  opts.max_fires = ~std::uint64_t{0};
  opts.deadline = 0.02;
  const auto r = make_engine(GetParam())->run(infinite_loop_graph(), opts);
  EXPECT_EQ(r.outcome, Outcome::DeadlineExceeded);
  EXPECT_GT(r.fires, 0u);  // it really ran until the clock said stop
}

TEST_P(DfEngineSuite, PreCancelledTokenStopsBeforeFiring) {
  CancelToken token;
  token.cancel();
  DfRunOptions opts;
  opts.workers = 3;
  opts.cancel = &token;
  const auto r = make_engine(GetParam())->run(paper::fig1_graph(), opts);
  EXPECT_EQ(r.outcome, Outcome::Cancelled);
  EXPECT_TRUE(r.outputs.empty());
}

TEST_P(DfEngineSuite, CancelFromAnotherThreadStopsTheRun) {
  CancelToken token;
  DfRunOptions opts;
  opts.workers = 3;
  opts.max_fires = ~std::uint64_t{0};
  opts.cancel = &token;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    token.cancel();
  });
  const auto r = make_engine(GetParam())->run(infinite_loop_graph(), opts);
  canceller.join();
  EXPECT_EQ(r.outcome, Outcome::Cancelled);
}

TEST_P(DfEngineSuite, BudgetWithPartialPolicyReturnsInsteadOfThrowing) {
  DfRunOptions opts;
  opts.workers = 3;
  opts.max_fires = 500;
  opts.limit_policy = LimitPolicy::Partial;
  const auto r = make_engine(GetParam())->run(infinite_loop_graph(), opts);
  EXPECT_EQ(r.outcome, Outcome::BudgetExhausted);
  EXPECT_GT(r.fires, 0u);
  // The looping token is still in the machine, surfaced as a leftover, not
  // silently dropped.
  EXPECT_FALSE(r.leftovers.empty());
}

TEST_P(DfEngineSuite, CompletedRunsReportCompletedOutcome) {
  const auto r = run(paper::fig1_graph());
  EXPECT_EQ(r.outcome, Outcome::Completed);
}

INSTANTIATE_TEST_SUITE_P(Engines, DfEngineSuite,
                         ::testing::Values(Kind::Interp, Kind::Parallel),
                         [](const auto& param_info) {
                           return param_info.param == Kind::Interp ? "Interpreter"
                                                             : "Parallel";
                         });

// ---- interpreter-specific ----

TEST(Interpreter, WavefrontsExposeParallelism) {
  const auto r = Interpreter().run(paper::fig1_graph());
  // Wave 1: R1 and R2 fire together; wave 2: R3; wave 3: output.
  ASSERT_EQ(r.wavefronts.size(), 3u);
  EXPECT_EQ(r.wavefronts[0], 2u);
  EXPECT_EQ(r.wavefronts[1], 1u);
  EXPECT_EQ(r.wavefronts[2], 1u);
}

TEST(Interpreter, TraceIsTopologicallyConsistent) {
  obs::RunRecorder rec;
  DfRunOptions opts;
  opts.record = &rec;
  const auto r = Interpreter().run(paper::fig1_graph(), opts);
  const obs::Journal j = rec.take();
  ASSERT_EQ(j.fires_dropped, 0u);
  ASSERT_EQ(j.fires.size(), r.fires);
  // R3 must fire after both R1 and R2.
  auto pos = [&](const char* label) {
    const auto it = std::find_if(
        j.fires.begin(), j.fires.end(),
        [&](const obs::FireRecord& f) { return f.reaction == label; });
    EXPECT_NE(it, j.fires.end()) << label;
    return it - j.fires.begin();
  };
  EXPECT_GT(pos("R3"), pos("R1"));
  EXPECT_GT(pos("R3"), pos("R2"));
}

TEST(Interpreter, TraceLimitCapsRecording) {
  obs::RecorderLimits limits;
  limits.max_fires = 3;
  obs::RunRecorder rec(limits);
  DfRunOptions opts;
  opts.record = &rec;
  const auto r = Interpreter().run(paper::fig1_graph(), opts);
  const obs::Journal j = rec.take();
  EXPECT_EQ(r.fires, 8u);  // execution unaffected
  EXPECT_EQ(j.fires.size(), 3u);
  EXPECT_EQ(j.fires_dropped, 5u);
}

TEST(Interpreter, DuplicateOperandDetected) {
  // Two tag-0 producers into the same port: single-assignment violation.
  GraphBuilder b;
  auto c1 = b.constant(Value(1), "c1");
  auto c2 = b.constant(Value(2), "c2");
  auto c3 = b.constant(Value(3), "c3");
  const NodeId add = b.arith(BinOp::Add);
  b.connect(c1, add, 0);
  b.connect(c2, add, 0);  // same port!
  b.connect(c3, add, 1);
  const NodeId out = b.output("o");
  b.connect(GraphBuilder::out(add), out, 0);
  const Graph g = std::move(b).build();
  EXPECT_THROW((void)Interpreter().run(g), EngineError);
}

TEST(Interpreter, SingleOutputHelperThrowsOnCounts) {
  const auto r = Interpreter().run(paper::fig2_graph(3, 5, 0, false));
  EXPECT_THROW((void)r.single_output("missing"), EngineError);
  EXPECT_THROW((void)r.output_values("missing"), EngineError);
}

TEST(ParallelEngine, MatchesInterpreterOnFig2Sweep) {
  for (std::int64_t z : {0, 1, 2, 10, 50}) {
    const Graph g = paper::fig2_graph(z, 3, 7, true);
    const auto a = Interpreter().run(g);
    DfRunOptions opts;
    opts.workers = 4;
    const auto b = ParallelEngine().run(g, opts);
    EXPECT_EQ(a.single_output("x_final"), b.single_output("x_final")) << z;
    EXPECT_EQ(a.fires, b.fires) << z;
  }
}

}  // namespace
}  // namespace gammaflow::dataflow
