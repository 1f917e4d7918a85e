// Engine semantics, parameterized over all three implementations: classic
// Gamma programs (min, max, gcd, sum, sieve, sort), termination, fairness,
// step limits, fire journals, sequential stages.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/obs/run_recorder.hpp"

namespace gammaflow::gamma {
namespace {

enum class Kind { Sequential, Indexed, Parallel };

std::unique_ptr<Engine> make_engine(Kind k) {
  switch (k) {
    case Kind::Sequential: return std::make_unique<SequentialEngine>();
    case Kind::Indexed: return std::make_unique<IndexedEngine>();
    case Kind::Parallel: return std::make_unique<ParallelEngine>();
  }
  return nullptr;
}

class EngineSuite : public ::testing::TestWithParam<Kind> {
 protected:
  RunResult run(const Program& p, const Multiset& m, std::uint64_t seed = 1) {
    RunOptions opts;
    opts.seed = seed;
    opts.workers = 3;
    return make_engine(GetParam())->run(p, m, opts);
  }
};

Multiset ints(std::initializer_list<std::int64_t> values) {
  Multiset m;
  for (const auto v : values) m.add(Element{Value(v)});
  return m;
}

/// Runs `p` on the suite's engine with a recorder capped at `limits`.
obs::Journal record(Kind kind, const Program& p, const Multiset& m,
                    obs::RecorderLimits limits, RunResult* result) {
  obs::RunRecorder rec(limits);
  RunOptions opts;
  opts.workers = 3;
  opts.record = &rec;
  *result = make_engine(kind)->run(p, m, opts);
  return rec.take();
}

TEST_P(EngineSuite, TraceLimitCapsRecordingWithoutChangingTheRun) {
  // 31 elements => 30 firings; a journal capped at 5 fires keeps 5 records
  // and counts the rest as dropped, while execution itself is unaffected.
  const Program p = dsl::parse_program("Rsum = replace x, y by x + y");
  Multiset m;
  std::int64_t total = 0;
  for (std::int64_t i = 1; i <= 31; ++i) {
    m.add(Element{Value(i)});
    total += i;
  }
  obs::RecorderLimits limits;
  limits.max_fires = 5;
  RunResult r;
  const obs::Journal j = record(GetParam(), p, m, limits, &r);
  EXPECT_EQ(r.final_multiset, ints({total}));
  EXPECT_EQ(r.steps, 30u);
  EXPECT_EQ(j.fires.size(), 5u);
  EXPECT_EQ(j.fires_dropped, 25u);
}

TEST_P(EngineSuite, DefaultTraceLimitRecordsEverything) {
  const Program p = dsl::parse_program("Rsum = replace x, y by x + y");
  RunResult r;
  const obs::Journal j =
      record(GetParam(), p, ints({1, 2, 3, 4, 5}), {}, &r);
  EXPECT_EQ(j.fires.size(), 4u);
  EXPECT_EQ(j.fires_dropped, 0u);
}

TEST_P(EngineSuite, MinElement) {
  // Eq. (2): replace x, y by x where x < y.
  const Program p = dsl::parse_program("Rmin = replace x, y by x where x < y");
  const auto r = run(p, ints({5, 3, 9, 1, 7, 4, 8}));
  EXPECT_EQ(r.final_multiset, ints({1}));
  EXPECT_EQ(r.steps, 6u);  // each firing removes exactly one element
}

TEST_P(EngineSuite, MaxElement) {
  const Program p = dsl::parse_program("Rmax = replace x, y by x where x > y");
  const auto r = run(p, ints({5, 3, 9, 1, 7}));
  EXPECT_EQ(r.final_multiset, ints({9}));
}

TEST_P(EngineSuite, SumReduction) {
  const Program p = dsl::parse_program("Rsum = replace x, y by x + y");
  const auto r = run(p, ints({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  EXPECT_EQ(r.final_multiset, ints({55}));
}

TEST_P(EngineSuite, GcdOfMultiset) {
  // Classic Gamma gcd: replace unequal pair by (difference, smaller).
  const Program p = dsl::parse_program(
      "Rgcd = replace x, y by [x - y], [y] where x > y");
  const auto r = run(p, ints({12, 18, 30}));
  // Fixed point: all elements equal gcd = 6 (three of them).
  EXPECT_EQ(r.final_multiset, ints({6, 6, 6}));
}

TEST_P(EngineSuite, SieveRemovesMultiples) {
  // Primes: replace x, y by y where y % x == 0 and x > 1 keeps... classic
  // form: delete y when x divides y.
  const Program p = dsl::parse_program(
      "Rsieve = replace x, y by [x] where (y % x == 0) and (x > 1)");
  Multiset m;
  for (std::int64_t i = 2; i <= 30; ++i) m.add(Element{Value(i)});
  const auto r = run(p, m);
  EXPECT_EQ(r.final_multiset, ints({2, 3, 5, 7, 11, 13, 17, 19, 23, 29}));
}

TEST_P(EngineSuite, EmptyMultisetIsImmediateFixpoint) {
  const Program p = dsl::parse_program("R = replace x, y by x where x < y");
  const auto r = run(p, Multiset{});
  EXPECT_TRUE(r.final_multiset.empty());
  EXPECT_EQ(r.steps, 0u);
}

TEST_P(EngineSuite, DisabledReactionLeavesMultisetUntouched) {
  // Γ(...)(M) = M when no condition holds (Eq. (1) base case).
  const Program p = dsl::parse_program("R = replace x, y by x where x < y");
  const auto r = run(p, ints({4, 4, 4}));
  EXPECT_EQ(r.final_multiset, ints({4, 4, 4}));
  EXPECT_EQ(r.steps, 0u);
}

TEST_P(EngineSuite, ParallelReactionsBothContribute) {
  // Two reactions over disjoint labels run in the same stage.
  const Program p = dsl::parse_program(R"(
    Ra = replace [x, 'a'], [y, 'a'] by [x + y, 'a']
    Rb = replace [x, 'b'], [y, 'b'] by [x * y, 'b']
  )");
  Multiset m;
  for (int i = 1; i <= 4; ++i) {
    m.add(Element::labeled(Value(i), "a"));
    m.add(Element::labeled(Value(i), "b"));
  }
  const auto r = run(p, m);
  const Multiset expected{Element::labeled(Value(10), "a"),
                          Element::labeled(Value(24), "b")};
  EXPECT_EQ(r.final_multiset, expected);
  EXPECT_EQ(r.fires_by_reaction.at("Ra"), 3u);
  EXPECT_EQ(r.fires_by_reaction.at("Rb"), 3u);
}

TEST_P(EngineSuite, SequentialStagesRunInOrder) {
  // Stage 1 squares singles into pairs; stage 2 sums pairs. With '|' instead
  // of ';' the result would differ — this pins the staged fixpoint order.
  const Program p = dsl::parse_program(R"(
    Rsq = replace [x, 'in'] by [x * x, 'mid'] ;
    Rsum = replace [x, 'mid'], [y, 'mid'] by [x + y, 'mid']
  )");
  Multiset m{Element::labeled(Value(1), "in"), Element::labeled(Value(2), "in"),
             Element::labeled(Value(3), "in")};
  const auto r = run(p, m);
  EXPECT_EQ(r.final_multiset, (Multiset{Element::labeled(Value(14), "mid")}));
}

TEST_P(EngineSuite, MaxStepsGuardThrows) {
  // Non-terminating: x -> x+1 forever.
  const Program p = dsl::parse_program("R = replace x by x + 1");
  RunOptions opts;
  opts.max_steps = 100;
  opts.workers = 3;
  EXPECT_THROW((void)make_engine(GetParam())->run(p, ints({0}), opts),
               EngineError);
}

TEST_P(EngineSuite, GrowingProgramReachesFixpointViaGuard) {
  // x -> x-1 twice while x > 0: grows then terminates.
  const Program p = dsl::parse_program(
      "R = replace x by [x - 1], [x - 1] where x > 0");
  const auto r = run(p, ints({3}));
  // 1 -> 2 -> 4 -> 8 leaves of value 0.
  EXPECT_EQ(r.final_multiset, ints({0, 0, 0, 0, 0, 0, 0, 0}));
}

TEST_P(EngineSuite, DeterministicResultAcrossSeeds) {
  // Sum is confluent: any firing order converges to the same multiset.
  const Program p = dsl::parse_program("R = replace x, y by x + y");
  const Multiset m = ints({3, 1, 4, 1, 5, 9, 2, 6});
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    EXPECT_EQ(run(p, m, seed).final_multiset, ints({31}));
  }
}

TEST_P(EngineSuite, FireCountsSumToSteps) {
  const Program p = dsl::parse_program("R = replace x, y by x + y");
  const auto r = run(p, ints({1, 2, 3, 4, 5}));
  std::uint64_t total = 0;
  for (const auto& [name, n] : r.fires_by_reaction) total += n;
  EXPECT_EQ(total, r.steps);
  EXPECT_EQ(r.steps, 4u);
}

// ---------------------------------------------------------------------------
// Cooperative stopping: deadline, cancellation, and budget with
// LimitPolicy::Partial must all return a VALID partial multiset with
// RunResult::outcome saying why — never throw, never hang a worker.
// ---------------------------------------------------------------------------

TEST_P(EngineSuite, DeadlineExceededReturnsPartialState) {
  // Non-terminating chemistry: only the deadline can end this run.
  const Program p = dsl::parse_program("R = replace x by x + 1");
  RunOptions opts;
  opts.workers = 3;
  opts.max_steps = ~std::uint64_t{0};  // budget out of the picture
  opts.deadline = 0.02;
  const auto r = make_engine(GetParam())->run(p, ints({0}), opts);
  EXPECT_EQ(r.outcome, Outcome::DeadlineExceeded);
  // The partial state is real: one element, rewritten some number of times.
  ASSERT_EQ(r.final_multiset.size(), 1u);
  EXPECT_GE(r.final_multiset.elements()[0].value().as_int(), 0);
}

TEST_P(EngineSuite, PreCancelledTokenReturnsInitialState) {
  const Program p = dsl::parse_program("R = replace x, y by x + y");
  CancelToken token;
  token.cancel();
  RunOptions opts;
  opts.workers = 3;
  opts.cancel = &token;
  const Multiset m = ints({1, 2, 3, 4});
  const auto r = make_engine(GetParam())->run(p, m, opts);
  EXPECT_EQ(r.outcome, Outcome::Cancelled);
  EXPECT_EQ(r.steps, 0u);
  EXPECT_EQ(r.final_multiset, m);
}

TEST_P(EngineSuite, CancelFromAnotherThreadStopsTheRun) {
  const Program p = dsl::parse_program("R = replace x by x + 1");
  CancelToken token;
  RunOptions opts;
  opts.workers = 3;
  opts.max_steps = ~std::uint64_t{0};
  opts.cancel = &token;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    token.cancel();
  });
  const auto r = make_engine(GetParam())->run(p, ints({0}), opts);
  canceller.join();
  EXPECT_EQ(r.outcome, Outcome::Cancelled);
  EXPECT_EQ(r.final_multiset.size(), 1u);
}

TEST_P(EngineSuite, BudgetWithPartialPolicyReturnsInsteadOfThrowing) {
  const Program p = dsl::parse_program("R = replace x by x + 1");
  RunOptions opts;
  opts.workers = 3;
  opts.max_steps = 25;
  opts.limit_policy = LimitPolicy::Partial;
  const auto r = make_engine(GetParam())->run(p, ints({0}), opts);
  EXPECT_EQ(r.outcome, Outcome::BudgetExhausted);
  EXPECT_LE(r.steps, 25u);
  ASSERT_EQ(r.final_multiset.size(), 1u);
  EXPECT_EQ(r.final_multiset.elements()[0].value(),
            Value(static_cast<std::int64_t>(r.steps)));
}

TEST_P(EngineSuite, CompletedRunsReportCompletedOutcome) {
  const Program p = dsl::parse_program("R = replace x, y by x + y");
  const auto r = run(p, ints({1, 2, 3}));
  EXPECT_EQ(r.outcome, Outcome::Completed);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineSuite,
                         ::testing::Values(Kind::Sequential, Kind::Indexed,
                                           Kind::Parallel),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case Kind::Sequential: return "Sequential";
                             case Kind::Indexed: return "Indexed";
                             case Kind::Parallel: return "Parallel";
                           }
                           return "Unknown";
                         });

// ---- engine-specific behaviours ----

TEST(SequentialEngine, TraceRecordsEveryFiring) {
  const Program p = dsl::parse_program("R = replace x, y by x + y");
  obs::RunRecorder rec;
  RunOptions opts;
  opts.record = &rec;
  (void)SequentialEngine().run(
      p, Multiset{Element{Value(1)}, Element{Value(2)}, Element{Value(3)}},
      opts);
  const obs::Journal j = rec.take();
  ASSERT_EQ(j.fires.size(), 2u);
  for (const obs::FireRecord& f : j.fires) {
    EXPECT_EQ(f.reaction, "R");
    EXPECT_EQ(f.consumed.size(), 2u);
    EXPECT_EQ(f.produced.size(), 1u);
  }
  // The last fire produces the final multiset.
  EXPECT_EQ(j.fires.back().produced[0], Element{Value(6)}.to_string());
}

TEST(SequentialEngine, UniformChoiceVariesWithSeed) {
  // First firing of the min program differs across seeds (several enabled
  // matches exist) — evidence the Eq. (1) "let x1..xn" choice is random.
  const Program p = dsl::parse_program("R = replace x, y by x where x < y");
  const Multiset m{Element{Value(1)}, Element{Value(2)}, Element{Value(3)},
                   Element{Value(4)}};
  std::set<std::string> first_consumed;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    obs::RunRecorder rec;
    RunOptions opts;
    opts.seed = seed;
    opts.record = &rec;
    (void)SequentialEngine().run(p, m, opts);
    const obs::Journal j = rec.take();
    ASSERT_FALSE(j.fires.empty());
    first_consumed.insert(j.fires[0].consumed[0] + j.fires[0].consumed[1]);
  }
  EXPECT_GT(first_consumed.size(), 2u);
}

TEST(IndexedEngine, TraceStagesAreMonotone) {
  const Program p = dsl::parse_program(R"(
    A = replace [x,'p'] by [x,'q'] ;
    B = replace [x,'q'] by [x,'r']
  )");
  obs::RunRecorder rec;
  RunOptions opts;
  opts.record = &rec;
  const auto r = IndexedEngine().run(
      p, Multiset{Element::labeled(Value(1), "p")}, opts);
  const obs::Journal j = rec.take();
  ASSERT_EQ(j.fires.size(), 2u);
  EXPECT_EQ(j.fires[0].stage, 0);
  EXPECT_EQ(j.fires[1].stage, 1);
  EXPECT_EQ(r.final_multiset, (Multiset{Element::labeled(Value(1), "r")}));
}

TEST(ParallelEngine, ManyWorkersConvergeOnLargeMultiset) {
  const Program p = dsl::parse_program("R = replace x, y by x + y");
  Multiset m;
  std::int64_t expected = 0;
  for (std::int64_t i = 1; i <= 500; ++i) {
    m.add(Element{Value(i)});
    expected += i;
  }
  RunOptions opts;
  opts.workers = 4;
  const auto r = ParallelEngine().run(p, m, opts);
  EXPECT_EQ(r.final_multiset, (Multiset{Element{Value(expected)}}));
  EXPECT_EQ(r.steps, 499u);
}

TEST(ParallelEngine, SingleWorkerDegeneratesGracefully) {
  const Program p = dsl::parse_program("R = replace x, y by x where x < y");
  RunOptions opts;
  opts.workers = 1;
  const auto r = ParallelEngine().run(
      p, Multiset{Element{Value(2)}, Element{Value(1)}}, opts);
  EXPECT_EQ(r.final_multiset, (Multiset{Element{Value(1)}}));
}

}  // namespace
}  // namespace gammaflow::gamma
