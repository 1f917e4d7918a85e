// The runtime core (PR 5): the StepLoop/StopFlag primitives every
// engine is now a thin policy over, the shard planner's soundness rules, the
// sharded store, and — the point of sharing one scaffolding — cross-engine
// contracts: the same corpus is state-identical across all engines (cluster
// included), and the same stop condition classifies to the same Outcome
// everywhere.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "gammaflow/analysis/interference.hpp"
#include "gammaflow/common/cancel.hpp"
#include "gammaflow/dataflow/engine.hpp"
#include "gammaflow/distrib/cluster.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/paper/figures.hpp"
#include "gammaflow/runtime/batch_matcher.hpp"
#include "gammaflow/runtime/match_pipeline.hpp"
#include "gammaflow/runtime/sharded_store.hpp"
#include "gammaflow/runtime/step_loop.hpp"
#include "gammaflow/translate/df_to_gamma.hpp"

namespace gammaflow::runtime {
namespace {

using gamma::Element;
using gamma::Multiset;
using gamma::Program;

Program parse(const char* src) { return gamma::dsl::parse_program(src); }

Multiset ints(std::int64_t from, std::int64_t to) {
  Multiset m;
  for (std::int64_t i = from; i <= to; ++i) m.add(Element{Value(i)});
  return m;
}

// --- StepLoop / StopFlag / QuiescenceVote / InFlight ----------------------

TEST(StepLoopTest, BudgetPartialRecordsBudgetExhausted) {
  RunOptions o;
  o.limit_policy = LimitPolicy::Partial;
  StepLoop loop(o, 3, "test engine", "max_steps");
  EXPECT_TRUE(loop.admit(0));
  EXPECT_TRUE(loop.admit(2));
  EXPECT_FALSE(loop.admit(3));
  EXPECT_FALSE(loop.running());
  EXPECT_EQ(loop.outcome(), Outcome::BudgetExhausted);
  EXPECT_TRUE(loop.should_stop());
}

TEST(StepLoopTest, BudgetThrowKeepsTheHistoricalErrorText) {
  RunOptions o;
  StepLoop loop(o, 2, "test engine", "max_steps");
  try {
    (void)loop.admit(2);
    FAIL() << "expected EngineError";
  } catch (const EngineError& e) {
    EXPECT_STREQ(e.what(), "EngineError: test engine exceeded max_steps=2");
  }
}

TEST(StepLoopTest, CancelWinsAndIsSticky) {
  CancelToken token;
  token.cancel();
  RunOptions o;
  o.cancel = &token;
  StepLoop loop(o, 100, "test engine", "max_steps");
  EXPECT_TRUE(loop.should_stop());
  EXPECT_EQ(loop.outcome(), Outcome::Cancelled);
  token.reset();
  EXPECT_TRUE(loop.should_stop());  // sticky: the run already stopped
  loop.stop(Outcome::BudgetExhausted);  // first writer won
  EXPECT_EQ(loop.outcome(), Outcome::Cancelled);
}

TEST(StopFlagTest, FirstPublisherWins) {
  StopFlag flag;
  EXPECT_FALSE(flag.stopped());
  EXPECT_EQ(flag.outcome(), Outcome::Completed);
  flag.publish(Outcome::Completed);  // no-op: not a stop reason
  EXPECT_FALSE(flag.stopped());
  flag.publish(Outcome::DeadlineExceeded);
  flag.publish(Outcome::Cancelled);
  EXPECT_TRUE(flag.stopped());
  EXPECT_EQ(flag.outcome(), Outcome::DeadlineExceeded);
}

TEST(QuiescenceVoteTest, AllVotersAtOneVersionIsQuiet) {
  QuiescenceVote vote;
  std::uint64_t a = QuiescenceVote::kNone;
  std::uint64_t b = QuiescenceVote::kNone;
  EXPECT_FALSE(vote.quiet(7, a, 2));
  EXPECT_FALSE(vote.quiet(7, a, 2));  // double vote ignored
  EXPECT_TRUE(vote.quiet(7, b, 2));
}

TEST(QuiescenceVoteTest, VersionMoveRestartsTheVote) {
  QuiescenceVote vote;
  std::uint64_t a = QuiescenceVote::kNone;
  std::uint64_t b = QuiescenceVote::kNone;
  EXPECT_FALSE(vote.quiet(1, a, 2));
  EXPECT_FALSE(vote.quiet(2, b, 2));  // commit happened: vote restarts
  EXPECT_FALSE(vote.quiet(2, b, 2));
  EXPECT_TRUE(vote.quiet(2, a, 2));
}

TEST(InFlightTest, IdleOnlyAtZero) {
  InFlight in_flight;
  EXPECT_TRUE(in_flight.idle());
  in_flight.add(3);
  in_flight.sub();
  EXPECT_FALSE(in_flight.idle());
  in_flight.sub(2);
  EXPECT_TRUE(in_flight.idle());
}

// --- plan_shards soundness rules ------------------------------------------

const char* kChains = R"(
  A = replace [x,'a'] by [x + 1,'a2']
  B = replace [x,'b'] by [x * 2,'b2']
  C = replace [x,'c'] by [x - 1,'c2']
)";

TEST(PlanShards, DisjointLabelledClassesShard) {
  const Program p = parse(kChains);
  const auto plan = plan_shards(
      p.stages()[0], {{"A", 0}, {"B", 1}, {"C", 2}});
  ASSERT_TRUE(plan.sharded);
  EXPECT_EQ(plan.shard_count, 3u);
  ASSERT_EQ(plan.reaction_shard.size(), 3u);
  // Each consumed label lands on its consumer's shard; 'a2' is produced but
  // never consumed — inert, so it stays unmapped and hash-routes anywhere.
  EXPECT_EQ(plan.label_shard.at("a"), plan.reaction_shard[0]);
  EXPECT_EQ(plan.label_shard.at("b"), plan.reaction_shard[1]);
  EXPECT_EQ(plan.label_shard.count("a2"), 0u);
  EXPECT_NE(plan.reaction_shard[0], plan.reaction_shard[1]);
}

TEST(PlanShards, RefusesPartialClassMaps) {
  const Program p = parse(kChains);
  EXPECT_FALSE(plan_shards(p.stages()[0], {{"A", 0}, {"B", 1}}).sharded);
  EXPECT_FALSE(plan_shards(p.stages()[0], {}).sharded);
}

TEST(PlanShards, RefusesASingleClass) {
  const Program p = parse(kChains);
  EXPECT_FALSE(
      plan_shards(p.stages()[0], {{"A", 0}, {"B", 0}, {"C", 0}}).sharded);
}

TEST(PlanShards, RefusesUnlabelledPatterns) {
  // Plain variables carry no label at field 1: routing would not be total.
  const Program p = parse("R1 = replace x, y by x + y\nR2 = replace x by x");
  EXPECT_FALSE(plan_shards(p.stages()[0], {{"R1", 0}, {"R2", 1}}).sharded);
}

TEST(PlanShards, RefusesALabelConsumedByTwoClasses) {
  // Both classes consume 'a' — contradicts class disjointness, so the
  // planner must refuse the hand-written map rather than misroute.
  const Program p = parse(R"(
    A = replace [x,'a'] by [x,'a2']
    B = replace [x,'a'] by [x,'b2']
  )");
  EXPECT_FALSE(plan_shards(p.stages()[0], {{"A", 0}, {"B", 1}}).sharded);
}

TEST(PlanShards, RefusesComputedOutputLabelsThatFeedBack) {
  // The produced label is not a literal: the planner cannot prove the feed
  // edge stays in-class.
  const Program p = parse(R"(
    A = replace [x,'a'], [y,'pick'] by [x,y]
    B = replace [x,'b'] by [x,'b2']
  )");
  EXPECT_FALSE(plan_shards(p.stages()[0], {{"A", 0}, {"B", 1}}).sharded);
}

TEST(PlanShards, AnalysisClassesShardKChains) {
  const Program p = parse(kChains);
  Multiset init;
  for (int v = 0; v < 4; ++v) {
    init.add(Element::labeled(Value(v), "a"));
    init.add(Element::labeled(Value(v), "b"));
    init.add(Element::labeled(Value(v), "c"));
  }
  const auto report = analysis::analyze_interference(p, init);
  const auto plan = plan_shards(p.stages()[0], report.engine_classes());
  EXPECT_TRUE(plan.sharded);
  EXPECT_EQ(plan.shard_count, 3u);
}

// --- ShardMap / ShardedStore ----------------------------------------------

TEST(ShardMapTest, HomeIsAHintRouteIsTotal) {
  const ShardMap map({{"a", 0}, {"b", 1}}, 2);
  const Element labelled = Element::labeled(Value(7), "b");
  const Element inert = Element{Value(7)};
  ASSERT_TRUE(map.home(labelled).has_value());
  EXPECT_EQ(*map.home(labelled), 1u);
  EXPECT_FALSE(map.home(inert).has_value());
  EXPECT_LT(map.route(inert), 2u);  // hash fallback still routes
}

TEST(ShardedStoreTest, PartitionRoundTripsAndVersionIsMonotone) {
  Multiset init;
  for (int v = 0; v < 5; ++v) {
    init.add(Element::labeled(Value(v), "a"));
    init.add(Element::labeled(Value(v), "b"));
  }
  init.add(Element{Value(99)});  // inert: hash-routed, must survive

  ShardedStore sharded(init, ShardMap({{"a", 0}, {"b", 1}}, 2));
  EXPECT_EQ(sharded.shard_count(), 2u);
  EXPECT_EQ(sharded.size(), 11u);
  EXPECT_EQ(sharded.to_multiset(), init);
  // Every 'a' element lives on shard 0, every 'b' on shard 1.
  EXPECT_GE(sharded.shard(0).store.size(), 5u);
  EXPECT_GE(sharded.shard(1).store.size(), 5u);

  const std::uint64_t v0 = sharded.version();
  sharded.shard(0).store.insert(Element::labeled(Value(50), "a"));
  EXPECT_GT(sharded.version(), v0);
}

// --- MatchPipeline ---------------------------------------------------------

TEST(MatchPipelineTest, ConstFindValidateCommitRoundTrip) {
  const Program p = parse("R = replace x, y by x + y where x <= y");
  gamma::Store store(ints(1, 3));
  const gamma::Reaction& r = p.stages()[0][0];

  const gamma::Store& cstore = store;
  auto match = MatchPipeline::find(cstore, r);
  ASSERT_TRUE(match.has_value());
  EXPECT_TRUE(MatchPipeline::validate(store, *match));
  MatchPipeline::commit(store, *match);
  EXPECT_EQ(store.size(), 2u);

  // The committed ids are dead: the stale proposal must now fail validation.
  auto stale = *match;
  EXPECT_FALSE(MatchPipeline::validate(store, stale));
}

TEST(MatchPipelineTest, ExhaustedSearchIsAFixedPointProof) {
  const Program p = parse("R = replace x, y by x where x < y");
  gamma::Store store(ints(4, 4));  // one element: arity-2 pattern cannot bind
  EXPECT_FALSE(MatchPipeline::find(store, p.stages()[0][0]).has_value());
}

// --- Cross-engine equivalence: one corpus, every engine --------------------

struct CorpusCase {
  const char* name;
  const char* src;
  Multiset initial;
};

std::vector<CorpusCase> corpus() {
  std::vector<CorpusCase> cases;
  cases.push_back({"sum", "R = replace x, y by x + y", ints(1, 40)});
  cases.push_back({"max", "R = replace x, y by x where x > y", ints(3, 30)});
  cases.push_back(
      {"sieve",
       "R = replace x, y by x where (y % x == 0) and (x > 1)", ints(2, 40)});
  // Wide enough that innermost buckets reach BatchMatcher::kMinChunk, so
  // the default batch mode really sweeps (the small cases stay scalar).
  cases.push_back(
      {"sieve-wide",
       "R = replace x, y by x where (y % x == 0) and (x > 1)",
       ints(2, 1 + static_cast<std::int64_t>(BatchMatcher::kMinChunk) + 16)});
  Multiset chains;
  for (int v = 0; v < 20; ++v) {
    chains.add(Element::labeled(Value(v), "a"));
    chains.add(Element::labeled(Value(v), "b"));
    chains.add(Element::labeled(Value(v), "c"));
  }
  cases.push_back({"chains", kChains, std::move(chains)});
  return cases;
}

TEST(CrossEngine, CorpusIsStateIdenticalAcrossEveryEngine) {
  for (const CorpusCase& c : corpus()) {
    const Program p = parse(c.src);
    const auto report = analysis::analyze_interference(p, c.initial);

    const Multiset oracle =
        gamma::SequentialEngine().run(p, c.initial).final_multiset;

    gamma::RunOptions par;
    par.workers = 3;
    par.conflict_classes = report.engine_classes();
    gamma::RunOptions unsharded = par;
    unsharded.shard = false;

    EXPECT_EQ(gamma::IndexedEngine().run(p, c.initial).final_multiset, oracle)
        << c.name << ": indexed";
    EXPECT_EQ(gamma::ParallelEngine().run(p, c.initial, par).final_multiset,
              oracle)
        << c.name << ": parallel (sharded path eligible)";
    EXPECT_EQ(
        gamma::ParallelEngine().run(p, c.initial, unsharded).final_multiset,
        oracle)
        << c.name << ": parallel --no-shard";

    distrib::ClusterOptions copts;
    copts.nodes = 4;
    copts.label_affinity = report.label_affinity();
    const auto cluster = distrib::run_distributed(p, c.initial, copts);
    EXPECT_EQ(cluster.outcome, Outcome::Completed) << c.name;
    EXPECT_EQ(cluster.final_multiset, oracle) << c.name << ": cluster";
  }
}

TEST(CrossEngine, BatchMatchingIsUnobservableAcrossEveryEngine) {
  // The batch escape hatch must change nothing an engine returns: the same
  // corpus under columnar batch matching and `--no-batch` (AST walker) on
  // every Gamma engine and the cluster.
  struct Mode {
    const char* name;
    bool batch;
  };
  std::uint64_t batch_evals[2] = {0, 0};  // per mode: batch, no-batch
  for (const CorpusCase& c : corpus()) {
    const Program p = parse(c.src);
    const auto report = analysis::analyze_interference(p, c.initial);
    const Multiset oracle =
        gamma::SequentialEngine().run(p, c.initial).final_multiset;

    for (const Mode m : {Mode{"batch", true}, Mode{"no-batch", false}}) {
      const std::uint64_t evals0 = expr::batch_evals();
      gamma::RunOptions go;
      go.batch = m.batch;
      EXPECT_EQ(gamma::SequentialEngine().run(p, c.initial, go).final_multiset,
                oracle)
          << c.name << ": sequential " << m.name;
      EXPECT_EQ(gamma::IndexedEngine().run(p, c.initial, go).final_multiset,
                oracle)
          << c.name << ": indexed " << m.name;
      gamma::RunOptions par = go;
      par.workers = 3;
      par.conflict_classes = report.engine_classes();
      EXPECT_EQ(gamma::ParallelEngine().run(p, c.initial, par).final_multiset,
                oracle)
          << c.name << ": parallel " << m.name;
      distrib::ClusterOptions copts;
      copts.nodes = 4;
      copts.batch = m.batch;
      copts.label_affinity = report.label_affinity();
      EXPECT_EQ(distrib::run_distributed(p, c.initial, copts).final_multiset,
                oracle)
          << c.name << ": cluster " << m.name;
      batch_evals[m.batch ? 0 : 1] += expr::batch_evals() - evals0;
    }
  }
  // Not vacuous: the batch mode reached the BatchMatcher, and `--no-batch`
  // never did.
  EXPECT_GT(batch_evals[0], 0u);
  EXPECT_EQ(batch_evals[1], 0u);

  // The dataflow engines take the same knobs through DfRunOptions; Fig. 1's
  // converted firing rules are the cross-model workload.
  const dataflow::Graph g = paper::fig1_graph();
  const auto want = dataflow::Interpreter().run(g).outputs;
  for (const bool batch : {true, false}) {
    dataflow::DfRunOptions dfo;
    dfo.batch = batch;
    EXPECT_EQ(dataflow::Interpreter().run(g, dfo).outputs, want)
        << "interpreter batch=" << batch;
    dataflow::DfRunOptions par = dfo;
    par.workers = 3;
    EXPECT_EQ(dataflow::ParallelEngine().run(g, par).outputs, want)
        << "parallel batch=" << batch;
  }
}

TEST(CrossEngine, ConvertedDataflowGraphAgreesEverywhere) {
  // Fig. 1 through BOTH dataflow engines and, converted, through every Gamma
  // engine and the cluster: one program, six executions, one answer.
  const dataflow::Graph g = paper::fig1_graph();
  const auto df_a = dataflow::Interpreter().run(g);
  const auto df_b = dataflow::ParallelEngine().run(g);
  EXPECT_EQ(df_a.outputs, df_b.outputs);

  const auto conv = translate::dataflow_to_gamma(g);
  const Multiset oracle =
      gamma::SequentialEngine().run(conv.program, conv.initial).final_multiset;
  EXPECT_EQ(gamma::IndexedEngine().run(conv.program, conv.initial)
                .final_multiset,
            oracle);
  gamma::RunOptions par;
  par.workers = 3;
  EXPECT_EQ(gamma::ParallelEngine().run(conv.program, conv.initial, par)
                .final_multiset,
            oracle);
  distrib::ClusterOptions copts;
  copts.nodes = 3;
  EXPECT_EQ(distrib::run_distributed(conv.program, conv.initial, copts)
                .final_multiset,
            oracle);
}

// --- Cross-engine Outcome classification -----------------------------------
// The same stop condition must classify identically no matter which engine
// hits it — that is what sharing StepLoop/StopFlag buys.

std::vector<Outcome> gamma_outcomes_under(const gamma::RunOptions& base) {
  const Program p = parse("R = replace x by x + 1");  // non-terminating
  const Multiset m = ints(0, 0);
  std::vector<Outcome> outcomes;
  gamma::RunOptions opts = base;
  outcomes.push_back(gamma::SequentialEngine().run(p, m, opts).outcome);
  outcomes.push_back(gamma::IndexedEngine().run(p, m, opts).outcome);
  opts.workers = 3;
  outcomes.push_back(gamma::ParallelEngine().run(p, m, opts).outcome);
  return outcomes;
}

std::vector<Outcome> dataflow_outcomes_under(const dataflow::DfRunOptions& o) {
  // A long-running loop graph (counts far past any test deadline/budget).
  const dataflow::Graph g = paper::fig2_graph(10'000'000, 1, 20'000'000, false);
  std::vector<Outcome> outcomes;
  outcomes.push_back(dataflow::Interpreter().run(g, o).outcome);
  dataflow::DfRunOptions par = o;
  par.workers = 3;
  outcomes.push_back(dataflow::ParallelEngine().run(g, par).outcome);
  return outcomes;
}

Outcome cluster_outcome_under(const distrib::ClusterOptions& base) {
  const Program p = parse("R = replace x by x + 1");
  distrib::ClusterOptions opts = base;
  opts.nodes = 3;
  return distrib::run_distributed(p, ints(1, 6), opts).outcome;
}

TEST(CrossEngine, PreCancelledTokenClassifiesAsCancelledEverywhere) {
  CancelToken token;
  token.cancel();
  gamma::RunOptions go;
  go.cancel = &token;
  for (const Outcome o : gamma_outcomes_under(go)) {
    EXPECT_EQ(o, Outcome::Cancelled);
  }
  dataflow::DfRunOptions dfo;
  dfo.cancel = &token;
  for (const Outcome o : dataflow_outcomes_under(dfo)) {
    EXPECT_EQ(o, Outcome::Cancelled);
  }
  distrib::ClusterOptions co;
  co.cancel = &token;
  EXPECT_EQ(cluster_outcome_under(co), Outcome::Cancelled);
}

TEST(CrossEngine, DeadlineClassifiesAsDeadlineExceededEverywhere) {
  gamma::RunOptions go;
  go.deadline = 0.02;
  go.max_steps = ~std::uint64_t{0};
  for (const Outcome o : gamma_outcomes_under(go)) {
    EXPECT_EQ(o, Outcome::DeadlineExceeded);
  }
  dataflow::DfRunOptions dfo;
  dfo.deadline = 0.02;
  dfo.max_fires = ~std::uint64_t{0};
  for (const Outcome o : dataflow_outcomes_under(dfo)) {
    EXPECT_EQ(o, Outcome::DeadlineExceeded);
  }
  distrib::ClusterOptions co;
  co.deadline = 0.02;
  EXPECT_EQ(cluster_outcome_under(co), Outcome::DeadlineExceeded);
}

TEST(CrossEngine, BudgetPartialClassifiesAsBudgetExhaustedEverywhere) {
  gamma::RunOptions go;
  go.limit_policy = LimitPolicy::Partial;
  go.max_steps = 5;
  for (const Outcome o : gamma_outcomes_under(go)) {
    EXPECT_EQ(o, Outcome::BudgetExhausted);
  }
  dataflow::DfRunOptions dfo;
  dfo.limit_policy = LimitPolicy::Partial;
  dfo.max_fires = 5;
  for (const Outcome o : dataflow_outcomes_under(dfo)) {
    EXPECT_EQ(o, Outcome::BudgetExhausted);
  }
  distrib::ClusterOptions co;
  co.limit_policy = LimitPolicy::Partial;
  co.max_rounds = 2;
  EXPECT_EQ(cluster_outcome_under(co), Outcome::BudgetExhausted);
}

// --- Early-stop settlement under faults ------------------------------------

TEST(CrossEngine, ClusterSettlesInFlightTransfersOnEarlyStop) {
  // Sum chemistry conserves the total; stop mid-run (deadline) with an
  // actively faulty network and the settled partial state must still hold
  // the exact total — nothing lost on the wire, nothing double-counted.
  const Program p = parse("R = replace x, y by x + y");
  const Multiset init = ints(1, 120);
  std::int64_t expected = 0;
  for (const Element& e : init) expected += e.value().as_int();

  for (const std::uint64_t seed : {3u, 11u, 42u}) {
    distrib::ClusterOptions opts;
    opts.nodes = 5;
    opts.seed = seed;
    opts.fires_per_round = 1;  // converge slowly: the deadline wins
    opts.deadline = 0.005;
    opts.faults.loss = 0.2;
    opts.faults.duplication = 0.1;
    opts.faults.crash_rate = 0.05;
    const auto r = distrib::run_distributed(p, init, opts);
    std::int64_t total = 0;
    for (const Element& e : r.final_multiset) total += e.value().as_int();
    EXPECT_EQ(total, expected) << "seed " << seed << " outcome "
                               << to_string(r.outcome);
  }
}

TEST(CrossEngine, FaultySeedsStillClassifyOutcomesIdentically) {
  // Faults shake the schedule, never the classification: a completed faulty
  // run is Completed; a cancelled faulty run is Cancelled.
  const Program p = parse("R = replace x, y by x + y");
  const Multiset init = ints(1, 30);
  for (const std::uint64_t seed : {1u, 9u}) {
    distrib::ClusterOptions opts;
    opts.nodes = 4;
    opts.seed = seed;
    opts.faults.loss = 0.15;
    opts.faults.duplication = 0.1;
    const auto done = distrib::run_distributed(p, init, opts);
    EXPECT_EQ(done.outcome, Outcome::Completed) << seed;
    EXPECT_EQ(done.final_multiset, ints(465, 465)) << seed;

    CancelToken token;
    token.cancel();
    opts.cancel = &token;
    const auto stopped = distrib::run_distributed(p, init, opts);
    EXPECT_EQ(stopped.outcome, Outcome::Cancelled) << seed;
  }
}

}  // namespace
}  // namespace gammaflow::runtime
