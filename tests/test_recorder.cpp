// Run-recorder tests: the journal a recorded run produces must replay to the
// engine's own final state (rounds always; fires exactly when nothing was
// dropped), survive a serialize -> parse round trip unchanged, and account
// for every drop under tiny budgets.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "gammaflow/analysis/interference.hpp"
#include "gammaflow/common/rng.hpp"
#include "gammaflow/dataflow/engine.hpp"
#include "gammaflow/distrib/cluster.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/obs/run_recorder.hpp"
#include "gammaflow/paper/figures.hpp"
#include "gammaflow/runtime/step_loop.hpp"

namespace gammaflow {
namespace {

using obs::Journal;
using obs::RecorderLimits;
using obs::RunRecorder;
using obs::StoreCounts;

gamma::Multiset ints(std::initializer_list<std::int64_t> xs) {
  gamma::Multiset m;
  for (const std::int64_t x : xs) m.add(gamma::Element({Value(x)}));
  return m;
}

std::unique_ptr<gamma::Engine> make_engine(const std::string& name) {
  if (name == "seq") return std::make_unique<gamma::SequentialEngine>();
  if (name == "idx") return std::make_unique<gamma::IndexedEngine>();
  return std::make_unique<gamma::ParallelEngine>();
}

const char* kMin = "Rmin = replace x, y by x where x < y";
// Two stages, so the engines that close one round per stage close several.
const char* kDoubleThenMin =
    "Rdbl = replace x by x * 2 where x < 40 ; "
    "Rmin = replace x, y by x where x < y";

/// The recorder header's invariant for a journal with no dropped fires:
/// replaying rounds 0..k equals replaying every fire with round <= k, and
/// round k's store_size is that store's total multiplicity. Rounds are
/// built from the fires, so this is what makes them exact. It holds across
/// dropped rounds too: a fire's round is the next KEPT one, and a dropped
/// round's delta folds into it.
void expect_rounds_replay_their_fires(const Journal& j) {
  ASSERT_EQ(j.fires_dropped, 0u);
  ASSERT_FALSE(j.rounds.empty());
  std::size_t upto = 0;  // fires with round <= k (fires are in round order)
  for (std::size_t k = 0; k < j.rounds.size(); ++k) {
    while (upto < j.fires.size() && j.fires[upto].round <= k) ++upto;
    const StoreCounts at = obs::replay_rounds(j, k + 1);
    EXPECT_EQ(at, obs::replay_fires(j, upto)) << "round " << k;
    std::uint64_t size = 0;
    for (const auto& [elem, n] : at) size += static_cast<std::uint64_t>(n);
    EXPECT_EQ(j.rounds[k].store_size, size) << "round " << k;
  }
  EXPECT_EQ(upto, j.fires.size()) << "a fire landed after the last round";
}

/// Fire records are an audit trail, not the round source of truth: capping
/// them must leave every round delta unchanged.
void expect_same_rounds(const Journal& capped, const Journal& full) {
  ASSERT_EQ(capped.rounds.size(), full.rounds.size());
  for (std::size_t k = 0; k < full.rounds.size(); ++k) {
    EXPECT_EQ(capped.rounds[k].added, full.rounds[k].added) << "round " << k;
    EXPECT_EQ(capped.rounds[k].removed, full.rounds[k].removed)
        << "round " << k;
    EXPECT_EQ(capped.rounds[k].store_size, full.rounds[k].store_size)
        << "round " << k;
    EXPECT_EQ(capped.rounds[k].fires, full.rounds[k].fires) << "round " << k;
  }
  EXPECT_EQ(capped.final_store, full.final_store);
}

/// Journal budgets that drop every round but the first and keep no round
/// bytes to speak of: the dropped deltas must fold into the closing round.
void expect_dropped_rounds_fold_into_closing(const Journal& j,
                                             const StoreCounts& final) {
  EXPECT_GT(j.rounds_dropped, 0u);
  EXPECT_EQ(obs::verify_journal(j), "");
  expect_rounds_replay_their_fires(j);
  EXPECT_EQ(obs::replay_rounds(j, j.rounds.size()), final);
  std::uint64_t fires = 0;
  for (const obs::RoundDelta& d : j.rounds) fires += d.fires;
  EXPECT_EQ(fires, j.fires_total);  // dropped rounds' fires carry forward
}

// ---------------------------------------------------------------- gamma ---

class GammaRecorderSuite : public ::testing::TestWithParam<const char*> {};

TEST_P(GammaRecorderSuite, JournalReplaysToEngineFinalStore) {
  const gamma::Program program = gamma::dsl::parse_program(kMin);
  const gamma::Multiset initial = ints({9, 4, 7, 2, 8, 5});
  RunRecorder rec;
  gamma::RunOptions opts;
  opts.seed = 7;
  opts.record = &rec;
  const auto result = make_engine(GetParam())->run(program, initial, opts);
  const Journal j = rec.take();

  EXPECT_EQ(obs::verify_journal(j), "");
  EXPECT_EQ(j.kind, "gamma");
  EXPECT_EQ(j.outcome, "completed");
  EXPECT_EQ(j.initial, runtime::store_counts(initial));

  const StoreCounts final = runtime::store_counts(result.final_multiset);
  EXPECT_EQ(j.final_store, final);
  EXPECT_EQ(obs::replay_rounds(j, j.rounds.size()), final);
  ASSERT_EQ(j.fires_dropped, 0u);
  EXPECT_EQ(obs::replay_fires(j, j.fires.size()), final);
  EXPECT_EQ(j.fires_total, result.steps);
  for (const obs::FireRecord& f : j.fires) {
    EXPECT_EQ(f.reaction, "Rmin");
    EXPECT_EQ(f.consumed.size(), 2u);
    EXPECT_EQ(f.produced.size(), 1u);
  }
}

TEST_P(GammaRecorderSuite, SerializeParseRoundTrip) {
  const gamma::Program program = gamma::dsl::parse_program(kMin);
  RunRecorder rec;
  gamma::RunOptions opts;
  opts.record = &rec;
  (void)make_engine(GetParam())->run(program, ints({3, 1, 4, 1, 5}), opts);
  const Journal j = rec.take();

  const std::string text = obs::journal_to_string(j);
  const Journal parsed = obs::parse_journal_string(text);
  EXPECT_EQ(parsed.version, obs::kJournalVersion);
  EXPECT_EQ(parsed.engine, j.engine);
  EXPECT_EQ(parsed.kind, j.kind);
  EXPECT_EQ(parsed.outcome, j.outcome);
  EXPECT_EQ(parsed.initial, j.initial);
  EXPECT_EQ(parsed.final_store, j.final_store);
  EXPECT_EQ(parsed.fires_total, j.fires_total);
  EXPECT_EQ(parsed.rounds_total, j.rounds_total);
  ASSERT_EQ(parsed.fires.size(), j.fires.size());
  for (std::size_t i = 0; i < j.fires.size(); ++i) {
    EXPECT_EQ(parsed.fires[i].reaction, j.fires[i].reaction);
    EXPECT_EQ(parsed.fires[i].round, j.fires[i].round);
    EXPECT_EQ(parsed.fires[i].consumed, j.fires[i].consumed);
    EXPECT_EQ(parsed.fires[i].produced, j.fires[i].produced);
  }
  // Serializing the parsed journal reproduces the text byte-for-byte.
  EXPECT_EQ(obs::journal_to_string(parsed), text);
  EXPECT_EQ(obs::verify_journal(parsed), "");
}

Journal record_gamma(const char* engine, const char* program_text,
                     const gamma::Multiset& initial, RecorderLimits limits,
                     gamma::Multiset* final = nullptr) {
  const gamma::Program program = gamma::dsl::parse_program(program_text);
  RunRecorder rec(limits);
  gamma::RunOptions opts;
  opts.seed = 5;
  opts.workers = 1;  // deterministic, so capped and full runs align
  opts.record = &rec;
  const auto result = make_engine(engine)->run(program, initial, opts);
  if (final != nullptr) *final = result.final_multiset;
  return rec.take();
}

gamma::Multiset descending(std::int64_t n) {
  gamma::Multiset m;
  for (std::int64_t i = n; i >= 1; --i) m.add(gamma::Element({Value(i)}));
  return m;
}

TEST_P(GammaRecorderSuite, RoundsReplayTheirFires) {
  const Journal j =
      record_gamma(GetParam(), kDoubleThenMin, descending(30), {});
  EXPECT_EQ(obs::verify_journal(j), "");
  expect_rounds_replay_their_fires(j);
  // Two stages: the per-stage (seq, par) or per-pass (idx) rounds close
  // more than one round before finish().
  EXPECT_GE(j.rounds.size(), 2u);
}

TEST_P(GammaRecorderSuite, OneFireRecordStillGivesExactRounds) {
  RecorderLimits one;
  one.max_fires = 1;
  const Journal capped =
      record_gamma(GetParam(), kDoubleThenMin, descending(30), one);
  const Journal full =
      record_gamma(GetParam(), kDoubleThenMin, descending(30), {});
  EXPECT_EQ(capped.fires.size(), 1u);
  EXPECT_EQ(capped.fires_dropped + 1, capped.fires_total);
  EXPECT_EQ(obs::verify_journal(capped), "");
  expect_same_rounds(capped, full);
}

TEST_P(GammaRecorderSuite, TinyRoundBudgetsFoldIntoTheClosingRound) {
  for (const bool by_bytes : {false, true}) {
    RecorderLimits tiny;
    if (by_bytes) {
      tiny.max_round_bytes = 40;
    } else {
      tiny.max_rounds = 1;
    }
    gamma::Multiset final;
    const Journal j = record_gamma(GetParam(), kDoubleThenMin,
                                   descending(30), tiny, &final);
    expect_dropped_rounds_fold_into_closing(j, runtime::store_counts(final));
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, GammaRecorderSuite,
                         ::testing::Values("seq", "idx", "par"));

TEST(Recorder, TinyBudgetCountsDropsAndStillConverges) {
  const gamma::Program program = gamma::dsl::parse_program(kMin);
  gamma::Multiset initial;
  for (std::int64_t i = 0; i < 40; ++i) {
    initial.add(gamma::Element({Value(100 - i)}));
  }
  RecorderLimits limits;
  limits.max_fires = 3;
  limits.max_rounds = 1;
  limits.max_round_bytes = 128;
  RunRecorder rec(limits);
  gamma::RunOptions opts;
  opts.record = &rec;
  const auto result = gamma::SequentialEngine().run(program, initial, opts);
  const Journal j = rec.take();

  EXPECT_EQ(j.fires_total, result.steps);
  EXPECT_GT(j.fires_dropped, 0u);
  EXPECT_LE(j.fires.size(), 3u);
  EXPECT_GT(j.rounds_dropped, 0u);
  // The closing round is budget-exempt: rounds-replay still reaches the
  // engine's final store even though intermediate rounds were dropped.
  EXPECT_EQ(obs::replay_rounds(j, j.rounds.size()),
            runtime::store_counts(result.final_multiset));
  EXPECT_EQ(obs::verify_journal(j), "");
}

TEST(Recorder, DroppedRoundFoldsIntoTheNextKeptRound) {
  // Round 1 is dropped by the byte budget; its pending delta must carry
  // into round 2, where the fire that undoes it cancels it out.
  RecorderLimits limits;
  limits.max_round_bytes = 200;
  RunRecorder rec(limits);
  rec.begin("test", "gamma", {{"[1]", 1}});
  const auto fire = [&](std::vector<std::string> in,
                        std::vector<std::string> out) {
    obs::FireRecord f;
    f.reaction = "R";
    f.consumed = std::move(in);
    f.produced = std::move(out);
    rec.fire(std::move(f));
  };
  const std::string big = "[" + std::string(300, '9') + "]";
  fire({}, {"[2]"});
  rec.round();  // kept: +[2]
  fire({"[1]"}, {big});
  rec.round();  // dropped: -[1] +big is over the byte budget
  fire({big}, {"[1]"});
  rec.round();  // kept: the carried delta cancels, so the round is empty
  rec.finish("completed", {{"[1]", 1}, {"[2]", 1}});
  const Journal j = rec.take();

  EXPECT_EQ(j.rounds_total, 3u);
  EXPECT_EQ(j.rounds_dropped, 1u);
  ASSERT_EQ(j.rounds.size(), 2u);  // no closing round: nothing left over
  EXPECT_EQ(j.rounds[1].added, StoreCounts{});
  EXPECT_EQ(j.rounds[1].removed, StoreCounts{});
  EXPECT_EQ(j.rounds[1].fires, 2u);  // the dropped round's fire included
  EXPECT_EQ(j.rounds[1].store_size, 2u);
  EXPECT_EQ(obs::verify_journal(j), "");
  expect_rounds_replay_their_fires(j);
}

TEST(Recorder, EscapedStringsSurviveRoundTrip) {
  RunRecorder rec;
  rec.begin("test", "gamma", {{"[1, 'a\"b\\c']", 2}, {"tab\there", 1}});
  obs::FireRecord f;
  f.reaction = "R\"quoted\"\nnewline";
  f.consumed = {"[1, 'a\"b\\c']"};
  f.produced = {"ctrl\x01char"};
  rec.fire(std::move(f));
  rec.round({{"[1, 'a\"b\\c']", 1}, {"tab\there", 1}, {"ctrl\x01char", 1}});
  rec.finish("completed",
             {{"[1, 'a\"b\\c']", 1}, {"tab\there", 1}, {"ctrl\x01char", 1}});
  const Journal j = rec.take();
  const Journal parsed = obs::parse_journal_string(obs::journal_to_string(j));
  EXPECT_EQ(parsed.fires.at(0).reaction, "R\"quoted\"\nnewline");
  EXPECT_EQ(parsed.final_store, j.final_store);
  EXPECT_EQ(obs::verify_journal(parsed), "");
}

TEST(Recorder, SessionTagRoundTripsAndIsOmittedWhenEmpty) {
  RunRecorder rec;
  rec.begin("worklist", "gamma", {{"[1]", 1}});
  rec.round({{"[1]", 1}});
  rec.finish("completed", {{"[1]", 1}});
  Journal j = rec.take();

  // Pre-serve journals carry no session; the serialized form must not grow
  // a "session" key so old journals stay byte-identical.
  EXPECT_EQ(j.session, "");
  const std::string untagged = obs::journal_to_string(j);
  EXPECT_EQ(untagged.find("\"session\""), std::string::npos);
  EXPECT_EQ(obs::parse_journal_string(untagged).session, "");

  j.session = "s42";
  const std::string tagged = obs::journal_to_string(j);
  EXPECT_NE(tagged.find("\"session\":\"s42\""), std::string::npos);
  const Journal parsed = obs::parse_journal_string(tagged);
  EXPECT_EQ(parsed.session, "s42");
  EXPECT_EQ(obs::journal_to_string(parsed), tagged);
  EXPECT_EQ(obs::verify_journal(parsed), "");
}

TEST(Recorder, WorklistJournalReplaysAcrossInjections) {
  // A serve session's journal spans many injections: one round per
  // quiescent state. Replaying the rounds must land on the live store.
  const gamma::Program program = gamma::dsl::parse_program(kMin);
  RunRecorder rec;
  runtime::WorklistOptions wopts;
  wopts.seed = 11;
  wopts.record = &rec;
  runtime::IncrementalFixpoint fix(program, analysis::wakeup_keys(program),
                                   wopts);
  rec.set_session("s1");
  ASSERT_EQ(fix.inject(ints({9, 4, 7})), Outcome::Completed);
  ASSERT_EQ(fix.inject(ints({2, 8})), Outcome::Completed);
  ASSERT_EQ(fix.inject(ints({5})), Outcome::Completed);
  fix.finish_recording();
  const Journal j = rec.take();

  EXPECT_EQ(j.session, "s1");
  EXPECT_EQ(j.engine, "worklist");
  EXPECT_EQ(j.outcome, "completed");
  EXPECT_EQ(obs::verify_journal(j), "");
  EXPECT_EQ(j.rounds_total, 3u);
  const StoreCounts final = runtime::store_counts(fix.snapshot());
  EXPECT_EQ(j.final_store, final);
  EXPECT_EQ(obs::replay_rounds(j, j.rounds.size()), final);
  ASSERT_EQ(j.fires_dropped, 0u);
  EXPECT_EQ(obs::replay_fires(j, j.fires.size()), final);

  const Journal parsed = obs::parse_journal_string(obs::journal_to_string(j));
  EXPECT_EQ(parsed.session, "s1");
  EXPECT_EQ(parsed.final_store, final);
}

Journal record_worklist(RecorderLimits limits,
                        StoreCounts* final = nullptr) {
  const gamma::Program program = gamma::dsl::parse_program(kMin);
  RunRecorder rec(limits);
  runtime::WorklistOptions wopts;
  wopts.seed = 11;
  wopts.record = &rec;
  runtime::IncrementalFixpoint fix(program, analysis::wakeup_keys(program),
                                   wopts);
  for (const auto& batch : {ints({9, 4, 7}), ints({12, 8}), ints({}),
                            ints({3, 3, 15}), ints({1})}) {
    EXPECT_EQ(fix.inject(batch), Outcome::Completed);
  }
  fix.finish_recording();
  if (final != nullptr) *final = runtime::store_counts(fix.snapshot());
  return rec.take();
}

TEST(Recorder, WorklistRoundsReplayTheirFires) {
  const Journal j = record_worklist({});
  EXPECT_EQ(j.rounds_total, 5u);  // one per inject, the empty one included
  expect_rounds_replay_their_fires(j);
}

TEST(Recorder, WorklistTinyBudgetsKeepRoundsExact) {
  RecorderLimits one;
  one.max_fires = 1;
  const Journal capped = record_worklist(one);
  EXPECT_EQ(capped.fires.size(), 1u);
  expect_same_rounds(capped, record_worklist({}));

  RecorderLimits tiny;
  tiny.max_rounds = 1;
  tiny.max_round_bytes = 40;
  StoreCounts final;
  const Journal j = record_worklist(tiny, &final);
  expect_dropped_rounds_fold_into_closing(j, final);
}

TEST(Recorder, VersionMismatchThrows) {
  EXPECT_THROW(
      (void)obs::parse_journal_string(
          R"({"gf_journal":99,"engine":"x","kind":"gamma","outcome":"completed","initial":{},"rounds":[],"fires":[],"final":{},"fires_total":0,"fires_dropped":0,"rounds_total":0,"rounds_dropped":0})"),
      std::runtime_error);
  EXPECT_THROW((void)obs::parse_journal_string("not json"),
               std::runtime_error);
}

// ------------------------------------------------------------- dataflow ---

TEST(DataflowRecorder, InterpreterJournalReplaysToOutputs) {
  const dataflow::Graph g = paper::fig1_graph();
  RunRecorder rec;
  dataflow::DfRunOptions opts;
  opts.record = &rec;
  const auto result = dataflow::Interpreter().run(g, opts, {});
  const Journal j = rec.take();

  EXPECT_EQ(j.engine, "interpreter");
  EXPECT_EQ(j.kind, "dataflow");
  EXPECT_EQ(obs::verify_journal(j), "");
  EXPECT_TRUE(j.initial.empty());
  EXPECT_EQ(j.fires_total, result.fires);
  ASSERT_EQ(j.fires_dropped, 0u);

  // The final "store" = captured outputs + parked leftovers, in the shared
  // canonical renderings.
  StoreCounts expected;
  for (const auto& [name, tokens] : result.outputs) {
    for (const auto& [tag, value] : tokens) {
      ++expected[dataflow::journal_output_str(name, tag, value)];
    }
  }
  for (const dataflow::PendingOperand& p : result.leftovers) {
    ++expected[dataflow::journal_token_str(g, p.node, p.port, p.tag, p.value)];
  }
  EXPECT_EQ(j.final_store, expected);
  EXPECT_EQ(obs::replay_fires(j, j.fires.size()), expected);
  EXPECT_EQ(obs::replay_rounds(j, j.rounds.size()), expected);
}

Journal record_interpreter(RecorderLimits limits) {
  const dataflow::Graph g = paper::fig2_graph(6, 3, 10, true);
  RunRecorder rec(limits);
  dataflow::DfRunOptions opts;
  opts.record = &rec;
  (void)dataflow::Interpreter().run(g, opts, {});
  return rec.take();
}

TEST(DataflowRecorder, InterpreterRoundsReplayTheirFires) {
  const Journal j = record_interpreter({});
  EXPECT_GE(j.rounds.size(), 5u);  // one per wavefront
  expect_rounds_replay_their_fires(j);
}

TEST(DataflowRecorder, InterpreterTinyBudgetsKeepRoundsExact) {
  RecorderLimits one;
  one.max_fires = 1;
  const Journal full = record_interpreter({});
  const Journal capped = record_interpreter(one);
  EXPECT_EQ(capped.fires.size(), 1u);
  EXPECT_EQ(obs::verify_journal(capped), "");
  expect_same_rounds(capped, full);

  RecorderLimits tiny;
  tiny.max_rounds = 1;
  tiny.max_round_bytes = 40;
  expect_dropped_rounds_fold_into_closing(record_interpreter(tiny),
                                          full.final_store);
}

TEST(DataflowRecorder, ParallelEngineJournalReplays) {
  const dataflow::Graph g = paper::fig2_graph(4, 5, 100, true);
  RunRecorder rec;
  dataflow::DfRunOptions opts;
  opts.workers = 3;
  opts.record = &rec;
  const auto result = dataflow::ParallelEngine().run(g, opts, {});
  const Journal j = rec.take();

  EXPECT_EQ(j.engine, "parallel");
  EXPECT_EQ(j.kind, "dataflow");
  EXPECT_EQ(j.fires_total, result.fires);
  ASSERT_EQ(j.fires_dropped, 0u);
  EXPECT_EQ(obs::verify_journal(j), "");
  EXPECT_EQ(obs::replay_fires(j, j.fires.size()), j.final_store);
  EXPECT_EQ(obs::replay_rounds(j, j.rounds.size()), j.final_store);
}

TEST(DataflowRecorder, ParallelJournalOrderStress) {
  // A fire must be journaled before its tokens are published: otherwise a
  // consumer PE can absorb one and journal its own fire first, and the
  // journal no longer replays. More PEs than cores make that preemption
  // window likely; seeded graphs of varying width and depth vary the
  // interleavings.
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    const dataflow::Graph g =
        seed % 2 == 0
            ? paper::fig2_graph(static_cast<std::int64_t>(5 + rng.bounded(20)),
                                static_cast<std::int64_t>(rng.bounded(7)),
                                static_cast<std::int64_t>(rng.bounded(50)),
                                true)
            : paper::multi_loop_graph(2 + rng.bounded(6),
                                      static_cast<std::int64_t>(
                                          3 + rng.bounded(12)));
    RunRecorder rec;
    dataflow::DfRunOptions opts;
    opts.workers = 8;
    opts.record = &rec;
    const auto result = dataflow::ParallelEngine().run(g, opts, {});
    const Journal j = rec.take();
    ASSERT_EQ(j.fires_total, result.fires) << "seed " << seed;
    ASSERT_EQ(j.fires_dropped, 0u) << "seed " << seed;
    ASSERT_EQ(obs::verify_journal(j), "") << "seed " << seed;
    ASSERT_EQ(obs::replay_fires(j, j.fires.size()), j.final_store)
        << "seed " << seed;
  }
}

// -------------------------------------------------------------- distrib ---

TEST(DistribRecorder, FaultFreeClusterJournalReplays) {
  const gamma::Program program = gamma::dsl::parse_program(kMin);
  const gamma::Multiset initial = ints({9, 4, 7, 2, 8, 5, 11, 3});
  RunRecorder rec;
  distrib::ClusterOptions opts;
  opts.nodes = 3;
  opts.seed = 5;
  opts.record = &rec;
  const auto result = distrib::run_distributed(program, initial, opts);
  const Journal j = rec.take();

  EXPECT_EQ(j.engine, "cluster");
  EXPECT_EQ(j.kind, "distrib");
  EXPECT_EQ(obs::verify_journal(j), "");
  EXPECT_EQ(j.fires_total, result.fires);
  const StoreCounts final = runtime::store_counts(result.final_multiset);
  EXPECT_EQ(j.final_store, final);
  EXPECT_EQ(obs::replay_rounds(j, j.rounds.size()), final);
  ASSERT_EQ(j.fires_dropped, 0u);
  // Fault-free: no fire is ever rolled back, so fire-replay is exact and
  // every fire names the node that ran it.
  EXPECT_EQ(obs::replay_fires(j, j.fires.size()), final);
  for (const obs::FireRecord& f : j.fires) {
    EXPECT_GE(f.node, 0);
    EXPECT_LT(f.node, 3);
  }
}

TEST(Recorder, OffByDefaultLeavesResultsIdentical) {
  const gamma::Program program = gamma::dsl::parse_program(kMin);
  const gamma::Multiset initial = ints({6, 2, 9});
  gamma::RunOptions plain;
  plain.seed = 3;
  RunRecorder rec;
  gamma::RunOptions recorded;
  recorded.seed = 3;
  recorded.record = &rec;
  const auto a = gamma::IndexedEngine().run(program, initial, plain);
  const auto b = gamma::IndexedEngine().run(program, initial, recorded);
  EXPECT_EQ(a.final_multiset.canonical(), b.final_multiset.canonical());
  EXPECT_EQ(a.steps, b.steps);
}

}  // namespace
}  // namespace gammaflow
