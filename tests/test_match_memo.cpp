// Semi-naive matching: the mutating MatchPipeline::find keeps per-reaction
// refutation watermarks in the Store and skips tuples that already failed.
// The contract is step identity with a memo-less search, checked here
// against a memo-cold twin: after every commit, a store that received the
// same commit log but never ran a search (same ids, generations, births and
// bucket order; empty memo) must return the same Match — or throw the same
// error — and leave the Rng in the same state as the long-lived store.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gammaflow/common/error.hpp"
#include "gammaflow/common/rng.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/gamma/store.hpp"
#include "gammaflow/obs/telemetry.hpp"
#include "gammaflow/runtime/batch_matcher.hpp"
#include "gammaflow/runtime/match_pipeline.hpp"

namespace gammaflow::runtime {
namespace {

using gamma::Element;
using gamma::Match;
using gamma::Multiset;
using gamma::Reaction;
using gamma::Store;

Multiset ints(std::int64_t from, std::int64_t to) {
  Multiset m;
  for (std::int64_t i = from; i <= to; ++i) m.add(Element{Value(i)});
  return m;
}

/// What one find left behind: the match (or the error text) and the next
/// draw of the Rng it consumed, which pins the Rng state.
struct FindOutcome {
  std::optional<Match> match;
  std::string error;
  std::uint64_t next_draw = 0;
};

FindOutcome find_on(Store& store, const Reaction& r, Rng& rng,
                    expr::EvalMode mode) {
  FindOutcome out;
  try {
    out.match = MatchPipeline::find(store, r, &rng, mode);
  } catch (const Error& e) {
    out.error = e.what();
  }
  Rng peek = rng;
  out.next_draw = peek();
  return out;
}

void expect_same(const FindOutcome& live, const FindOutcome& cold,
                 const std::string& where) {
  EXPECT_EQ(live.error, cold.error) << where;
  EXPECT_EQ(live.next_draw, cold.next_draw) << where << ": rng state differs";
  ASSERT_EQ(live.match.has_value(), cold.match.has_value()) << where;
  if (live.match) {
    EXPECT_EQ(live.match->ids, cold.match->ids) << where;
    EXPECT_EQ(live.match->produced, cold.match->produced) << where;
  }
}

struct TwinRun {
  std::uint64_t steps = 0;
  std::string error;  // non-empty when the run ended on a thrown error
};

/// Drives `program`'s first stage to its fixpoint (or `max_steps`): every
/// reaction in turn, fired while enabled, until a pass fires nothing. Each
/// find runs on the long-lived store AND on a memo-cold twin with a copy of
/// the Rng, and the two outcomes must agree. The twin is a fresh copy of a
/// commit-only mirror: the commit log replayed into a store on which no
/// search ever ran, so its memo is empty while its ids, generations,
/// births and bucket order equal the long-lived store's.
TwinRun run_with_twin(const gamma::Program& program, const Multiset& initial,
                      std::uint64_t seed, expr::EvalMode mode,
                      std::uint64_t max_steps, const std::string& label) {
  TwinRun out;
  Store live(initial);
  Store mirror(initial);
  Rng rng(seed);
  const auto& stage = program.stages().at(0);
  bool progressed = true;
  while (progressed && out.steps < max_steps) {
    progressed = false;
    for (const Reaction& r : stage) {
      while (out.steps < max_steps) {
        const std::string where =
            label + " step " + std::to_string(out.steps) + " " + r.name();
        Store cold = mirror;
        Rng cold_rng = rng;
        const FindOutcome c = find_on(cold, r, cold_rng, mode);
        const FindOutcome l = find_on(live, r, rng, mode);
        expect_same(l, c, where);
        if (::testing::Test::HasFailure()) return out;
        if (!l.error.empty()) {
          out.error = l.error;
          return out;
        }
        if (!l.match) break;
        MatchPipeline::commit(live, *l.match);
        MatchPipeline::commit(mirror, *l.match);
        ++out.steps;
        progressed = true;
      }
    }
  }
  return out;
}

/// Runs `fn` and returns how many innermost candidates refutation
/// watermarks skipped meanwhile (the process-wide tally's delta).
template <typename Fn>
std::uint64_t skips_during(Fn&& fn) {
  const std::uint64_t before = refuted_skips_total();
  fn();
  return refuted_skips_total() - before;
}

constexpr const char* kSieve =
    "Rsieve = replace x, y by [x] where (y % x == 0) and (x > 1)";

// --- memo-cold twin differential --------------------------------------------

TEST(MatchMemo, SieveIsStepIdenticalToAMemoColdTwin) {
  const gamma::Program p = gamma::dsl::parse_program(kSieve);
  for (const expr::EvalMode mode :
       {expr::EvalMode::Batch, expr::EvalMode::Scalar}) {
    TwinRun run;
    const std::uint64_t skips = skips_during([&] {
      run = run_with_twin(p, ints(2, 400), 7, mode, ~std::uint64_t{0},
                          std::string("sieve ") + expr::to_string(mode));
    });
    ASSERT_FALSE(::testing::Test::HasFailure());
    EXPECT_TRUE(run.error.empty()) << run.error;
    // 399 elements, 78 primes up to 400: every composite dissolves.
    EXPECT_EQ(run.steps, 399u - 78u);
    // Not vacuous: the watermarks did cut the scans.
    EXPECT_GT(skips, 0u) << expr::to_string(mode);
  }
}

/// A random guard over `vars` (all four ops families, so some guards
/// divide by zero and must throw identically on both stores).
std::string random_guard(Rng& rng, const std::vector<std::string>& vars,
                         int depth) {
  if (depth == 0 || rng.coin(0.35)) {
    if (rng.coin(0.6)) return vars[rng.bounded(vars.size())];
    return std::to_string(static_cast<std::int64_t>(rng.bounded(9)) - 3);
  }
  static constexpr const char* kOps[] = {"+", "-", "*", "/", "%", "<", "<=",
                                         ">", ">=", "==", "!=", "and", "or"};
  return "(" + random_guard(rng, vars, depth - 1) + " " +
         kOps[rng.bounded(13)] + " " + random_guard(rng, vars, depth - 1) +
         ")";
}

class MatchMemoCorpus : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatchMemoCorpus, GeneratedProgramsAreStepIdenticalToAMemoColdTwin) {
  // 4 generated (program, multiset) pairs per seed x 50 seeds = 200 cases.
  // Innermost buckets hold >= 64 entries so the memo gate opens; the
  // three-pattern template re-produces into its middle bucket, so newer
  // elements at depth 1 force full innermost scans too.
  struct Template {
    const char* src;
    std::vector<std::string> vars;
  };
  static const Template kTemplates[] = {
      {"R = replace x, y by x + y where %G", {"x", "y"}},
      {"R = replace [x,'a'], [y,'a'] by [x - y,'a'] where %G", {"x", "y"}},
      {"R = replace [x,'a'], [y,'b'] by [x,'done'] where %G", {"x", "y"}},
      {"R = replace [x,'a'], [y,'b'], [z,'c'] "
       "by [x,'a'], [y + 1,'b'], [z - x,'c'] where %G",
       {"x", "y", "z"}},
  };
  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    Rng rng(GetParam() * 104729 + trial);
    const std::size_t which = (GetParam() + trial) % 4;
    const Template& t = kTemplates[which];
    std::string src(t.src);
    src.replace(src.find("%G"), 2, random_guard(rng, t.vars, 3));
    gamma::Program p;
    try {
      p = gamma::dsl::parse_program(src);
    } catch (const Error&) {
      continue;  // a guard the DSL rejects (none expected) — skip
    }

    Multiset init;
    const auto value = [&] {
      return Value(static_cast<std::int64_t>(rng.bounded(40)) - 10);
    };
    const std::size_t n = 64 + rng.bounded(40);
    for (std::size_t i = 0; i < n; ++i) {
      switch (which) {
        case 0: init.add(Element{value()}); break;
        case 1: init.add(Element::labeled(value(), "a")); break;
        case 2:
          init.add(Element::labeled(value(), rng.coin(0.3) ? "a" : "b"));
          break;
        default: init.add(Element::labeled(value(), "c")); break;
      }
    }
    if (which == 2) {  // the innermost 'b' bucket must pass the gate
      for (std::size_t i = 0; i < BatchMatcher::kMinChunk; ++i) {
        init.add(Element::labeled(value(), "b"));
      }
    }
    if (which == 3) {
      for (int i = 0; i < 4; ++i) {
        init.add(Element::labeled(value(), "a"));
        init.add(Element::labeled(value(), "b"));
      }
    }
    const expr::EvalMode mode = trial % 2 == 0 ? expr::EvalMode::Batch
                                               : expr::EvalMode::Scalar;
    (void)run_with_twin(p, init, GetParam() + trial, mode, 48,
                        "seed " + std::to_string(GetParam()) + " trial " +
                            std::to_string(trial) + ": " + src);
    if (::testing::Test::HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchMemoCorpus,
                         ::testing::Range(std::uint64_t{1}, std::uint64_t{51}));

TEST(MatchMemo, ReusedSlotWithANewGenerationMissesTheMemo) {
  // Only (993, 7) is enabled once 993 exists, and only with 993 FIRST.
  const Reaction r = gamma::dsl::parse_reaction(
      "R = replace x, y by [x] where x - y == 986");
  Store store(ints(1, 70));  // value v lives at slot v - 1
  ASSERT_GE(store.size(), BatchMatcher::kMinChunk);
  // Exhaustive miss: records a watermark for every depth-0 candidate.
  const std::uint64_t skips = skips_during([&] {
    EXPECT_FALSE(MatchPipeline::find(store, r));
    EXPECT_FALSE(MatchPipeline::find(store, r));  // fully refuted now
  });
  EXPECT_GT(skips, 0u);

  // Slot 4 (value 5) dies and is reused by 993 with a new generation. A
  // memo keyed by slot alone would treat 993 as refuted and scan only the
  // partners born since — none — missing the match with the old 7.
  store.remove(4);
  ASSERT_EQ(store.insert(Element{Value(993)}), 4u);
  const auto m = MatchPipeline::find(store, r);
  ASSERT_TRUE(m);
  EXPECT_EQ(m->ids, (std::vector<Store::Id>{4, 6}));
  EXPECT_EQ(m->produced, (std::vector<Element>{Element{Value(993)}}));
}

TEST(MatchMemo, NewerMiddleElementReopensTheWholeInnermostBucket) {
  // x0 = [1,'a'] is refuted while only [2,'b'] exists. A newer [27,'b']
  // at depth 1 pairs with the OLD [72,'c'] — a tuple the watermark never
  // covered, so the innermost scan must not be cut to the newer suffix.
  const Reaction r = gamma::dsl::parse_reaction(
      "R = replace [x,'a'], [y,'b'], [z,'c'] by [x + y + z,'done'] "
      "where x + y + z == 100");
  Multiset init;
  init.add(Element::labeled(Value(1), "a"));
  init.add(Element::labeled(Value(2), "b"));
  for (std::int64_t z = 10; z < 10 + 64; ++z) {
    init.add(Element::labeled(Value(z), "c"));
  }
  Store store(init);
  EXPECT_FALSE(MatchPipeline::find(store, r));
  store.insert(Element::labeled(Value(27), "b"));
  const auto m = MatchPipeline::find(store, r);
  ASSERT_TRUE(m);
  EXPECT_EQ(m->produced, (std::vector<Element>{Element::labeled(
                             Value(100), "done")}));
}

TEST(MatchMemo, SuffixScanKeepsTheCyclicOrderOfTheFullScan) {
  // Every old candidate is refuted, then `newer` partners arrive that all
  // match it: the pick among them must be the full scan's first in cyclic
  // order from the drawn start — on the scalar (< kMinChunk) and on the
  // batch suffix path.
  const Reaction r = gamma::dsl::parse_reaction(
      "R = replace x, y by [x] where y - x > 500");
  for (const std::int64_t newer : {30, 80}) {
    for (const expr::EvalMode mode :
         {expr::EvalMode::Batch, expr::EvalMode::Scalar}) {
      for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        Store live(ints(1, 70));
        EXPECT_FALSE(MatchPipeline::find(live, r, nullptr, mode));
        Store cold(ints(1, 70));
        for (std::int64_t v = 600; v < 600 + newer; ++v) {
          live.insert(Element{Value(v)});
          cold.insert(Element{Value(v)});
        }
        Rng live_rng(seed);
        Rng cold_rng(seed);
        const std::string where = "newer " + std::to_string(newer) + " " +
                                  expr::to_string(mode) + " seed " +
                                  std::to_string(seed);
        const std::uint64_t skips = skips_during([&] {
          expect_same(find_on(live, r, live_rng, mode),
                      find_on(cold, r, cold_rng, mode), where);
        });
        EXPECT_GT(skips, 0u) << where;
      }
    }
  }
}

TEST(MatchMemo, RefutationsAreKeptPerReaction) {
  const Reaction never = gamma::dsl::parse_reaction(
      "N = replace x, y by [x] where x - y == 986");
  const Reaction succ = gamma::dsl::parse_reaction(
      "S = replace x, y by [x] where x - y == 1");
  EXPECT_NE(never.compiled().memo_key(), succ.compiled().memo_key());
  const Reaction copy = never;  // copies share the compiled code and key
  EXPECT_EQ(copy.compiled().memo_key(), never.compiled().memo_key());

  Store store(ints(1, 70));
  EXPECT_FALSE(MatchPipeline::find(store, never));
  EXPECT_TRUE(MatchPipeline::find(store, succ));
}

TEST(MatchMemo, ThrowingConditionSurfacesAtTheSameStepWithTheSameText) {
  // 49 is a multiple of 7 only, so the sieve must eventually test (7, 49)
  // and divide by x - 7 == 0 — at the same step, with the same message, on
  // the memoized store and on its memo-cold twin.
  const gamma::Program p = gamma::dsl::parse_program(
      "R = replace x, y by [x] "
      "where (y % x == 0) and (x > 1) and (y % (x - 7) == 0)");
  for (const expr::EvalMode mode :
       {expr::EvalMode::Batch, expr::EvalMode::Scalar}) {
    const TwinRun run = run_with_twin(p, ints(2, 120), 11, mode,
                                      ~std::uint64_t{0}, "throwing");
    ASSERT_FALSE(::testing::Test::HasFailure());
    EXPECT_NE(run.error.find("zero"), std::string::npos) << run.error;
    EXPECT_GT(run.steps, 0u);  // not the very first search
  }
}

// --- the gate and the const path -------------------------------------------

TEST(MatchMemo, SmallInnermostBucketsAndConstSearchesKeepNoMemo) {
  const Reaction r = gamma::dsl::parse_reaction(
      "R = replace x, y by [x] where x - y == 986");
  // Below kMinChunk innermost entries the memo is neither read nor kept.
  Store small(ints(1, static_cast<std::int64_t>(BatchMatcher::kMinChunk) - 1));
  EXPECT_EQ(skips_during([&] {
              EXPECT_FALSE(MatchPipeline::find(small, r));
              EXPECT_FALSE(MatchPipeline::find(small, r));
            }),
            0u);
  // The read-only find (shared-lock searchers) never consults the memo.
  Store big(ints(1, 70));
  EXPECT_FALSE(MatchPipeline::find(big, r));
  const Store& cbig = big;
  EXPECT_EQ(skips_during([&] { EXPECT_FALSE(MatchPipeline::find(cbig, r)); }),
            0u);
}

TEST(StoreBirths, PrunedBucketsAreSortedByBirth) {
  Store store;
  std::vector<Store::Id> ids;
  for (std::int64_t i = 0; i < 10; ++i) {
    ids.push_back(store.insert(Element{Value(i)}));
  }
  EXPECT_EQ(store.inserts(), 10u);
  store.remove(ids[3]);
  store.remove(ids[7]);
  const Store::Id reused = store.insert(Element{Value(100)});
  EXPECT_EQ(reused, ids[7]);  // LIFO slot reuse
  EXPECT_EQ(store.birth(reused), 11u);
  const Reaction r = gamma::dsl::parse_reaction("R = replace x by [x]");
  const gamma::Pattern& any = r.patterns()[0];
  const auto& bucket = store.candidates(any);  // mutating: prunes
  ASSERT_EQ(bucket.size(), 9u);
  for (std::size_t i = 1; i < bucket.size(); ++i) {
    EXPECT_LT(store.birth(bucket[i - 1].id), store.birth(bucket[i].id));
  }
  store.compact();  // keeps bucket order, and births with it
  const auto& after = store.candidates(any);
  for (std::size_t i = 1; i < after.size(); ++i) {
    EXPECT_LT(store.birth(after[i - 1].id), store.birth(after[i].id));
  }
}

// --- search-work counters ---------------------------------------------------

TEST(MatchMemo, TelemetryReportsProbesAndRefutedSkips) {
  const gamma::Program p = gamma::dsl::parse_program(kSieve);
  obs::Telemetry tel;
  gamma::RunOptions opts;
  opts.seed = 3;
  opts.telemetry = &tel;
  const auto res = gamma::IndexedEngine().run(p, ints(2, 300), opts);
  const auto& c = res.metrics.counters;
  ASSERT_TRUE(c.count("gamma.probes"));
  ASSERT_TRUE(c.count("gamma.refuted_skips"));
  EXPECT_GT(c.at("gamma.probes"), res.steps);
  EXPECT_GT(c.at("gamma.refuted_skips"), 0u);

  // Same schedule, same result without telemetry.
  gamma::RunOptions plain;
  plain.seed = 3;
  const auto res2 = gamma::IndexedEngine().run(p, ints(2, 300), plain);
  EXPECT_EQ(res.steps, res2.steps);
  EXPECT_EQ(res.final_multiset, res2.final_multiset);
}

}  // namespace
}  // namespace gammaflow::runtime
