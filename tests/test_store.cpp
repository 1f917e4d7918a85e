// Indexed store: slot lifecycle, candidate buckets, pruning, compaction,
// match finding and enumeration.
#include <gtest/gtest.h>

#include <deque>
#include <utility>

#include "gammaflow/common/rng.hpp"
#include "gammaflow/expr/parser.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/gamma/store.hpp"

namespace gammaflow::gamma {
namespace {

std::vector<expr::ExprPtr> tuple(std::initializer_list<const char*> fields) {
  std::vector<expr::ExprPtr> out;
  for (const char* f : fields) out.push_back(expr::parse_expression(f));
  return out;
}

TEST(Store, InsertRemoveLifecycle) {
  Store s;
  const auto id = s.insert(Element::tagged(Value(1), "A", 0));
  EXPECT_TRUE(s.alive(id));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.element(id), Element::tagged(Value(1), "A", 0));
  s.remove(id);
  EXPECT_FALSE(s.alive(id));
  EXPECT_EQ(s.size(), 0u);
  EXPECT_THROW(s.remove(id), EngineError);
}

TEST(Store, SlotReuseAfterRemove) {
  Store s;
  const auto id1 = s.insert(Element{Value(1)});
  s.remove(id1);
  const auto id2 = s.insert(Element{Value(2)});
  EXPECT_EQ(id1, id2);  // free-list reuse
  EXPECT_EQ(s.element(id2), Element{Value(2)});
}

TEST(Store, VersionAdvancesOnMutation) {
  Store s;
  const auto v0 = s.version();
  const auto id = s.insert(Element{Value(1)});
  EXPECT_GT(s.version(), v0);
  const auto v1 = s.version();
  s.remove(id);
  EXPECT_GT(s.version(), v1);
}

TEST(Store, CandidatesByLabelBucket) {
  Store s;
  s.insert(Element::tagged(Value(1), "A", 0));
  s.insert(Element::tagged(Value(2), "B", 0));
  s.insert(Element::tagged(Value(3), "A", 1));
  const Pattern pa = Pattern::tagged("x", "A", "v");
  EXPECT_EQ(s.candidates(pa).size(), 2u);
  const Pattern pz = Pattern::tagged("x", "Z", "v");
  EXPECT_TRUE(s.candidates(pz).empty());
}

TEST(Store, CandidatesByArityForUnconstrained) {
  Store s;
  s.insert(Element{Value(1)});
  s.insert(Element{Value(2)});
  s.insert(Element::labeled(Value(3), "A"));
  const Pattern p = Pattern::var("x");  // arity-1, no literal
  EXPECT_EQ(s.candidates(p).size(), 2u);
}

TEST(Store, CandidatesPruneDeadIds) {
  Store s;
  const auto id1 = s.insert(Element::tagged(Value(1), "A", 0));
  s.insert(Element::tagged(Value(2), "A", 0));
  s.remove(id1);
  const Pattern pa = Pattern::tagged("x", "A", "v");
  const auto& bucket = s.candidates(pa);  // prunes in place
  EXPECT_EQ(bucket.size(), 1u);
}

TEST(Store, ConstCandidatesDoNotPrune) {
  Store s;
  const auto id1 = s.insert(Element::tagged(Value(1), "A", 0));
  s.insert(Element::tagged(Value(2), "A", 0));
  s.remove(id1);
  const Store& cs = s;
  const Pattern pa = Pattern::tagged("x", "A", "v");
  EXPECT_EQ(cs.candidates(pa).size(), 2u);  // garbage retained
  s.compact();
  EXPECT_EQ(cs.candidates(pa).size(), 1u);
}

TEST(Store, BucketsStayBoundedUnderSlotReuse) {
  // Regression: slot reuse re-registers the same id in the index; without
  // generation stamps those entries all look alive and the label bucket
  // grows by one per rewrite, degrading matching to O(total firings).
  // (Observed: Fig. 2's reduced program at z=4000 took 54s instead of 0.2s.)
  Store s;
  for (int i = 0; i < 10000; ++i) {
    const auto id = s.insert(Element::tagged(Value(i), "L", 0));
    s.remove(id);
  }
  s.insert(Element::tagged(Value(-1), "L", 0));
  const Pattern p = Pattern::tagged("x", "L", "v");
  EXPECT_LE(s.candidates(p).size(), 2u);  // pruned to the single live entry
  EXPECT_EQ(s.size(), 1u);
}

TEST(Store, CountReadsLiveOccupantsOffTheIndex) {
  // count() agrees with the snapshot: duplicates count with multiplicity,
  // arity and every field must match, and a slot re-occupied by the same
  // element (its stale bucket entry still present, same id) counts once.
  Store s;
  const Element a = Element::tagged(Value(1), "A", 0);
  s.insert(a);
  s.insert(a);
  s.insert(Element::labeled(Value(1), "A"));
  s.insert(Element::tagged(Value(1), "B", 0));
  const auto id = s.insert(Element{Value(7)});
  s.remove(id);
  EXPECT_EQ(s.insert(Element{Value(7)}), id);  // same slot, new generation
  s.insert(Element{});
  for (const Element& e :
       {a, Element::labeled(Value(1), "A"), Element::tagged(Value(1), "B", 0),
        Element{Value(7)}, Element{}, Element::tagged(Value(2), "A", 0),
        Element{Value(8)}, Element{Value(7), Value(7)}}) {
    EXPECT_EQ(s.count(e), s.to_multiset().count(e)) << e.to_string();
  }
  EXPECT_EQ(s.count(a), 2u);
  EXPECT_EQ(s.count(Element{Value(7)}), 1u);
}

TEST(Store, ToMultisetRoundTrip) {
  const Multiset m{Element::tagged(Value(1), "A", 0),
                   Element::tagged(Value(1), "A", 0),
                   Element::tagged(Value(2), "B", 1)};
  const Store s(m);
  EXPECT_EQ(s.to_multiset(), m);
}

Reaction adder() {
  // replace [a,'L'], [b,'R'] by [a+b,'S']
  return Reaction("Add",
                  {Pattern::labeled("a", "L"), Pattern::labeled("b", "R")},
                  {Branch::unconditional({tuple({"a + b", "'S'"})})});
}

TEST(FindMatch, FindsEnabledPair) {
  Store s;
  s.insert(Element::labeled(Value(2), "L"));
  s.insert(Element::labeled(Value(3), "R"));
  const Reaction r = adder();
  const auto m = find_match(s, r);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->ids.size(), 2u);
  ASSERT_EQ(m->produced.size(), 1u);
  EXPECT_EQ(m->produced[0], Element::labeled(Value(5), "S"));
}

TEST(FindMatch, NoMatchWhenLabelMissing) {
  Store s;
  s.insert(Element::labeled(Value(2), "L"));
  EXPECT_FALSE(find_match(s, adder()).has_value());
}

TEST(FindMatch, ElementsMustBeDistinctInstances) {
  // min-style: replace x, y — one element cannot play both roles.
  Store s;
  s.insert(Element{Value(5)});
  const Reaction r("R", {Pattern::var("x"), Pattern::var("y")},
                   {Branch::unconditional({tuple({"x"})})});
  EXPECT_FALSE(find_match(s, r).has_value());
  s.insert(Element{Value(5)});  // a second equal instance IS allowed
  EXPECT_TRUE(find_match(s, r).has_value());
}

TEST(FindMatch, ConditionGatesMatch) {
  Store s;
  s.insert(Element{Value(9)});
  s.insert(Element{Value(2)});
  const Reaction r("Min", {Pattern::var("x"), Pattern::var("y")},
                   {Branch::when(expr::parse_expression("x < y"),
                                 {tuple({"x"})})});
  // Both orderings exist as candidate tuples; only (2,9) is enabled.
  const auto m = find_match(s, r);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->produced[0], Element{Value(2)});
}

TEST(FindMatch, CommitAppliesRewrite) {
  Store s;
  s.insert(Element::labeled(Value(2), "L"));
  s.insert(Element::labeled(Value(3), "R"));
  const Reaction r = adder();
  const auto m = find_match(s, r);
  ASSERT_TRUE(m.has_value());
  commit(s, *m);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.to_multiset(), (Multiset{Element::labeled(Value(5), "S")}));
  EXPECT_FALSE(find_match(s, r).has_value());
}

TEST(FindMatch, RandomizedIsFairAcrossPairs) {
  // Two independent L/R pairs; randomized probing should pick different
  // first matches across seeds.
  Store s;
  s.insert(Element::labeled(Value(1), "L"));
  s.insert(Element::labeled(Value(2), "L"));
  s.insert(Element::labeled(Value(10), "R"));
  const Reaction r = adder();
  std::set<Value> first_values;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    Rng rng(seed);
    const auto m = find_match(s, r, &rng);
    ASSERT_TRUE(m.has_value());
    first_values.insert(m->produced[0].value());
  }
  EXPECT_EQ(first_values.size(), 2u);  // both 11 and 12 observed
}

TEST(EnumerateMatches, CountsOrderedTuples) {
  Store s;
  for (int i = 0; i < 4; ++i) s.insert(Element{Value(i)});
  const Reaction any2("R", {Pattern::var("x"), Pattern::var("y")},
                      {Branch::unconditional({tuple({"x"})})});
  std::size_t count =
      enumerate_matches(s, any2, 1000, [](const Match&) { return true; });
  EXPECT_EQ(count, 12u);  // 4 * 3 ordered pairs
}

TEST(EnumerateMatches, HonorsLimitAndEarlyStop) {
  Store s;
  for (int i = 0; i < 10; ++i) s.insert(Element{Value(i)});
  const Reaction any2("R", {Pattern::var("x"), Pattern::var("y")},
                      {Branch::unconditional({tuple({"x"})})});
  EXPECT_EQ(enumerate_matches(s, any2, 7, [](const Match&) { return true; }),
            7u);
  std::size_t seen = 0;
  enumerate_matches(s, any2, 1000, [&](const Match&) {
    return ++seen < 3;  // stop after 3
  });
  EXPECT_EQ(seen, 3u);
}

TEST(Store, DeadRowDebtAccruesOnRemoveAndCompactSettlesIt) {
  Store s;
  std::vector<Store::Id> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(s.insert(Element{Value(i)}));
  for (std::size_t i = 0; i < 4; ++i) s.remove(ids[i]);

  // The debt is exact: one dead row per removal, counted at remove() time.
  EXPECT_EQ(s.dead_rows(), 4u);
  EXPECT_FALSE(s.needs_compact());

  // The read-only lookup leaves stale entries in place for searchers to
  // skip via the generation stamp.
  const Store& cs = s;
  const Store::Bucket* b = cs.bucket(Pattern::var("x"));
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->entries.size(), 8u);
  std::uint64_t skips = 0;
  for (const auto& entry : b->entries) {
    if (!cs.live(entry)) ++skips;
  }
  EXPECT_EQ(skips, 4u);

  const auto compactions_before = s.column_compactions();
  s.compact();
  EXPECT_EQ(s.dead_rows(), 0u);
  EXPECT_GT(s.column_compactions(), compactions_before);
  const Store::Bucket* after = cs.bucket(Pattern::var("x"));
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->entries.size(), 4u);
  // Survivors keep their identity and content across the row rewrite.
  for (std::size_t i = 4; i < 8; ++i) {
    EXPECT_TRUE(s.alive(ids[i]));
    EXPECT_EQ(s.element(ids[i]), Element{Value(static_cast<int>(i))});
  }
}

TEST(Store, NeedsCompactTripsAtTheDeadRowThreshold) {
  Store s;
  std::vector<Store::Id> ids;
  for (std::uint64_t i = 0; i < Store::kGarbageCompactThreshold; ++i) {
    ids.push_back(s.insert(Element{Value(static_cast<std::int64_t>(i))}));
  }
  for (std::size_t i = 0; i + 1 < ids.size(); ++i) s.remove(ids[i]);
  EXPECT_FALSE(s.needs_compact());
  s.remove(ids.back());
  EXPECT_TRUE(s.needs_compact());

  // The next insert self-triggers collection, so paths that never check
  // needs_compact() (the worklist drain) still stay O(live).
  s.insert(Element{Value(-1)});
  EXPECT_EQ(s.dead_rows(), 0u);
  EXPECT_FALSE(s.needs_compact());
  EXPECT_GT(s.column_compactions(), 0u);
}

TEST(Store, SpillSidecarRoundTripsNonIntFields) {
  // Every non-Int kind goes through the tag/spill sidecar; materialization
  // must reproduce the exact Value (kind and payload), before and after the
  // columns are rewritten.
  Store s;
  const Element mixed{Value(7), Value("label"), Value(2.5), Value(true),
                      Value()};
  const auto id = s.insert(mixed);
  const auto dead = s.insert(Element{Value(1), Value("x"), Value(0.0),
                                     Value(false), Value()});
  EXPECT_EQ(s.element(id), mixed);
  s.remove(dead);
  s.compact();
  EXPECT_TRUE(s.alive(id));
  EXPECT_EQ(s.element(id), mixed);
  EXPECT_EQ(s.to_multiset(), Multiset{mixed});
}

TEST(Store, LivenessBitmapTracksRows) {
  Store s;
  std::vector<Store::Id> ids;
  for (int i = 0; i < 130; ++i) {  // spans three 64-bit bitmap words
    ids.push_back(s.insert(Element::labeled(Value(i), "L")));
  }
  for (int i = 0; i < 130; i += 2) s.remove(ids[static_cast<std::size_t>(i)]);
  for (int i = 0; i < 130; ++i) {
    const Store::RowRef ref = s.row(ids[static_cast<std::size_t>(i)]);
    ASSERT_NE(ref.group, nullptr);
    EXPECT_EQ(ref.group->row_live(ref.row), i % 2 == 1) << i;
  }
  EXPECT_EQ(s.dead_rows(), 65u);
}

TEST(Store, MatchPatternAgreesWithElementMatch) {
  Store s;
  const auto id = s.insert(Element::tagged(Value(41), "A", 3));
  const Pattern hit = Pattern::tagged("x", "A", "v");
  const Pattern missLabel = Pattern::tagged("x", "B", "v");
  const Pattern missArity = Pattern::labeled("x", "A");
  for (const Pattern* p : {&hit, &missLabel, &missArity}) {
    expr::Env direct;
    expr::Env viaColumns;
    EXPECT_EQ(p->match(s.element(id), direct),
              s.match_pattern(*p, id, viaColumns));
  }
  expr::Env env;
  ASSERT_TRUE(s.match_pattern(hit, id, env));
  EXPECT_EQ(*env.find("x"), Value(41));
  EXPECT_EQ(*env.find("v"), Value(3));
}

TEST(Store, IndexKeysStayBoundedByLiveAndDeadRowsUnderChurn) {
  // Algorithm 1 mints a fresh value and tag per firing. A store that kept
  // one (field,value) bucket for every value it ever indexed would hold
  // ~200k keys here and walk all of them on every compaction; compaction
  // erases emptied buckets, so the index tracks live + not-yet-compacted
  // rows instead.
  constexpr std::size_t kArity = 3;
  Store s;
  Multiset oracle;
  std::deque<std::pair<Store::Id, Element>> window;
  for (std::int64_t i = 0; i < 100000; ++i) {
    Element e = Element::tagged(Value(i), "x", i);
    window.emplace_back(s.insert(e), e);
    oracle.add(e);
    if (window.size() > 8) {
      s.remove(window.front().first);
      ASSERT_TRUE(oracle.remove_one(window.front().second));
      window.pop_front();
    }
    // +1: the one arity bucket.
    ASSERT_LE(s.index_buckets(), kArity * (s.size() + s.dead_rows()) + 1)
        << "after insert " << i;
  }
  EXPECT_GT(s.column_compactions(), 0u);
  EXPECT_EQ(s.size(), 8u);
  EXPECT_EQ(s.to_multiset(), oracle);
  s.compact();
  // (1,'x') + the arity bucket + one key per fresh value and per fresh tag.
  EXPECT_EQ(s.index_buckets(), 2u + 2u * s.size());
}

TEST(Store, CompactionPointsAreUnobservableToMatching) {
  // Twin stores fed the same commit log: `churned` compacts only when its
  // own dead-row debt triggers it, `forced` also at pseudo-random points.
  // Compaction (pruning, erasing emptied buckets, rewriting rows) must
  // change no search: every find returns the same Match and leaves the rng
  // in the same state, under both evaluators. 80 live elements keep the
  // innermost bucket above the batch/memo threshold.
  const Program program = dsl::parse_program(
      "R = replace [x,'x',t], [y,'x',u] "
      "by [y,'x',t + 1], [(x + y) % 1009,'x',u + 1] where (x + y) % 7 != 0");
  const Reaction& r = program.stages()[0][0];
  for (const expr::EvalMode mode :
       {expr::EvalMode::Scalar, expr::EvalMode::Batch}) {
    Store churned;
    Store forced;
    for (std::int64_t i = 0; i < 80; ++i) {
      churned.insert(Element::tagged(Value(i * 13 % 1009), "x", i));
      forced.insert(Element::tagged(Value(i * 13 % 1009), "x", i));
    }
    Rng rng_churned(2024);
    Rng rng_forced(2024);
    Rng when(99);
    std::size_t steps = 0;
    for (; steps < 10000; ++steps) {
      const auto a = find_match(churned, r, &rng_churned, mode);
      const auto b = find_match(forced, r, &rng_forced, mode);
      ASSERT_EQ(a.has_value(), b.has_value()) << "step " << steps;
      Rng next_churned = rng_churned;
      Rng next_forced = rng_forced;
      ASSERT_EQ(next_churned(), next_forced()) << "step " << steps;
      if (!a) break;
      ASSERT_EQ(a->ids, b->ids) << "step " << steps;
      ASSERT_EQ(a->produced, b->produced) << "step " << steps;
      commit(churned, *a);
      commit(forced, *b);
      if (when.coin(0.1)) forced.compact();
    }
    EXPECT_GT(steps, 1000u);
    EXPECT_GT(churned.column_compactions(), 0u);
    EXPECT_GT(forced.column_compactions(), churned.column_compactions());
    EXPECT_EQ(churned.to_multiset(), forced.to_multiset());
  }
}

TEST(EnumerateMatches, OnlyEnabledMatchesVisited) {
  Store s;
  s.insert(Element{Value(5)});
  s.insert(Element{Value(5)});
  const Reaction strict("R", {Pattern::var("x"), Pattern::var("y")},
                        {Branch::when(expr::parse_expression("x < y"), {})});
  EXPECT_EQ(
      enumerate_matches(s, strict, 100, [](const Match&) { return true; }),
      0u);
}

}  // namespace
}  // namespace gammaflow::gamma
