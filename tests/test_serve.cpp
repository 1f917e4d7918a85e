// Streaming-mode tests (DESIGN §14): the worklist-driven incremental
// fixpoint must be byte-identical to a batch run over the union of its
// injections — checked on a 200-seed randomized injection corpus against
// all three in-process engines and the full-rescan worklist baseline —
// and the serve protocol's verbs and error replies must match the spec.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gammaflow/analysis/interference.hpp"
#include "gammaflow/common/error.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/obs/run_recorder.hpp"
#include "gammaflow/runtime/step_loop.hpp"
#include "gammaflow/runtime/worklist.hpp"
#include "gammaflow/serve/server.hpp"
#include "gammaflow/serve/session.hpp"
#include "gammaflow/serve/wire.hpp"

namespace gammaflow {
namespace {

using runtime::IncrementalFixpoint;
using runtime::WorklistOptions;

// Confluent programs: a unique fixpoint is what turns "incremental reaches
// SOME fixpoint" into "incremental reaches THE batch fixpoint".
const char* kMin = "Rmin = replace x, y by x where x < y";
const char* kLabeled =
    "Rsum = replace [a, 'A'], [b, 'A'] by [a + b, 'A']\n"
    "Rmax = replace [x, 'B'], [y, 'B'] by [x, 'B'] where x >= y";

std::string render(const gamma::Multiset& m) {
  std::ostringstream os;
  os << m;
  return os.str();
}

gamma::Element bare(std::int64_t v) { return gamma::Element({Value(v)}); }

gamma::Element labeled(std::int64_t v, const char* label) {
  return gamma::Element({Value(v), Value(label)});
}

/// A randomized injection schedule: 3..18 elements split into 1..5 batches
/// (some possibly empty — an empty inject must be a no-op).
std::vector<std::vector<gamma::Element>> random_schedule(std::mt19937_64& rng,
                                                         bool with_labels) {
  const std::size_t total = 3 + rng() % 16;
  const std::size_t batches = 1 + rng() % 5;
  std::vector<std::vector<gamma::Element>> schedule(batches);
  for (std::size_t i = 0; i < total; ++i) {
    const auto v = static_cast<std::int64_t>(rng() % 50);
    gamma::Element e =
        with_labels ? labeled(v, (rng() % 2 == 0) ? "A" : "B") : bare(v);
    schedule[rng() % batches].push_back(std::move(e));
  }
  return schedule;
}

/// One corpus entry: run the schedule through the footprint worklist and
/// the rescan baseline, then the union through every batch engine; all
/// five final stores must render byte-identically.
void check_differential(const gamma::Program& program, std::uint64_t seed,
                        bool with_labels) {
  std::mt19937_64 rng(seed);
  const auto schedule = random_schedule(rng, with_labels);

  WorklistOptions wopts;
  wopts.seed = seed;
  IncrementalFixpoint fix(program, analysis::wakeup_keys(program), wopts);
  WorklistOptions ropts = wopts;
  ropts.rescan = true;
  IncrementalFixpoint rescan(program, analysis::wakeup_keys(program), ropts);

  gamma::Multiset all;
  for (const auto& batch : schedule) {
    ASSERT_EQ(fix.inject(batch), Outcome::Completed) << "seed " << seed;
    ASSERT_EQ(rescan.inject(batch), Outcome::Completed) << "seed " << seed;
    for (const gamma::Element& e : batch) all.add(e);
  }

  const std::string incremental = render(fix.snapshot());
  EXPECT_EQ(render(rescan.snapshot()), incremental) << "seed " << seed;

  gamma::RunOptions bopts;
  bopts.seed = seed;
  const gamma::SequentialEngine seq;
  const gamma::IndexedEngine idx;
  const gamma::ParallelEngine par;
  for (const gamma::Engine* engine :
       {static_cast<const gamma::Engine*>(&seq),
        static_cast<const gamma::Engine*>(&idx),
        static_cast<const gamma::Engine*>(&par)}) {
    const auto batch = engine->run(program, all, bopts);
    EXPECT_EQ(render(batch.final_multiset), incremental)
        << "seed " << seed << " engine " << engine->name();
  }
}

// --------------------------------------------- differential corpus (200) ---

TEST(ServeDifferential, MinCorpusMatchesBatchOn100Seeds) {
  const gamma::Program program = gamma::dsl::parse_program(kMin);
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    check_differential(program, seed, /*with_labels=*/false);
  }
}

TEST(ServeDifferential, LabeledCorpusMatchesBatchOn100Seeds) {
  const gamma::Program program = gamma::dsl::parse_program(kLabeled);
  for (std::uint64_t seed = 101; seed <= 200; ++seed) {
    check_differential(program, seed, /*with_labels=*/true);
  }
}

// ------------------------------------------------------ worklist internals ---

TEST(Worklist, WakeupKeysMirrorInterferenceFootprints) {
  const auto keys =
      analysis::wakeup_keys(gamma::dsl::parse_program(kLabeled));
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_FALSE(keys[0].any);
  EXPECT_EQ(keys[0].labels, (std::set<std::string>{"A"}));
  EXPECT_FALSE(keys[1].any);
  EXPECT_EQ(keys[1].labels, (std::set<std::string>{"B"}));

  // Single-field patterns key on arity: Rmin consumes bare scalars, so
  // only arity-1 insertions can enable it.
  const auto min_keys = analysis::wakeup_keys(gamma::dsl::parse_program(kMin));
  ASSERT_EQ(min_keys.size(), 1u);
  EXPECT_FALSE(min_keys[0].any);
  EXPECT_EQ(min_keys[0].arities, (std::set<std::size_t>{1}));

  // An unbounded binder in the label slot must fall back to wake-always —
  // anything less would break the "enabled => dirty" invariant.
  const auto any_keys = analysis::wakeup_keys(gamma::dsl::parse_program(
      "Rany = replace [v, t], [w, t] by [v + w, t]"));
  ASSERT_EQ(any_keys.size(), 1u);
  EXPECT_TRUE(any_keys[0].any);
}

TEST(Worklist, FootprintWakeupsAreSparserThanRescan) {
  const gamma::Program program = gamma::dsl::parse_program(kLabeled);
  WorklistOptions wopts;
  IncrementalFixpoint fix(program, analysis::wakeup_keys(program), wopts);
  WorklistOptions ropts;
  ropts.rescan = true;
  IncrementalFixpoint rescan(program, analysis::wakeup_keys(program), ropts);

  // Seed both populations, then stream 'B'-only traffic: the footprint
  // index must never re-probe Rsum while rescan probes both every time.
  const std::vector<gamma::Element> seed_batch = {
      labeled(1, "A"), labeled(2, "A"), labeled(5, "B"), labeled(3, "B")};
  ASSERT_EQ(fix.inject(seed_batch), Outcome::Completed);
  ASSERT_EQ(rescan.inject(seed_batch), Outcome::Completed);
  for (std::int64_t v = 0; v < 20; ++v) {
    const std::vector<gamma::Element> one = {labeled(v, "B")};
    ASSERT_EQ(fix.inject(one), Outcome::Completed);
    ASSERT_EQ(rescan.inject(one), Outcome::Completed);
  }

  EXPECT_EQ(render(fix.snapshot()), render(rescan.snapshot()));
  EXPECT_LT(fix.stats().wakeups, rescan.stats().wakeups);
  EXPECT_LT(fix.stats().rematches, rescan.stats().rematches);
}

TEST(Worklist, EmptyInjectIsANoOpAtFixpoint) {
  const gamma::Program program = gamma::dsl::parse_program(kMin);
  WorklistOptions wopts;
  IncrementalFixpoint fix(program, analysis::wakeup_keys(program), wopts);
  const std::vector<gamma::Element> three = {bare(4), bare(2), bare(9)};
  ASSERT_EQ(fix.inject(three), Outcome::Completed);
  const std::uint64_t fires = fix.stats().fires;
  EXPECT_EQ(fix.inject(std::vector<gamma::Element>{}), Outcome::Completed);
  EXPECT_EQ(fix.stats().fires, fires);
  EXPECT_EQ(fix.last_fires(), 0u);
  EXPECT_EQ(render(fix.snapshot()), "{[2]}");
}

TEST(Worklist, MultiStageProgramIsRejected) {
  const gamma::Program two = gamma::dsl::parse_program(
      "R1 = replace x, y by x where x < y ;\n"
      "R2 = replace x, y by x where x > y");
  ASSERT_EQ(two.stage_count(), 2u);
  WorklistOptions wopts;
  EXPECT_THROW(IncrementalFixpoint(two, analysis::wakeup_keys(two), wopts),
               EngineError);
}

TEST(Worklist, BudgetExhaustionResumesToTheSameFixpoint) {
  // A budget-starved drain must stop in a valid intermediate state and,
  // once the budget allows, resume to the exact batch fixpoint.
  const gamma::Program program = gamma::dsl::parse_program(kMin);
  WorklistOptions tight;
  tight.max_steps = 2;
  tight.limit_policy = LimitPolicy::Partial;
  IncrementalFixpoint fix(program, analysis::wakeup_keys(program), tight);
  const std::vector<gamma::Element> batch = {bare(9), bare(4), bare(7),
                                             bare(2), bare(8), bare(5)};
  EXPECT_EQ(fix.inject(batch), Outcome::BudgetExhausted);
  EXPECT_EQ(fix.stats().fires, 2u);

  WorklistOptions roomy;
  IncrementalFixpoint fresh(program, analysis::wakeup_keys(program), roomy);
  ASSERT_EQ(fresh.inject(batch), Outcome::Completed);
  EXPECT_EQ(render(fresh.snapshot()), "{[2]}");
}

// ------------------------------------------------------------- protocol ---

serve::Json call(serve::Server& server, const std::string& line) {
  return serve::parse_json(server.handle_line(line));
}

serve::ServeOptions min_daemon() {
  serve::ServeOptions opts;
  opts.default_program = kMin;
  return opts;
}

std::string error_code(const serve::Json& reply) {
  EXPECT_FALSE(reply.bool_or("ok", true));
  return reply.str_or("error", "");
}

TEST(ServeProtocol, PingAndVerbValidation) {
  serve::Server server(min_daemon());
  const serve::Json pong = call(server, R"({"verb":"ping"})");
  EXPECT_TRUE(pong.bool_or("ok", false));
  EXPECT_TRUE(pong.bool_or("pong", false));

  EXPECT_EQ(error_code(call(server, R"({"verb":"bogus"})")), "unknown_verb");
  EXPECT_EQ(error_code(call(server, R"({"no_verb":1})")), "bad_request");
  EXPECT_EQ(error_code(call(server, R"({"verb":7})")), "bad_request");
  EXPECT_EQ(error_code(call(server, "not json at all")), "bad_request");
  EXPECT_EQ(error_code(call(server, R"({"verb":"ping")")), "bad_request");
  EXPECT_EQ(error_code(call(server, R"([1,2,3])")), "bad_request");
}

TEST(ServeProtocol, CreateInjectQuerySnapshotCloseLifecycle) {
  serve::Server server(min_daemon());
  const serve::Json created =
      call(server, R"({"verb":"create","init":"5 3 9"})");
  ASSERT_TRUE(created.bool_or("ok", false));
  const std::string id = created.str_or("session", "");
  EXPECT_EQ(id, "s1");
  EXPECT_EQ(created.str_or("outcome", ""), "completed");
  EXPECT_EQ(created.int_or("fires", -1), 2);
  EXPECT_EQ(created.int_or("store_size", -1), 1);
  EXPECT_EQ(server.session_count(), 1u);

  const serve::Json injected = call(
      server, R"({"verb":"inject","session":"s1","elements":"1 7"})");
  ASSERT_TRUE(injected.bool_or("ok", false));
  EXPECT_EQ(injected.int_or("fires", -1), 2);
  EXPECT_EQ(injected.int_or("fires_total", -1), 4);
  EXPECT_EQ(injected.int_or("store_size", -1), 1);

  const serve::Json by_element = call(
      server, R"({"verb":"query","session":"s1","element":"[1]"})");
  EXPECT_EQ(by_element.int_or("count", -1), 1);
  const serve::Json by_size = call(server, R"({"verb":"query","session":"s1"})");
  EXPECT_EQ(by_size.int_or("store_size", -1), 1);

  const serve::Json snap = call(server, R"({"verb":"snapshot","session":"s1"})");
  ASSERT_TRUE(snap.bool_or("ok", false));
  const serve::Json* store = snap.get("store");
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->int_or("[1]", -1), 1);
  EXPECT_EQ(snap.int_or("store_size", -1), 1);

  const serve::Json stats = call(server, R"({"verb":"stats","session":"s1"})");
  EXPECT_EQ(stats.int_or("injected", -1), 5);
  EXPECT_EQ(stats.int_or("injects", -1), 2);
  EXPECT_EQ(stats.int_or("fires", -1), 4);
  EXPECT_GE(stats.int_or("wakeups", -1), 1);
  EXPECT_GE(stats.num_or("quiesce_p99_us", -1.0), 0.0);

  const serve::Json closed = call(server, R"({"verb":"close","session":"s1"})");
  ASSERT_TRUE(closed.bool_or("ok", false));
  EXPECT_EQ(closed.int_or("fires_total", -1), 4);
  EXPECT_EQ(server.session_count(), 0u);
  EXPECT_EQ(error_code(call(
                server, R"({"verb":"inject","session":"s1","elements":"1"})")),
            "unknown_session");
}

TEST(ServeProtocol, LabelQueriesCountStringField1) {
  serve::ServeOptions opts;
  opts.default_program = kLabeled;
  serve::Server server(opts);
  ASSERT_TRUE(
      call(server,
           R"({"verb":"create","session":"lab","init":"[1,'A'] [2,'A'] [9,'B']"})")
          .bool_or("ok", false));
  EXPECT_EQ(call(server, R"({"verb":"query","session":"lab","label":"A"})")
                .int_or("count", -1),
            1);  // Rsum folded both A's into [3,'A']
  EXPECT_EQ(call(server, R"({"verb":"query","session":"lab","label":"B"})")
                .int_or("count", -1),
            1);
  EXPECT_EQ(call(server, R"({"verb":"query","session":"lab","label":"Z"})")
                .int_or("count", -1),
            0);
  EXPECT_EQ(call(server,
                 R"({"verb":"query","session":"lab","element":"[3,'A']"})")
                .int_or("count", -1),
            1);
}

// The e2ebench serve-join program: keys open, a matching close retires them,
// and the retired keys fold into one sum.
const char* kJoin =
    "Rclose = replace [k,'open'], [j,'close'] by [k,'done'] if k == j\n"
    "Rsum = replace [a,'done'], [b,'done'] by [a + b, 'done']";

serve::ServeOptions join_daemon() {
  serve::ServeOptions opts;
  opts.default_program = kJoin;
  return opts;
}

TEST(ServeProtocol, LabelQueriesCountOnlyLiveField1Matches) {
  // The count comes off the store's (field 1, label) index bucket: consumed
  // elements linger there as stale entries until compaction, and the label
  // string in any other field must not count.
  serve::Server server(join_daemon());
  ASSERT_TRUE(call(server,
                   R"({"verb":"create","session":"j","init":)"
                   R"("[1,'open'] [2,'open'] [3,'open'] ['open','x'] [5,'open',7]"})")
                  .bool_or("ok", false));
  ASSERT_TRUE(call(server,
                   R"({"verb":"inject","session":"j","elements":"[1,'close'] [2,'close']"})")
                  .bool_or("ok", false));
  const auto count = [&](const char* label) {
    return call(server, std::string(R"({"verb":"query","session":"j","label":")") +
                            label + R"("})")
        .int_or("count", -1);
  };
  EXPECT_EQ(count("open"), 2);  // [3,'open'] and the arity-3 [5,'open',7]
  EXPECT_EQ(count("done"), 1);  // [1,'done'] + [2,'done'] folded to [3,'done']
  EXPECT_EQ(count("close"), 0);
  EXPECT_EQ(count("x"), 1);
  EXPECT_EQ(count("nope"), 0);
}

TEST(ServeProtocol, ElementQueriesCountLiveDuplicatesOffTheIndex) {
  // The count comes off the store's index, not a snapshot: duplicates
  // count with multiplicity, a consumed element (a dead row until
  // compaction) does not, and neither does an element of another arity
  // sharing its fields.
  serve::Server server(join_daemon());
  ASSERT_TRUE(call(server,
                   R"({"verb":"create","session":"e","init":)"
                   R"("[1,'open'] [1,'open'] [2,'open'] [7,'x'] [7,'x'] [7,'x',1]"})")
                  .bool_or("ok", false));
  ASSERT_TRUE(call(server,
                   R"({"verb":"inject","session":"e","elements":"[1,'close']"})")
                  .bool_or("ok", false));
  const auto count = [&](const char* element) {
    return call(server, std::string(R"({"verb":"query","session":"e","element":")") +
                            element + R"("})")
        .int_or("count", -1);
  };
  EXPECT_EQ(count("[1,'open']"), 1);   // one of the two was consumed
  EXPECT_EQ(count("[1,'close']"), 0);  // consumed: a dead row only
  EXPECT_EQ(count("[1,'done']"), 1);
  EXPECT_EQ(count("[2,'open']"), 1);
  EXPECT_EQ(count("[7,'x']"), 2);      // duplicates, arity 3 excluded
  EXPECT_EQ(count("[7,'x',1]"), 1);
  EXPECT_EQ(count("[9,'open']"), 0);   // absent value
  EXPECT_EQ(count("[1,'nope']"), 0);   // absent label
  EXPECT_EQ(count("[7]"), 0);          // absent arity
}

TEST(ServeProtocol, InlineJournalIsTheJournalWrittenToAFile) {
  // `close` writes the journal text straight into its reply. The inline
  // journal must parse to the same Journal as the file a --record-out
  // daemon writes for the same session.
  const auto run = [](serve::ServeOptions opts) {
    serve::Server server(std::move(opts));
    EXPECT_TRUE(call(server,
                     R"({"verb":"create","session":"f","record":true,)"
                     R"("init":"[1,'open'] [2,'open'] [3,'open']"})")
                    .bool_or("ok", false));
    EXPECT_TRUE(
        call(server,
             R"({"verb":"inject","session":"f","elements":"[1,'close'] [2,'close']"})")
            .bool_or("ok", false));
    return server.handle_line(R"({"verb":"close","session":"f"})");
  };
  const std::string reply = run(join_daemon());
  const serve::Json closed = serve::parse_json(reply);
  ASSERT_TRUE(closed.bool_or("ok", false));
  EXPECT_EQ(closed.str_or("session", ""), "f");
  EXPECT_EQ(reply.find('\n'), std::string::npos);  // still one line
  const serve::Json* journal = closed.get("journal");
  ASSERT_NE(journal, nullptr);
  const obs::Journal inline_journal =
      obs::parse_journal_string(journal->to_string());

  serve::ServeOptions to_file = join_daemon();
  to_file.record_out = ::testing::TempDir() + "gf_inline_journal.json";
  const serve::Json written = serve::parse_json(run(to_file));
  const std::string path = written.str_or("journal_path", "");
  ASSERT_FALSE(path.empty());
  std::ifstream in(path);
  const obs::Journal file_journal = obs::parse_journal(in);
  std::remove(path.c_str());

  EXPECT_EQ(obs::journal_to_string(inline_journal),
            obs::journal_to_string(file_journal));
  EXPECT_EQ(obs::verify_journal(inline_journal), "");
}

TEST(ServeProtocol, RecordedJoinJournalReplaysInjectedSurvivors) {
  // Injected elements that survive to the final store ([3,'open'],
  // [4,'open']) were produced by no reaction; each inject is journaled as
  // an `inject` fire, so replaying the fires from the empty initial store
  // still reaches `final`. (On the min program every survivor is a fire
  // product, which is why CloseReturnsSessionTaggedJournalInline cannot
  // see this.)
  serve::Server server(join_daemon());
  ASSERT_TRUE(call(server,
                   R"({"verb":"create","session":"rj","record":true,)"
                   R"("init":"[1,'open'] [2,'open'] [3,'open']"})")
                  .bool_or("ok", false));
  ASSERT_TRUE(call(server,
                   R"({"verb":"inject","session":"rj","elements":"[1,'close'] [4,'open']"})")
                  .bool_or("ok", false));
  ASSERT_TRUE(call(server,
                   R"({"verb":"inject","session":"rj","elements":"[2,'close']"})")
                  .bool_or("ok", false));
  const serve::Json closed = call(server, R"({"verb":"close","session":"rj"})");
  ASSERT_TRUE(closed.bool_or("ok", false));
  const serve::Json* journal = closed.get("journal");
  ASSERT_NE(journal, nullptr);
  const obs::Journal parsed = obs::parse_journal_string(journal->to_string());

  EXPECT_EQ(obs::verify_journal(parsed), "");
  EXPECT_EQ(parsed.fires_dropped, 0u);
  const auto key = [](std::int64_t v, const char* label) {
    return labeled(v, label).to_string();
  };
  const obs::StoreCounts want{
      {key(3, "done"), 1}, {key(3, "open"), 1}, {key(4, "open"), 1}};
  EXPECT_EQ(parsed.final_store, want);
  EXPECT_EQ(obs::replay_fires(parsed, parsed.fires.size()), want);

  std::size_t inject_fires = 0;
  for (const obs::FireRecord& f : parsed.fires) {
    if (f.reaction != "inject") continue;
    ++inject_fires;
    EXPECT_TRUE(f.consumed.empty());
  }
  EXPECT_EQ(inject_fires, 3u);  // create's init plus the two injects
}

TEST(ServeProtocol, SessionErrorsMatchTheSpec) {
  serve::Server server(min_daemon());
  ASSERT_TRUE(call(server, R"({"verb":"create","session":"dup"})")
                  .bool_or("ok", false));
  EXPECT_EQ(error_code(call(server, R"({"verb":"create","session":"dup"})")),
            "duplicate_session");
  for (const char* verb : {"inject", "query", "snapshot", "stats", "close"}) {
    const std::string line = std::string(R"({"verb":")") + verb +
                             R"(","session":"ghost","elements":"1"})";
    EXPECT_EQ(error_code(call(server, line)), "unknown_session") << verb;
  }
}

TEST(ServeProtocol, BadProgramAndBadElements) {
  serve::Server server(min_daemon());
  EXPECT_EQ(error_code(call(
                server, R"({"verb":"create","program":"this is not gamma"})")),
            "bad_program");
  EXPECT_EQ(
      error_code(call(
          server,
          R"({"verb":"create","program":"R1 = replace x, y by x where x < y ; R2 = replace x, y by x where x > y"})")),
      "multi_stage_unsupported");
  EXPECT_EQ(error_code(call(server, R"({"verb":"create","init":"[[["})")),
            "bad_elements");

  ASSERT_TRUE(call(server, R"({"verb":"create","session":"ok"})")
                  .bool_or("ok", false));
  EXPECT_EQ(error_code(call(
                server,
                R"({"verb":"inject","session":"ok","elements":"[x]"})")),
            "bad_elements");
  EXPECT_EQ(error_code(call(
                server,
                R"({"verb":"query","session":"ok","element":"1 2"})")),
            "bad_elements");

  serve::ServeOptions no_default;
  serve::Server bare_server(no_default);
  EXPECT_EQ(error_code(call(bare_server, R"({"verb":"create"})")),
            "bad_program");
}

TEST(ServeProtocol, HostileNestingGetsAnErrorReplyAndServingContinues) {
  serve::Server server(min_daemon());
  // 300k `[` on one line: the JSON parser stops at kMaxJsonDepth.
  const serve::Json deep_json =
      call(server, std::string(300'000, '['));
  EXPECT_EQ(error_code(deep_json), "bad_request");
  EXPECT_NE(deep_json.str_or("message", "").find("nests deeper than"),
            std::string::npos);
  // A create whose program nests 300k parentheses: the expression parser
  // stops at kMaxExprDepth.
  const std::string deep_program =
      "R = replace x, y by x where " + std::string(300'000, '(') + "x" +
      std::string(300'000, ')') + " < y";
  EXPECT_EQ(error_code(call(server, R"({"verb":"create","program":")" +
                                        deep_program + R"("})")),
            "bad_program");
  // Nesting up to the limit is still a well-formed request.
  std::string nested = R"({"verb":"ping","pad":)";
  nested += std::string(serve::kMaxJsonDepth - 1, '[');
  nested += std::string(serve::kMaxJsonDepth - 1, ']');
  nested += "}";
  EXPECT_TRUE(call(server, nested).bool_or("ok", false));
  // And the daemon keeps serving.
  const serve::Json created = call(server, R"({"verb":"create","session":"s"})");
  EXPECT_TRUE(created.bool_or("ok", false));
  EXPECT_TRUE(call(server, R"({"verb":"ping"})").bool_or("pong", false));
}

TEST(ServeProtocol, SessionLimitIsEnforced) {
  serve::ServeOptions opts = min_daemon();
  opts.max_sessions = 2;
  serve::Server server(opts);
  ASSERT_TRUE(call(server, R"({"verb":"create"})").bool_or("ok", false));
  ASSERT_TRUE(call(server, R"({"verb":"create"})").bool_or("ok", false));
  EXPECT_EQ(error_code(call(server, R"({"verb":"create"})")), "session_limit");
  ASSERT_TRUE(call(server, R"({"verb":"close","session":"s1"})")
                  .bool_or("ok", false));
  EXPECT_TRUE(call(server, R"({"verb":"create"})").bool_or("ok", false));
}

TEST(ServeProtocol, BudgetExhaustionIsAnErrorReplyWithPartialState) {
  serve::Server server(min_daemon());
  const serve::Json created = call(
      server, R"({"verb":"create","session":"b","max_steps":1,"init":"9"})");
  ASSERT_TRUE(created.bool_or("ok", false));
  const serve::Json stopped = call(
      server,
      R"({"verb":"inject","session":"b","elements":"4 7 2 8 5"})");
  EXPECT_EQ(error_code(stopped), "budget_exhausted");
  EXPECT_TRUE(stopped.bool_or("partial", false));
  EXPECT_EQ(stopped.str_or("outcome", ""), "budget_exhausted");
  // The session survives with a valid intermediate store.
  const serve::Json snap = call(server, R"({"verb":"snapshot","session":"b"})");
  EXPECT_TRUE(snap.bool_or("ok", false));
  EXPECT_GE(snap.int_or("store_size", -1), 1);
}

TEST(ServeProtocol, DeadlineExceededIsAnErrorReplyWithPartialState) {
  serve::Server server(min_daemon());
  ASSERT_TRUE(
      call(server, R"({"verb":"create","session":"d","deadline":1e-9})")
          .bool_or("ok", false));
  std::string elements;
  for (int v = 0; v < 400; ++v) elements += std::to_string(v) + " ";
  const serve::Json stopped =
      call(server, R"({"verb":"inject","session":"d","elements":")" +
                       elements + R"("})");
  EXPECT_EQ(error_code(stopped), "deadline_exceeded");
  EXPECT_TRUE(stopped.bool_or("partial", false));
}

TEST(ServeProtocol, CloseReturnsSessionTaggedJournalInline) {
  serve::Server server(min_daemon());
  ASSERT_TRUE(
      call(server,
           R"({"verb":"create","session":"rec","record":true,"init":"3 1 2"})")
          .bool_or("ok", false));
  ASSERT_TRUE(
      call(server, R"({"verb":"inject","session":"rec","elements":"0 5"})")
          .bool_or("ok", false));
  const serve::Json closed =
      call(server, R"({"verb":"close","session":"rec"})");
  ASSERT_TRUE(closed.bool_or("ok", false));
  const serve::Json* journal = closed.get("journal");
  ASSERT_NE(journal, nullptr);
  EXPECT_EQ(journal->str_or("session", ""), "rec");
  EXPECT_EQ(journal->str_or("engine", ""), "worklist");
  EXPECT_EQ(journal->str_or("outcome", ""), "completed");

  // The inline journal is a real journal: it reparses and replays to the
  // session's final store ({[0]} — the global minimum).
  const obs::Journal parsed =
      obs::parse_journal_string(journal->to_string());
  EXPECT_EQ(obs::verify_journal(parsed), "");
  EXPECT_EQ(parsed.session, "rec");
  ASSERT_EQ(parsed.rounds_total, 2u);
  const obs::StoreCounts final =
      obs::replay_rounds(parsed, parsed.rounds.size());
  EXPECT_EQ(final, (obs::StoreCounts{{"[0]", 1}}));
}

TEST(ServeProtocol, StreamFrontPumpsLinesAndShutdownClosesSessions) {
  serve::Server server(min_daemon());
  std::istringstream in(
      "{\"verb\":\"create\",\"init\":\"5 3\"}\n"
      "\n"
      "{\"verb\":\"stats\"}\n"
      "{\"verb\":\"shutdown\"}\n"
      "{\"verb\":\"ping\"}\n");
  std::ostringstream out;
  server.serve_stream(in, out);

  std::istringstream replies(out.str());
  std::string line;
  std::vector<serve::Json> parsed;
  while (std::getline(replies, line)) parsed.push_back(serve::parse_json(line));
  // create, stats, shutdown — the post-shutdown ping is never served.
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[0].str_or("session", ""), "s1");
  EXPECT_EQ(parsed[1].int_or("sessions", -1), 1);
  EXPECT_TRUE(parsed[2].bool_or("shutdown", false));
  EXPECT_TRUE(server.shutdown_requested());
  EXPECT_EQ(server.session_count(), 0u);
}

TEST(ServeSocket, LineSplitterScansOnceAndBoundsItsBuffer) {
  serve::LineSplitter lines;
  const std::string pipelined = "a\n\nbc\nde";
  lines.append(pipelined.data(), pipelined.size());
  EXPECT_EQ(lines.next(), "a");
  EXPECT_EQ(lines.next(), "");
  EXPECT_EQ(lines.next(), "bc");
  EXPECT_EQ(lines.next(), std::nullopt);  // "de" waits for its newline
  lines.append("f\n", 2);
  EXPECT_EQ(lines.next(), "def");
  EXPECT_EQ(lines.next(), std::nullopt);
  EXPECT_FALSE(lines.too_long());

  // A line with no newline: the buffer stops growing one chunk past the
  // cap, and no line is ever handed out of it.
  const std::string chunk(4096, 'x');
  std::size_t fed = 0;
  while (!lines.too_long()) {
    lines.append(chunk.data(), chunk.size());
    fed += chunk.size();
    EXPECT_EQ(lines.next(), std::nullopt);
    ASSERT_LE(lines.buffered(), serve::kMaxLineBytes + chunk.size());
    ASSERT_LE(fed, serve::kMaxLineBytes + chunk.size());
  }
  lines.append("\n", 1);
  EXPECT_EQ(lines.next(), std::nullopt);
  EXPECT_LE(lines.buffered(), serve::kMaxLineBytes + chunk.size());

  // A complete line over the cap is refused too.
  serve::LineSplitter whole;
  const std::string big = std::string(serve::kMaxLineBytes + 1, 'y') + "\n";
  whole.append(big.data(), big.size());
  EXPECT_EQ(whole.next(), std::nullopt);
  EXPECT_TRUE(whole.too_long());
}

/// A raw Unix-socket connection to `path`, retried while the daemon binds.
int connect_unix(const std::string& path) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

TEST(ServeSocket, OverlongLineGetsAnErrorAndTheConnectionCloses) {
  serve::ServeOptions opts = min_daemon();
  opts.socket_path = "/tmp/gf_test_serve_" + std::to_string(::getpid()) + ".sock";
  serve::Server server(opts);
  std::thread daemon([&server] { EXPECT_EQ(server.serve_socket(), 0); });

  const int fd = connect_unix(opts.socket_path);
  ASSERT_GE(fd, 0);
  // Stream past the cap with no newline. The daemon stops reading once the
  // line is over it, so later sends may fail: that is the point.
  const std::string chunk(64 * 1024, 'x');
  for (std::size_t sent = 0; sent <= serve::kMaxLineBytes;
       sent += chunk.size()) {
    if (::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL) < 0) break;
  }
  std::string reply;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);  // read() hit EOF: the daemon closed the connection
  ASSERT_FALSE(reply.empty());
  ASSERT_EQ(reply.back(), '\n');
  reply.pop_back();
  EXPECT_EQ(reply.find('\n'), std::string::npos);  // exactly one reply
  const serve::Json err = serve::parse_json(reply);
  EXPECT_FALSE(err.bool_or("ok", true));
  EXPECT_EQ(err.str_or("error", ""), "line_too_long");

  // A client that hangs up before its reply costs the daemon nothing.
  const int gone = connect_unix(opts.socket_path);
  ASSERT_GE(gone, 0);
  const std::string ping = "{\"verb\":\"ping\"}\n";
  ASSERT_EQ(::send(gone, ping.data(), ping.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(ping.size()));
  ::close(gone);

  // The daemon keeps serving other connections.
  {
    serve::Client client(opts.socket_path);
    EXPECT_TRUE(
        serve::parse_json(client.call(R"({"verb":"ping"})")).bool_or("pong", false));
    EXPECT_TRUE(serve::parse_json(client.call(R"({"verb":"shutdown"})"))
                    .bool_or("shutdown", false));
  }
  daemon.join();
}

TEST(ServeProtocol, SessionJournalPathInsertsSessionBeforeExtension) {
  EXPECT_EQ(serve::session_journal_path("runs/serve.json", "s1"),
            "runs/serve.s1.json");
  EXPECT_EQ(serve::session_journal_path("journal", "s2"), "journal.s2");
  EXPECT_EQ(serve::session_journal_path("a.b/journal", "s3"),
            "a.b/journal.s3");
}

}  // namespace
}  // namespace gammaflow
