// Differential tests for the batch lane backend: lane code compiled from the
// Expr AST must agree with the AST walker (expr::eval, the one scalar
// evaluator) — a set bitmap lane exactly where the walker returns a truthy
// Value, and an aborted batch wherever a lane's divisor is zero, never a
// silently wrong lane — on hand-picked edge cases, on >=500 generated
// expressions from each of two generators, and on the example corpus run
// through every engine with batch on vs off (`--no-batch`).
#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <functional>
#include <limits>
#include <set>
#include <span>
#include <sstream>

#include "gammaflow/common/rng.hpp"
#include "gammaflow/dataflow/engine.hpp"
#include "gammaflow/distrib/cluster.hpp"
#include "gammaflow/expr/bytecode.hpp"
#include "gammaflow/expr/env.hpp"
#include "gammaflow/expr/eval.hpp"
#include "gammaflow/expr/parser.hpp"
#include "gammaflow/frontend/compile.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/runtime/batch_matcher.hpp"
#include "gammaflow/translate/df_to_gamma.hpp"

namespace gammaflow {
namespace {

using expr::Env;
using expr::ExprPtr;

ExprPtr parse(const std::string& text) {
  expr::TokenStream ts(expr::tokenize(text));
  ExprPtr e = expr::parse_expression(ts);
  EXPECT_TRUE(ts.done()) << "trailing input in: " << text;
  return e;
}

/// The slot layout every test compiles against: `a` is the vector (per-lane)
/// slot, `b`/`c`/`u` are broadcast scalars.
const std::vector<std::string> kSlots = {"a", "b", "c", "u"};
constexpr std::array<std::uint8_t, 4> kVecA = {1, 0, 0, 0};

std::optional<expr::BatchChunk> lanes_for(const ExprPtr& e) {
  return expr::compile_batch(e, kSlots, kVecA);
}
std::optional<expr::BatchChunk> lanes_for(const std::string& text) {
  return lanes_for(parse(text));
}

/// A walker evaluation collapsed to its observable: the value, or the error
/// text (prefixed with a coarse error class).
struct Observed {
  bool ok = false;
  Value value;
  std::string error;

  friend bool operator==(const Observed& x, const Observed& y) {
    return x.ok == y.ok && (x.ok ? x.value == y.value : x.error == y.error);
  }
  friend std::ostream& operator<<(std::ostream& os, const Observed& o) {
    return o.ok ? (os << "value " << o.value) : (os << "error " << o.error);
  }
};

template <typename Fn>
Observed observe(Fn&& fn) {
  Observed o;
  try {
    o.value = fn();
    o.ok = true;
  } catch (const TypeError& ex) {
    o.error = std::string("TypeError: ") + ex.what();
  } catch (const ProgramError& ex) {
    o.error = std::string("ProgramError: ") + ex.what();
  }
  return o;
}

/// What one batch evaluation showed: whether the condition lane-compiled,
/// whether the batch ran (false = a zero divisor aborted it), and whether
/// the walker threw on any lane.
struct LaneRun {
  bool compiled = false;
  bool ran = false;
  bool walker_faulted = false;
};

/// Evaluates `e` over `col_a` bound to slot `a` (b, c, u broadcast) through
/// the lane code and checks it against the walker on every lane's bindings:
/// when the batch runs, no lane may fault in the walker and every bit must
/// equal the walker's truthiness. An aborted batch is always sound — the
/// match pipeline re-probes it through the walker — so callers decide what
/// an abort must mean for their case.
LaneRun run_lanes(const ExprPtr& e, std::span<const std::int64_t> col_a,
                  std::int64_t b, std::int64_t c, std::int64_t u,
                  const std::string& context) {
  LaneRun r;
  const auto batch = lanes_for(e);
  if (!batch) return r;
  r.compiled = true;
  std::vector<expr::BatchVm::SlotInput> slots(kSlots.size());
  slots[0].column = col_a.data();
  slots[1].scalar = b;
  slots[2].scalar = c;
  slots[3].scalar = u;
  expr::BatchVm vm;
  std::vector<std::uint8_t> out;
  r.ran = vm.run(*batch, slots, col_a.size(), out);
  for (std::size_t i = 0; i < col_a.size(); ++i) {
    Env env;
    env.bind("a", Value(col_a[i]));
    env.bind("b", Value(b));
    env.bind("c", Value(c));
    env.bind("u", Value(u));
    const Observed o = observe([&] { return expr::eval(e, env); });
    if (!o.ok) {
      r.walker_faulted = true;
      EXPECT_FALSE(r.ran) << context << " lane " << i
                          << ": batch ran over a faulting lane (" << o << ")";
      continue;
    }
    if (r.ran) {
      EXPECT_EQ(out[i] != 0, o.value.truthy()) << context << " lane " << i;
    }
  }
  return r;
}

/// Hand-picked case: `text` must lane-compile and agree with the walker on
/// every lane, aborting only where the walker itself faults.
void expect_identical(const std::string& text,
                      std::span<const std::int64_t> col_a, std::int64_t b,
                      std::int64_t c) {
  const LaneRun r = run_lanes(parse(text), col_a, b, c, 0, text);
  EXPECT_TRUE(r.compiled) << text;
  if (r.compiled && !r.ran) {
    EXPECT_TRUE(r.walker_faulted) << text << ": aborted, no lane faults";
  }
}

/// Runs one program on the deterministic engines with batch on and off;
/// the two runs must end identically — same state and step count, or the
/// same error text.
struct EngineRun {
  bool ok = false;
  gamma::Multiset state;
  std::uint64_t steps = 0;
  std::string error;

  friend bool operator==(const EngineRun& x, const EngineRun& y) {
    return x.ok == y.ok &&
           (x.ok ? (x.state == y.state && x.steps == y.steps)
                 : x.error == y.error);
  }
  friend std::ostream& operator<<(std::ostream& os, const EngineRun& r) {
    return r.ok ? (os << r.steps << " steps to " << r.state)
                : (os << "error " << r.error);
  }
};

EngineRun run_mode(gamma::Engine& engine, const gamma::Program& p,
                   const gamma::Multiset& init,
                   const gamma::RunOptions& opts) {
  EngineRun r;
  try {
    auto result = engine.run(p, init, opts);
    r.state = std::move(result.final_multiset);
    r.steps = result.steps;
    r.ok = true;
  } catch (const TypeError& ex) {
    r.error = std::string("TypeError: ") + ex.what();
  } catch (const ProgramError& ex) {
    r.error = std::string("ProgramError: ") + ex.what();
  }
  return r;
}

void expect_batch_on_off_identical(const std::string& src,
                                   const gamma::Multiset& init) {
  const gamma::Program p = gamma::dsl::parse_program(src);
  gamma::RunOptions batch_opts;
  batch_opts.seed = 3;
  gamma::RunOptions ast_opts = batch_opts;
  ast_opts.batch = false;
  gamma::SequentialEngine seq;
  gamma::IndexedEngine idx;
  for (gamma::Engine* engine :
       std::initializer_list<gamma::Engine*>{&seq, &idx}) {
    EXPECT_EQ(run_mode(*engine, p, init, batch_opts),
              run_mode(*engine, p, init, ast_opts))
        << engine->name() << ": " << src;
  }
}

// ---------------------------------------------------------------------------
// Hand-picked equivalence edges.

TEST(Bytecode, ValueAndArithmeticAgree) {
  const std::vector<std::int64_t> col = {7, -7, 0, 3};
  for (const char* text :
       {"a + b", "a - b", "a * b", "a + b * c", "-(a) + -b", "a % 4",
        "(a + b) * (a - b)", "a / 2", "b / a"}) {
    expect_identical(text, col, -3, 0);
  }
}

TEST(Bytecode, ComparisonsAgree) {
  const std::vector<std::int64_t> col = {5, 4, 6, -2};
  for (const char* text : {"a < b", "a <= b", "a > b", "a >= b", "a == b",
                           "a != b", "a == 5", "c < a and a <= b"}) {
    expect_identical(text, col, 5, -2);
  }
}

TEST(Bytecode, DivisionByZeroThrowsIdentically) {
  // A runtime zero divisor aborts the batch exactly where the walker throws;
  // the pipeline's scalar re-probe then raises the walker's own error.
  const std::vector<std::int64_t> col = {1, 2};
  expect_identical("a / b", col, 0, 3);
  expect_identical("a % b", col, 0, 3);
  // A literal zero divisor is a guaranteed error on the evaluated path: the
  // compiler refuses it (never folded away either), so only the walker
  // reports it, with its exact text.
  EXPECT_FALSE(lanes_for("1 / 0"));
  EXPECT_FALSE(lanes_for("1 / 0 + a"));
}

TEST(Bytecode, ShortCircuitSkipsPoisonedRhs) {
  // b == 0, so the division would throw — the walker never reaches it, but
  // eager lanes do: the batch aborts (sound, never wrong) and the scalar
  // re-probe returns the walker's answer.
  const std::vector<std::int64_t> col = {1, 2, 3};
  for (const char* text : {"b != 0 and 10 / b > 2", "b == 0 or 10 / b > 2"}) {
    const LaneRun r = run_lanes(parse(text), col, 0, 3, 0, text);
    EXPECT_TRUE(r.compiled) << text;
    EXPECT_FALSE(r.ran) << text;
    EXPECT_FALSE(r.walker_faulted) << text;
  }
  // And when the guard passes, the walker throws and the batch aborts.
  expect_identical("b == 0 and 10 / b > 2", col, 0, 3);
}

TEST(Bytecode, FoldedShortCircuitMatchesWalker) {
  // `false and X` folds to false without evaluating X — like the walker —
  // so the whole condition is one immediate returned from the batch.
  const std::vector<std::int64_t> col = {1, 2, 3};
  for (const char* text : {"false and 1 / 0 > 1", "true or 1 / 0 > 1"}) {
    const auto batch = lanes_for(text);
    ASSERT_TRUE(batch.has_value()) << text;
    EXPECT_EQ(batch->code.size(), 1u) << text;
    expect_identical(text, col, 2, 3);
  }
  // But a reachable poisoned branch is a literal zero divisor: refused.
  EXPECT_FALSE(lanes_for("true and 1 / 0 > 1"));
}

TEST(Bytecode, UnboundSlotIsLazy) {
  // The walker raises an unbound variable only when it reaches it; lanes
  // read every slot eagerly, so a name outside the slot layout refuses the
  // whole condition and the walker keeps its lazy semantics.
  EXPECT_FALSE(lanes_for("a > 0 or nope > 0"));
  EXPECT_FALSE(lanes_for("nope + 1"));
  // A name in the layout is read (and marked used) even on a skipped side.
  const auto batch = lanes_for("a > 0 or u > 0");
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->slot_used[3], 1);
  const std::vector<std::int64_t> col = {1, -1};
  expect_identical("a > 0 or u > 0", col, 2, 3);
}

TEST(Bytecode, TruthinessErrorsAgree) {
  // A Str binding never enters the lane model (the matcher only gathers
  // Int columns): the batch run falls back to the walker, which raises the
  // same TypeError at the same step as a --no-batch run.
  gamma::Multiset init;
  init.add(gamma::Element{Value(1), Value("text")});
  init.add(gamma::Element{Value(2), Value("more")});
  for (const char* cond : {"s and a > 0", "a > 0 and s", "not s"}) {
    expect_batch_on_off_identical(
        std::string("R = replace [a, s] by [a] where ") + cond, init);
  }
}

TEST(Bytecode, StringOperationsAgree) {
  // String literals refuse lane compilation outright; string bindings keep
  // a batchable plan whose matcher falls back per visit. Both paths must
  // reach the --no-batch fixpoint exactly.
  EXPECT_FALSE(lanes_for("a + b == 'foobar'"));
  gamma::Multiset init;
  init.add(gamma::Element{Value("foo"), Value("bar")});
  init.add(gamma::Element{Value("bar"), Value("foo")});
  init.add(gamma::Element{Value("a"), Value(1)});
  for (const char* cond :
       {"a + b == 'foobar'", "a < b", "a == b", "a != b", "a - b > 0",
        "a + b"}) {
    expect_batch_on_off_identical(
        std::string("R = replace [a, b] by [b, a, 0] where ") + cond, init);
  }
}

TEST(Bytecode, CompileRejectsNull) {
  EXPECT_THROW((void)expr::compile_batch(nullptr, kSlots, kVecA),
               ProgramError);
}

TEST(Bytecode, LiteralFoldingKeepsPoolSmall) {
  // A pure-literal subtree becomes one fused immediate; a throwing one is
  // kept for the walker (here: a literal zero divisor, so refused).
  const auto folded = lanes_for("(2 + 3) * 4 + a");
  ASSERT_TRUE(folded.has_value());
  ASSERT_EQ(folded->code.size(), 2u);  // add, ret
  EXPECT_EQ(folded->code[0].a.kind, expr::BatchOperand::Kind::Imm);
  EXPECT_EQ(folded->code[0].a.imm, 20);
  // Mixed-kind literals fold too when the walker evaluates them cleanly.
  EXPECT_TRUE(lanes_for("'x' == 'x' and a > 0"));
  EXPECT_FALSE(lanes_for("1 / 0 + a"));
}

// ---------------------------------------------------------------------------
// Randomized differential property: >=500 generated (expression, lanes)
// pairs from the full expression generator — mixed-kind literals included,
// so the refusal rules are exercised as much as the lanes.

ExprPtr random_expr(Rng& rng, int depth) {
  if (depth == 0 || rng.coin(0.3)) {
    switch (rng.bounded(8)) {
      case 0: return expr::var("a");
      case 1: return expr::var("b");
      case 2: return expr::var("c");
      case 3: return rng.coin(0.25) ? expr::var("u") : expr::var("a");
      case 4:  // small ints, zero included: div/mod-by-zero must be reachable
        return expr::lit(Value(static_cast<std::int64_t>(rng.bounded(7)) - 2));
      case 5: return expr::lit(Value(rng.coin()));
      case 6: return expr::lit(Value(rng.coin() ? "s" : "t"));
      default:
        return expr::lit(Value(static_cast<std::int64_t>(rng.bounded(40)) - 20));
    }
  }
  if (rng.coin(0.15)) {
    return expr::Expr::unary(rng.coin() ? expr::UnOp::Neg : expr::UnOp::Not,
                             random_expr(rng, depth - 1));
  }
  static constexpr expr::BinOp kOps[] = {
      expr::BinOp::Add, expr::BinOp::Sub, expr::BinOp::Mul, expr::BinOp::Div,
      expr::BinOp::Mod, expr::BinOp::Lt,  expr::BinOp::Le,  expr::BinOp::Gt,
      expr::BinOp::Ge,  expr::BinOp::Eq,  expr::BinOp::Ne,  expr::BinOp::And,
      expr::BinOp::Or};
  return expr::Expr::binary(kOps[rng.bounded(13)], random_expr(rng, depth - 1),
                            random_expr(rng, depth - 1));
}

class BytecodeDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BytecodeDifferential, VmMatchesWalker) {
  // 10 trials per parameterized seed x 50 seeds = 500 distinct cases. Every
  // expression the lane compiler accepts must agree with the walker on Int
  // bindings (the only bindings the matcher feeds lanes).
  for (std::uint64_t trial = 0; trial < 10; ++trial) {
    Rng rng(GetParam() * 1000 + trial);
    const ExprPtr e = random_expr(rng, 4);
    std::vector<std::int64_t> col(9);
    for (auto& v : col) v = static_cast<std::int64_t>(rng.bounded(9)) - 4;
    const auto scalar = [&] {
      return static_cast<std::int64_t>(rng.bounded(9)) - 4;
    };
    const std::int64_t b = scalar();
    const std::int64_t c = scalar();
    const std::int64_t u = scalar();
    (void)run_lanes(e, col, b, c, u,
                    "seed " + std::to_string(GetParam()) + " trial " +
                        std::to_string(trial) + ": " + e->to_string());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BytecodeDifferential,
                         ::testing::Range(std::uint64_t{1}, std::uint64_t{51}));

// ---------------------------------------------------------------------------
// Engine-level state identity on the example corpus, batch on vs off.

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string examples_dir() {
  return std::string(GF_REPO_DIR) + "/examples/programs/";
}

gamma::Multiset int_multiset(std::initializer_list<std::int64_t> xs) {
  gamma::Multiset m;
  for (const std::int64_t x : xs) m.add(gamma::Element{Value(x)});
  return m;
}

struct GammaCase {
  const char* file;
  gamma::Multiset initial;
};

std::vector<GammaCase> gamma_corpus() {
  std::vector<GammaCase> cases;
  cases.push_back({"min.gamma", int_multiset({9, 4, 17, 4, 1, 30, 2})});
  cases.push_back({"sieve.gamma", int_multiset({2, 3, 4, 5, 6, 7, 8, 9, 10,
                                                11, 12, 13, 14, 15, 16})});
  gamma::Multiset fig1;
  fig1.add(gamma::Element{Value(1), Value("A1")});
  fig1.add(gamma::Element{Value(5), Value("B1")});
  fig1.add(gamma::Element{Value(3), Value("C1")});
  fig1.add(gamma::Element{Value(2), Value("D1")});
  cases.push_back({"fig1.gamma", std::move(fig1)});
  // Wide enough that the innermost bucket reaches BatchMatcher::kMinChunk,
  // so the batch mode really sweeps (the cases above are all scalar-sized).
  gamma::Multiset wide;
  for (std::size_t i = 0; i < runtime::BatchMatcher::kMinChunk + 16; ++i) {
    wide.add(gamma::Element{Value(static_cast<std::int64_t>(i) + 2)});
  }
  cases.push_back({"sieve.gamma", std::move(wide)});
  return cases;
}

TEST(BytecodeCorpus, GammaEnginesStateIdenticalCompileOnOff) {
  // Lane-compiled conditions (default) vs the walker everywhere
  // (`--no-batch`), on every Gamma engine.
  const std::vector<std::unique_ptr<gamma::Engine>> engines = [] {
    std::vector<std::unique_ptr<gamma::Engine>> v;
    v.push_back(std::make_unique<gamma::SequentialEngine>());
    v.push_back(std::make_unique<gamma::IndexedEngine>());
    v.push_back(std::make_unique<gamma::ParallelEngine>());
    return v;
  }();
  for (const GammaCase& c : gamma_corpus()) {
    const gamma::Program program =
        gamma::dsl::parse_program(read_file(examples_dir() + c.file));
    for (const auto& engine : engines) {
      for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
        gamma::RunOptions batch_opts;
        batch_opts.seed = seed;
        gamma::RunOptions ast_opts = batch_opts;
        ast_opts.batch = false;
        const auto batch = engine->run(program, c.initial, batch_opts);
        const auto ast = engine->run(program, c.initial, ast_opts);
        EXPECT_EQ(batch.final_multiset, ast.final_multiset)
            << c.file << " engine " << engine->name() << " seed " << seed;
        EXPECT_EQ(batch.steps, ast.steps)
            << c.file << " engine " << engine->name() << " seed " << seed;
      }
    }
  }
}

TEST(BytecodeCorpus, DataflowEnginesOutputsIdenticalCompileOnOff) {
  // The dataflow engines fire every node through fire_node (the walker's
  // value ops); the batch knob they inherit must change nothing, and the
  // parallel PEs must agree with the interpreter.
  for (const char* file : {"fig1.src", "fig2_loop.src", "classify.src"}) {
    const dataflow::Graph g =
        frontend::compile_source(read_file(examples_dir() + file));
    const auto want = dataflow::Interpreter().run(g);
    for (const bool batch : {true, false}) {
      dataflow::DfRunOptions opts;
      opts.batch = batch;
      const auto seq = dataflow::Interpreter().run(g, opts);
      opts.workers = 3;
      const auto par = dataflow::ParallelEngine().run(g, opts);
      ASSERT_EQ(seq.outputs.size(), want.outputs.size()) << file;
      for (const auto& [name, tokens] : want.outputs) {
        EXPECT_EQ(seq.output_values(name), want.output_values(name))
            << file << " batch=" << batch << " output " << name;
        EXPECT_EQ(par.output_values(name), want.output_values(name))
            << file << " batch=" << batch << " parallel output " << name;
      }
    }
  }
}

TEST(BytecodeCorpus, ClusterStateIdenticalCompileOnOff) {
  const gamma::Program program =
      gamma::dsl::parse_program(read_file(examples_dir() + "min.gamma"));
  const gamma::Multiset initial = int_multiset({9, 4, 17, 4, 1, 30, 2, 8});
  distrib::ClusterOptions batch_opts;
  batch_opts.nodes = 3;
  batch_opts.seed = 5;
  distrib::ClusterOptions ast_opts = batch_opts;
  ast_opts.batch = false;
  const auto batch = distrib::run_distributed(program, initial, batch_opts);
  const auto ast = distrib::run_distributed(program, initial, ast_opts);
  EXPECT_EQ(batch.final_multiset, ast.final_multiset);
  EXPECT_EQ(batch.fires, ast.fires);
}

TEST(BytecodeCorpus, TranslatedProgramsAgreeAcrossModes) {
  // Algorithm 1 output (condition-free reactions plus steer conditions) must
  // also be mode-independent end to end.
  for (const char* file : {"fig1.src", "fig2_loop.src"}) {
    const dataflow::Graph g =
        frontend::compile_source(read_file(examples_dir() + file));
    const auto conv = translate::dataflow_to_gamma(g);
    gamma::RunOptions batch_opts;
    batch_opts.seed = 3;
    gamma::RunOptions ast_opts = batch_opts;
    ast_opts.batch = false;
    const auto batch = gamma::IndexedEngine().run(conv.program, conv.initial,
                                                  batch_opts);
    const auto ast = gamma::IndexedEngine().run(conv.program, conv.initial,
                                                ast_opts);
    EXPECT_EQ(batch.final_multiset, ast.final_multiset) << file;
    EXPECT_EQ(batch.steps, ast.steps) << file;
  }
}

// ---------------------------------------------------------------------------
// Batch backend: compile_batch shapes, BatchVm lane semantics, and the
// batch ≡ walker differential property over generated conditions.

TEST(BatchCompile, FusesLoadsIntoOperands) {
  // a < b: both leaves fuse into the comparison's operands, leaving one
  // compare plus the ret — the superinstruction shape bench_bytecode
  // measures.
  const auto batch = lanes_for("a < b");
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->fused_loads, 2u);
  ASSERT_EQ(batch->code.size(), 2u);
  EXPECT_EQ(batch->code[0].op, expr::BatchOp::Lt);
  EXPECT_TRUE(batch->code[0].a.vec);
  EXPECT_FALSE(batch->code[0].b.vec);
  EXPECT_EQ(batch->code[1].op, expr::BatchOp::Ret);
  ASSERT_GE(batch->slot_used.size(), 3u);
  EXPECT_EQ(batch->slot_used[0], 1);
  EXPECT_EQ(batch->slot_used[1], 1);
  EXPECT_EQ(batch->slot_used[2], 0);
}

TEST(BatchCompile, LowersShortCircuitToEagerJoins) {
  // and/or become eager joins: both sides evaluate, joined by the boolean
  // ops. Straight-line code must contain a join and no other control flow
  // (Ret terminates).
  const auto batch = lanes_for("a > 0 and a % 2 == 0");
  ASSERT_TRUE(batch.has_value());
  bool saw_join = false;
  for (const expr::BatchInstr& in : batch->code) {
    saw_join = saw_join || in.op == expr::BatchOp::AndBool;
  }
  EXPECT_TRUE(saw_join);
  EXPECT_EQ(batch->code.back().op, expr::BatchOp::Ret);
}

TEST(BatchCompile, RefusesWhatCouldDivergeFromScalar) {
  // Non-Int constants, literal-zero divisors, arithmetic/negation/ordering
  // on Bool lanes: lane semantics could diverge from the walker's error
  // behaviour, so compilation refuses and the pipeline keeps the scalar
  // probe for the reaction.
  EXPECT_FALSE(lanes_for("a == 's'"));
  EXPECT_FALSE(lanes_for("a < 1.5"));
  EXPECT_FALSE(lanes_for("a / 0 > 1"));
  EXPECT_FALSE(lanes_for("a % 0 == 1"));
  EXPECT_FALSE(lanes_for("(a > 0) + 1 > 0"));
  EXPECT_FALSE(lanes_for("-(a > 0)"));
  EXPECT_FALSE(lanes_for("(a > 0) < true"));
  // Nonzero literal divisors and Bool constants stay batchable.
  EXPECT_TRUE(lanes_for("a % 3 == 0"));
  EXPECT_TRUE(lanes_for("a > 0 and true"));
  EXPECT_TRUE(lanes_for("not (a > 0) or not a"));
}

/// Runs `text` over a column bound to slot `a` (b, c broadcast) through the
/// batch VM and checks every lane against the walker's verdict.
void expect_batch_matches_walker(const std::string& text,
                                 std::span<const std::int64_t> col_a,
                                 std::int64_t b, std::int64_t c) {
  const LaneRun r = run_lanes(parse(text), col_a, b, c, 0, text);
  ASSERT_TRUE(r.compiled) << text;
  EXPECT_TRUE(r.ran) << text;
}

TEST(BatchVmTest, LanesAgreeWithScalarVm) {
  // "Scalar" is the walker: the only scalar evaluator.
  const std::vector<std::int64_t> col = {-3, -1, 0, 1, 2, 5, 8, 1 << 20};
  for (const char* text :
       {"a < b", "a <= b and a > c", "a == b or a == c", "a % 3 == 0",
        "a * 2 + c > b", "-a < b", "not (a > b)", "a / 2 >= c",
        "a > 0 and (a < b or a == c)"}) {
    expect_batch_matches_walker(text, col, 4, -1);
  }
}

TEST(BatchVmTest, HugeIntsKeepTheDoubleComparisonQuirks) {
  // Comparisons go through double exactly like value.cpp's compare(): above
  // 2^53, adjacent int64s collapse to the same double and compare equal.
  // The batch bitmap must reproduce that bit-for-bit, not fix it.
  const std::int64_t big = (std::int64_t{1} << 60) + 1;
  const std::vector<std::int64_t> col = {big, big - 1, big + 1, 0};
  expect_batch_matches_walker("a == b", col, big, 0);
  expect_batch_matches_walker("a < b", col, big, 0);
  expect_batch_matches_walker("a >= b", col, big, 0);
}

TEST(BatchVmTest, OverflowWrapsExactlyLikeTheWalker) {
  // Int lanes and the walker share value.hpp's wrapping ops: overflowing
  // lanes agree bit for bit, and INT64_MIN / -1 neither traps nor diverges.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const std::vector<std::int64_t> col = {kMax, kMin, kMax - 1, -1, 3};
  for (const char* text : {"a + b > 0", "a - b < 0", "a * b > 0", "-a > 0",
                           "a / b < 0", "a % b == 0", "a * a * a > c"}) {
    expect_batch_matches_walker(text, col, -1, 7);
    expect_batch_matches_walker(text, col, 2, kMin);
  }
}

TEST(BatchVmTest, RuntimeZeroDivisorAbortsTheBatch) {
  // b is zero at runtime (not a literal), so compilation succeeds — but a
  // faulting lane means the bitmap cannot be trusted, and run() refuses so
  // the caller re-probes the whole batch through the scalar path (which
  // throws exactly where the walker would).
  const auto batch = lanes_for("a / b > 0");
  ASSERT_TRUE(batch.has_value());
  const std::vector<std::int64_t> col = {1, 2, 3};
  std::vector<expr::BatchVm::SlotInput> slots(kSlots.size());
  slots[0].column = col.data();
  slots[1].scalar = 0;
  expr::BatchVm vm;
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(vm.run(*batch, slots, col.size(), out));

  // Per-lane divisors: ANY zero lane aborts, even if others are fine.
  const auto by_a = lanes_for("b / a > 0");
  ASSERT_TRUE(by_a.has_value());
  const std::vector<std::int64_t> divisors = {1, 0, 3};
  slots[0].column = divisors.data();
  slots[1].scalar = 6;
  EXPECT_FALSE(vm.run(*by_a, slots, divisors.size(), out));
  slots[1].scalar = 6;
  const std::vector<std::int64_t> safe = {1, 2, 3};
  slots[0].column = safe.data();
  EXPECT_TRUE(vm.run(*by_a, slots, safe.size(), out));
}

TEST(BatchVmTest, CountersAdvancePerEvalAndLane) {
  const auto batch = lanes_for("a > 0");
  ASSERT_TRUE(batch.has_value());
  const std::vector<std::int64_t> col = {1, -2, 3, 4, -5};
  std::vector<expr::BatchVm::SlotInput> slots(kSlots.size());
  slots[0].column = col.data();
  expr::BatchVm vm;
  std::vector<std::uint8_t> out;
  const std::uint64_t evals0 = expr::batch_evals();
  const std::uint64_t lanes0 = expr::batch_lanes();
  const auto width0 = expr::batch_width_counts();
  ASSERT_TRUE(vm.run(*batch, slots, col.size(), out));
  EXPECT_EQ(expr::batch_evals() - evals0, 1u);
  EXPECT_EQ(expr::batch_lanes() - lanes0, col.size());
  // n = 5 lands in bucket bit_width(5) = 3 (widths 4..7).
  const auto width1 = expr::batch_width_counts();
  EXPECT_EQ(width1[3] - width0[3], 1u);
}

/// Random int-only conditions over one vector and two scalar slots; every
/// batchable one must agree with the walker on every lane. Conditions with
/// runtime division are exercised too: if run() succeeds, no lane faulted
/// and the lanes must agree; if it aborts, the walker on some lane must
/// actually throw.
ExprPtr random_batch_expr(Rng& rng, int depth) {
  if (depth == 0 || rng.coin(0.3)) {
    switch (rng.bounded(6)) {
      case 0: return expr::var("a");
      case 1: return expr::var("b");
      case 2: return expr::var("c");
      case 3: return expr::lit(Value(rng.coin()));
      default:
        return expr::lit(Value(static_cast<std::int64_t>(rng.bounded(9)) - 3));
    }
  }
  if (rng.coin(0.15)) {
    return expr::Expr::unary(rng.coin() ? expr::UnOp::Neg : expr::UnOp::Not,
                             random_batch_expr(rng, depth - 1));
  }
  static constexpr expr::BinOp kOps[] = {
      expr::BinOp::Add, expr::BinOp::Sub, expr::BinOp::Mul, expr::BinOp::Div,
      expr::BinOp::Mod, expr::BinOp::Lt,  expr::BinOp::Le,  expr::BinOp::Gt,
      expr::BinOp::Ge,  expr::BinOp::Eq,  expr::BinOp::Ne,  expr::BinOp::And,
      expr::BinOp::Or};
  return expr::Expr::binary(kOps[rng.bounded(13)],
                            random_batch_expr(rng, depth - 1),
                            random_batch_expr(rng, depth - 1));
}

class BatchDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchDifferential, BitmapMatchesScalarVm) {
  // 10 trials per seed x 50 seeds = 500 generated conditions, checked
  // against the walker (the scalar evaluator).
  for (std::uint64_t trial = 0; trial < 10; ++trial) {
    Rng rng(GetParam() * 1000 + trial);
    const ExprPtr e = random_batch_expr(rng, 4);
    std::vector<std::int64_t> col(17);
    for (auto& v : col) v = static_cast<std::int64_t>(rng.bounded(9)) - 3;
    const auto b = static_cast<std::int64_t>(rng.bounded(9)) - 3;
    const auto c = static_cast<std::int64_t>(rng.bounded(9)) - 3;
    const std::string context = "seed " + std::to_string(GetParam()) +
                                " trial " + std::to_string(trial) + ": " +
                                e->to_string();
    const LaneRun r = run_lanes(e, col, b, c, 0, context);
    if (r.compiled && !r.ran) {
      EXPECT_TRUE(r.walker_faulted)
          << context << ": batch aborted but no lane faults";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchDifferential,
                         ::testing::Range(std::uint64_t{1}, std::uint64_t{51}));

// ---------------------------------------------------------------------------
// Engine-level: batch ≡ walker on generated programs (the modes share one
// rng schedule, so states AND step counts must be byte-identical).

TEST(BatchCorpus, GammaEnginesStateIdenticalAcrossBothModes) {
  std::uint64_t batch_evals = 0;  // over the batch-mode runs
  for (const GammaCase& c : gamma_corpus()) {
    const gamma::Program program =
        gamma::dsl::parse_program(read_file(examples_dir() + c.file));
    for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
      gamma::RunOptions batch_opts;
      batch_opts.seed = seed;
      gamma::RunOptions ast_opts = batch_opts;
      ast_opts.batch = false;
      for (const auto make : {+[]() -> std::unique_ptr<gamma::Engine> {
                                return std::make_unique<gamma::SequentialEngine>();
                              },
                              +[]() -> std::unique_ptr<gamma::Engine> {
                                return std::make_unique<gamma::IndexedEngine>();
                              }}) {
        const auto engine = make();
        const std::uint64_t evals0 = expr::batch_evals();
        const auto batch = engine->run(program, c.initial, batch_opts);
        batch_evals += expr::batch_evals() - evals0;
        const auto ast = engine->run(program, c.initial, ast_opts);
        EXPECT_EQ(batch.final_multiset, ast.final_multiset)
            << c.file << " " << engine->name() << " seed " << seed;
        EXPECT_EQ(batch.steps, ast.steps)
            << c.file << " " << engine->name() << " seed " << seed;
      }
    }
  }
  // Not vacuous: the batch mode went through the BatchMatcher.
  EXPECT_GT(batch_evals, 0u);
}

/// Random guard over x and y rendered back to DSL text. Division and modulo
/// are included on purpose: a guard that faults must fault identically
/// (same error text) in both modes.
std::string random_guard(Rng& rng, int depth) {
  if (depth == 0 || rng.coin(0.35)) {
    switch (rng.bounded(5)) {
      case 0: return "x";
      case 1: return "y";
      default:
        return std::to_string(static_cast<std::int64_t>(rng.bounded(9)) - 3);
    }
  }
  static constexpr const char* kOps[] = {"+", "-", "*", "/", "%", "<", "<=",
                                         ">", ">=", "==", "!=", "and", "or"};
  return "(" + random_guard(rng, depth - 1) + " " + kOps[rng.bounded(13)] +
         " " + random_guard(rng, depth - 1) + ")";
}

class BatchEngineDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchEngineDifferential, GeneratedProgramsAgreeAcrossModes) {
  // 10 generated (program, multiset) pairs per seed x 50 seeds = 500 cases,
  // each run through the two deterministic engines in both modes, plus a
  // wide superset of the multiset through IndexedEngine in both modes.
  // Templates rotate so literal field checks, label keys, repeated binders
  // (EqField), and outer-bound binders (EqSlot) all get exercised.
  static constexpr const char* kTemplates[] = {
      "R = replace x, y by x + y where %G",
      "R = replace [x,'a'], [y,'a'] by [x + y,'a'] where %G",
      "R = replace [x,'a'], [y,'b'] by [x,'done'] where %G",
      "R = replace [x, x] by x where %G",
  };
  std::uint64_t batch_evals = 0;  // over the wide batch-mode runs
  for (std::uint64_t trial = 0; trial < 10; ++trial) {
    Rng rng(GetParam() * 7919 + trial);
    const std::string guard = random_guard(rng, 3);
    const std::size_t which = rng.bounded(4);
    std::string src(kTemplates[which]);
    src.replace(src.find("%G"), 2, guard);

    const auto add_element = [&](gamma::Multiset& m) {
      const Value v(static_cast<std::int64_t>(rng.bounded(13)) - 3);
      switch (which) {
        case 0: m.add(gamma::Element{v}); break;
        case 1: m.add(gamma::Element::labeled(v, "a")); break;
        case 2:
          m.add(gamma::Element::labeled(v, rng.coin() ? "a" : "b"));
          break;
        default: {
          const Value w = rng.coin(0.4)
                              ? v
                              : Value(static_cast<std::int64_t>(
                                    rng.bounded(13)) - 3);
          m.add(gamma::Element{v, w});
          break;
        }
      }
    };
    gamma::Multiset init;
    const std::size_t n = 6 + rng.bounded(10);
    for (std::size_t i = 0; i < n; ++i) add_element(init);
    // The batch sweep only takes innermost windows of at least kMinChunk
    // candidates, so a second, wide multiset (a superset of `init`, wide
    // enough for both label buckets of the 'a'/'b' template) is what
    // actually reaches the BatchMatcher.
    gamma::Multiset wide = init;
    const std::size_t wide_n =
        3 * runtime::BatchMatcher::kMinChunk + rng.bounded(16);
    while (wide.size() < wide_n) add_element(wide);

    gamma::Program p;
    try {
      p = gamma::dsl::parse_program(src);
    } catch (const Error&) {
      continue;  // a guard the DSL rejects (none expected) — skip
    }
    gamma::RunOptions batch_opts;
    batch_opts.seed = GetParam();
    gamma::RunOptions ast_opts = batch_opts;
    ast_opts.batch = false;

    gamma::SequentialEngine seq;
    gamma::IndexedEngine idx;
    for (gamma::Engine* engine :
         std::initializer_list<gamma::Engine*>{&seq, &idx}) {
      const EngineRun batch = run_mode(*engine, p, init, batch_opts);
      const EngineRun ast = run_mode(*engine, p, init, ast_opts);
      EXPECT_EQ(batch, ast) << engine->name() << " seed " << GetParam()
                            << " trial " << trial << ": " << src;
    }
    const std::uint64_t evals0 = expr::batch_evals();
    const EngineRun batch = run_mode(idx, p, wide, batch_opts);
    batch_evals += expr::batch_evals() - evals0;
    const EngineRun ast = run_mode(idx, p, wide, ast_opts);
    EXPECT_EQ(batch, ast) << "wide indexed seed " << GetParam() << " trial "
                          << trial << ": " << src;
  }
  // Not vacuous: the wide runs went through the batch sweep.
  EXPECT_GT(batch_evals, 0u) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchEngineDifferential,
                         ::testing::Range(std::uint64_t{1}, std::uint64_t{51}));

TEST(BatchCorpus, CompiledReactionExposesItsBatchPlan) {
  // Innermost-pattern binders become vector slots; outer binders broadcast.
  const gamma::Reaction r = gamma::dsl::parse_reaction(
      "R = replace [x,'a'], [y,'a'] by [x + y,'a'] where x < y");
  const auto* plan = r.compiled().batch_plan();
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->arity, 2u);
  ASSERT_EQ(plan->vector_slots.size(), 1u);  // y varies per lane
  EXPECT_EQ(plan->slot_is_vector,
            (std::vector<std::uint8_t>{0, 1}));  // x broadcast, y vector
  ASSERT_EQ(plan->conditions.size(), 1u);
  EXPECT_TRUE(plan->conditions[0].has_value());

  // A non-batchable guard disables the plan wholesale (all-or-nothing:
  // mixing lane bitmaps with scalar branch probes could reorder which
  // branch fires first) — the matcher falls back to the scalar sweep.
  const gamma::Reaction s = gamma::dsl::parse_reaction(
      "S = replace [x,'a'], [y,'a'] by [x,'a'] where y == 's' or x < y");
  EXPECT_EQ(s.compiled().batch_plan(), nullptr);
}

TEST(BatchCorpus, ExampleReactionsAllGetABatchPlan) {
  // The programs the end-to-end benchmark runs: every reaction of the sieve,
  // min and the Algorithm 1 translation of Fig. 2 takes the batch path —
  // except the three inctag merges, whose guards compare Str labels
  // (`x == 'e0' or x == 'e13'`) and so stay on the walker by design.
  std::vector<gamma::Program> programs;
  for (const char* file : {"sieve.gamma", "min.gamma"}) {
    programs.push_back(
        gamma::dsl::parse_program(read_file(examples_dir() + file)));
  }
  programs.push_back(translate::dataflow_to_gamma(
                         frontend::compile_source(
                             read_file(examples_dir() + "fig2_loop.src")))
                         .program);
  std::size_t planned = 0;
  std::set<std::string> scalar_only;
  for (const gamma::Program& p : programs) {
    for (const auto& stage : p.stages()) {
      for (const gamma::Reaction& r : stage) {
        if (r.compiled().batch_plan() != nullptr) {
          ++planned;
        } else {
          scalar_only.insert(r.name());
        }
      }
    }
  }
  EXPECT_EQ(scalar_only, (std::set<std::string>{"loop7_inc_i", "loop7_inc_x",
                                                "loop7_inc_y"}));
  EXPECT_GE(planned, 2u + 6u);  // Rsieve, Rmin, and the Fig. 2 reactions
}

TEST(BytecodeCorpus, CompiledReactionReportsFootprint) {
  const gamma::Reaction r = gamma::dsl::parse_reaction(
      "Rmin = replace x, y by x where x < y");
  const gamma::CompiledReaction& cr = r.compiled();
  EXPECT_EQ(cr.slots(), (std::vector<std::string>{"x", "y"}));
  ASSERT_NE(cr.batch_plan(), nullptr);
  EXPECT_GE(cr.compile_ms(), 0.0);
}

}  // namespace
}  // namespace gammaflow
