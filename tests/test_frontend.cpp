// Frontend: parsing the paper's source snippets, compiling to dataflow
// (Fig. 2 shapes for loops, steer joins for if/else), tag-context safety,
// and end-to-end equivalence through Algorithm 1.
#include <gtest/gtest.h>

#include "gammaflow/dataflow/engine.hpp"
#include "gammaflow/frontend/compile.hpp"
#include "gammaflow/frontend/parser.hpp"
#include "gammaflow/translate/equivalence.hpp"
#include "gammaflow/translate/gamma_to_df.hpp"

namespace gammaflow::frontend {
namespace {

Value run_output(const std::string& source, const std::string& name) {
  const dataflow::Graph g = compile_source(source);
  return dataflow::Interpreter().run(g).single_output(name);
}

// ---- parser ----

TEST(FrontendParser, PaperExampleOne) {
  const ProgramAst ast = parse_source(R"(
    int x = 1;
    int y = 5;
    int k = 3;
    int j = 2;
    m = (x + y) - (k * j);
    output m;
  )");
  ASSERT_EQ(ast.statements.size(), 6u);
  EXPECT_EQ(ast.statements[0]->kind, Stmt::Kind::Assign);
  EXPECT_EQ(ast.statements[4]->assign.name, "m");
  EXPECT_EQ(ast.statements[4]->assign.value->to_string(), "x + y - k * j");
  EXPECT_EQ(ast.statements[5]->kind, Stmt::Kind::Output);
}

TEST(FrontendParser, ForDesugarsToInitPlusWhile) {
  const ProgramAst ast = parse_source("for (i = z; i > 0; i--) x = x + y;");
  ASSERT_EQ(ast.statements.size(), 2u);
  EXPECT_EQ(ast.statements[0]->kind, Stmt::Kind::Assign);  // i = z
  ASSERT_EQ(ast.statements[1]->kind, Stmt::Kind::While);
  const While& loop = ast.statements[1]->while_stmt;
  EXPECT_EQ(loop.condition->to_string(), "i > 0");
  ASSERT_EQ(loop.body.size(), 2u);  // x = x + y; i = i - 1
  EXPECT_EQ(loop.body[1]->assign.name, "i");
  EXPECT_EQ(loop.body[1]->assign.value->to_string(), "i - 1");
}

TEST(FrontendParser, CompoundAssignments) {
  const ProgramAst ast = parse_source("x += 3; y -= 1; a++; b--;");
  EXPECT_EQ(ast.statements[0]->assign.value->to_string(), "x + 3");
  EXPECT_EQ(ast.statements[1]->assign.value->to_string(), "y - 1");
  EXPECT_EQ(ast.statements[2]->assign.value->to_string(), "a + 1");
  EXPECT_EQ(ast.statements[3]->assign.value->to_string(), "b - 1");
}

TEST(FrontendParser, IfElseWithBlocks) {
  const ProgramAst ast = parse_source(R"(
    if (a > b) { m = a; n = 1; } else m = b;
  )");
  ASSERT_EQ(ast.statements.size(), 1u);
  const If& s = ast.statements[0]->if_stmt;
  EXPECT_EQ(s.then_body.size(), 2u);
  EXPECT_EQ(s.else_body.size(), 1u);
}

TEST(FrontendParser, TypeWordsAreInterchangeable) {
  for (const char* type : {"int", "real", "bool", "var"}) {
    const ProgramAst ast =
        parse_source(std::string(type) + " q = 1; output q;");
    EXPECT_EQ(ast.statements.size(), 2u) << type;
  }
}

TEST(FrontendParser, CxxCommentsSupported) {
  const ProgramAst ast = parse_source(R"(
    // the paper writes examples like this
    int x = 1;  # and hash comments work too
    output x;
  )");
  EXPECT_EQ(ast.statements.size(), 2u);
}

TEST(FrontendParser, SyntaxErrorsCarryLocation) {
  try {
    (void)parse_source("int x = ;\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 1);
  }
  EXPECT_THROW((void)parse_source("for (i = 0 i < 3; i++) x = 1;"),
               ParseError);
  EXPECT_THROW((void)parse_source("while (x > 0 { x--; }"), ParseError);
  EXPECT_THROW((void)parse_source("x * 3;"), ParseError);
  EXPECT_THROW((void)parse_source("if (x) { y = 1;"), ParseError);
}

TEST(FrontendParser, AstPrintsBack) {
  const ProgramAst ast = parse_source(
      "int x = 1; while (x < 5) x = x + 1; output x;");
  const std::string printed = to_string(ast);
  EXPECT_NE(printed.find("while (x < 5)"), std::string::npos);
  EXPECT_NE(printed.find("output x;"), std::string::npos);
  // printed form re-parses to the same print
  EXPECT_EQ(to_string(parse_source(printed)), printed);
}

// ---- compiler: straight-line ----

TEST(FrontendCompile, PaperExampleOneComputesZero) {
  EXPECT_EQ(run_output(R"(
    int x = 1; int y = 5; int k = 3; int j = 2;
    m = (x + y) - (k * j);
    output m;
  )",
                       "m"),
            Value(0));
}

TEST(FrontendCompile, ReassignmentUsesLatestDefinition) {
  EXPECT_EQ(run_output("int a = 2; a = a * 10; a = a + 1; output a;", "a"),
            Value(21));
}

TEST(FrontendCompile, MultipleOutputs) {
  const dataflow::Graph g = compile_source(
      "int a = 6; int b = 7; p = a * b; s = a + b; output p; output s;");
  const auto r = dataflow::Interpreter().run(g);
  EXPECT_EQ(r.single_output("p"), Value(42));
  EXPECT_EQ(r.single_output("s"), Value(13));
}

TEST(FrontendCompile, ConstantFoldingCollapsesLiteralTrees) {
  const dataflow::Graph g =
      compile_source("m = (2 + 3) * (10 - 6); output m;");
  // One const node (folded 20) + output.
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(dataflow::Interpreter().run(g).single_output("m"), Value(20));
}

TEST(FrontendCompile, RealArithmetic) {
  EXPECT_EQ(run_output("real h = 7.0; m = h / 2; output m;", "m"),
            Value(3.5));
}

TEST(FrontendCompile, UndefinedVariableRejected) {
  EXPECT_THROW((void)compile_source("m = ghost + 1; output m;"),
               CompileError);
  EXPECT_THROW((void)compile_source("int a = 1; output ghost;"),
               CompileError);
}

TEST(FrontendCompile, ProgramWithoutOutputRejected) {
  EXPECT_THROW((void)compile_source("int a = 1;"), CompileError);
}

TEST(FrontendCompile, LogicalOperatorsRejected) {
  EXPECT_THROW(
      (void)compile_source("int a = 1; if (a > 0 and a < 2) a = 2; output a;"),
      CompileError);
}

// ---- compiler: if/else ----

TEST(FrontendCompile, IfTakenAndNotTaken) {
  const char* src = R"(
    int a = %d; int r = 0;
    if (a > 5) { r = a * 2; } else { r = a + 100; }
    output r;
  )";
  char buf[256];
  std::snprintf(buf, sizeof buf, src, 9);
  EXPECT_EQ(run_output(buf, "r"), Value(18));
  std::snprintf(buf, sizeof buf, src, 3);
  EXPECT_EQ(run_output(buf, "r"), Value(103));
}

TEST(FrontendCompile, IfWithoutElsePreservesValue) {
  EXPECT_EQ(run_output("int v = 10; if (v > 99) v = 0; output v;", "v"),
            Value(10));
  EXPECT_EQ(run_output("int v = 100; if (v > 99) v = 0; output v;", "v"),
            Value(0));
}

TEST(FrontendCompile, NestedIf) {
  const char* src = R"(
    int x = %d; int r = 0;
    if (x > 0) {
      if (x > 10) r = 2; else r = 1;
    } else r = 0 - 1;
    output r;
  )";
  char buf[256];
  std::snprintf(buf, sizeof buf, src, 20);
  EXPECT_EQ(run_output(buf, "r"), Value(2));
  std::snprintf(buf, sizeof buf, src, 5);
  EXPECT_EQ(run_output(buf, "r"), Value(1));
  std::snprintf(buf, sizeof buf, src, -3);
  EXPECT_EQ(run_output(buf, "r"), Value(-1));
}

TEST(FrontendCompile, IfJoinProducesExactlyOneToken) {
  // The join is a multi-producer input; only the taken side fires.
  const dataflow::Graph g = compile_source(
      "int a = 1; if (a > 0) a = 10; else a = 20; b = a + 1; output b;");
  const auto r = dataflow::Interpreter().run(g);
  EXPECT_EQ(r.output_values("b").size(), 1u);
  EXPECT_EQ(r.single_output("b"), Value(11));
  EXPECT_TRUE(r.leftovers.empty());
}

// ---- compiler: loops ----

TEST(FrontendCompile, PaperExampleTwoIsFig2Shaped) {
  const dataflow::Graph g = compile_source(R"(
    int y = 5; int z = 4; int x = 100;
    for (i = z; i > 0; i--) x = x + y;
    output x;
  )");
  // Exactly the Fig. 2 inventory plus the observer output.
  std::map<dataflow::NodeKind, std::size_t> kinds;
  for (const auto& n : g.nodes()) ++kinds[n.kind];
  EXPECT_EQ(g.node_count(), 13u);
  EXPECT_EQ(kinds[dataflow::NodeKind::IncTag], 3u);
  EXPECT_EQ(kinds[dataflow::NodeKind::Steer], 3u);
  EXPECT_EQ(kinds[dataflow::NodeKind::Cmp], 1u);
  EXPECT_EQ(kinds[dataflow::NodeKind::Arith], 2u);
  EXPECT_EQ(dataflow::Interpreter().run(g).single_output("x"), Value(120));
}

TEST(FrontendCompile, WhileLoopAccumulates) {
  EXPECT_EQ(run_output(R"(
    int n = 10; int acc = 0;
    while (n > 0) { acc = acc + n; n = n - 1; }
    output acc;
  )",
                       "acc"),
            Value(55));
}

TEST(FrontendCompile, ZeroIterationLoop) {
  EXPECT_EQ(run_output(
                "int x = 7; for (i = 0; i > 0; i--) x = x + 1; output x;",
                "x"),
            Value(7));
}

TEST(FrontendCompile, LoopConditionOnComputedExpression) {
  // Condition reads two carried variables.
  EXPECT_EQ(run_output(R"(
    int a = 0; int b = 16;
    while (a < b) { a = a + 2; b = b - 2; }
    output a;
  )",
                       "a"),
            Value(8));
}

TEST(FrontendCompile, IfInsideLoop) {
  // Alternating accumulation: odd iterations add, even subtract.
  EXPECT_EQ(run_output(R"(
    int n = 6; int acc = 100;
    while (n > 0) {
      if (n % 2 == 0) acc = acc + n; else acc = acc - n;
      n = n - 1;
    }
    output acc;
  )",
                       "acc"),
            Value(100 + 6 - 5 + 4 - 3 + 2 - 1));
}

TEST(FrontendCompile, TwoSequentialLoopsShareNothing) {
  // Loop 2 consumes only loop-1 exits: contexts match, so this compiles.
  EXPECT_EQ(run_output(R"(
    int a = 0;
    for (i = 3; i > 0; i--) a = a + 10;
    for (j = a; j > 28; j--) a = a + 1;
    output a;
  )",
                       "a"),
            Value(32));
}

TEST(FrontendCompile, CrossLoopContextMixRejected) {
  // Mixing a loop exit with a pre-loop value deadlocks on tags; the
  // compiler rejects it instead.
  EXPECT_THROW((void)compile_source(R"(
    int a = 1; int b = 2;
    for (i = 3; i > 0; i--) a = a + 1;
    m = a + b;
    output m;
  )"),
               CompileError);
}

TEST(FrontendCompile, NestedLoopValueEscapeRejected) {
  EXPECT_THROW((void)compile_source(R"(
    int s = 0;
    while (s < 10) {
      while (s < 5) s = s + 1;
      s = s + 2;
    }
    output s;
  )"),
               CompileError);
}

TEST(FrontendCompile, BareLiteralInsideLoopRejected) {
  EXPECT_THROW((void)compile_source(R"(
    int n = 3;
    while (n > 0) { n = 0; }
    output n;
  )"),
               CompileError);
}

TEST(FrontendCompile, LiteralLeftOperandsNormalize) {
  // 5 - x and 3 < x inside a loop body must become immediates.
  EXPECT_EQ(run_output(R"(
    int x = 1;
    while (3 < x + 2) { x = 5 - x; }
    output x;
  )",
                       "x"),
            Value(1 /* 3 < 3 is false immediately */));
  EXPECT_EQ(run_output(R"(
    int x = 2;
    while (3 < x + 2) { x = x - 2; }
    output x;
  )",
                       "x"),
            Value(0));
}

// ---- end-to-end: source -> dataflow -> Gamma ----

TEST(FrontendIntegration, CompiledProgramsAreGammaEquivalent) {
  const char* programs[] = {
      "int x = 1; int y = 5; int k = 3; int j = 2;"
      "m = (x + y) - (k * j); output m;",
      "int y = 5; int z = 4; int x = 100;"
      "for (i = z; i > 0; i--) x = x + y; output x;",
      "int a = 9; int r = 0;"
      "if (a > 5) r = a * 2; else r = a + 100; output r;",
      "int n = 8; int acc = 0;"
      "while (n > 0) { acc = acc + n * n; n = n - 1; } output acc;",
  };
  for (const char* src : programs) {
    const dataflow::Graph g = compile_source(src);
    const auto rep = translate::check_equivalence_seeds(g, 1, 5);
    EXPECT_TRUE(rep.equivalent) << src << "\n" << rep.detail;
  }
}

TEST(FrontendIntegration, LoopProgramRoundTripsThroughReconstruction) {
  const dataflow::Graph g = compile_source(
      "int y = 5; int z = 4; int x = 100;"
      "for (i = z; i > 0; i--) x = x + y; output x;");
  const auto conv = translate::dataflow_to_gamma(g);
  const dataflow::Graph back =
      translate::reconstruct_graph(conv.program, conv.initial);
  EXPECT_EQ(dataflow::Interpreter().run(back).single_output("x"), Value(120));
}

TEST(FrontendParse, HostileBlockNestingIsAParseErrorNotACrash) {
  const auto nested_ifs = [](std::size_t depth) {
    std::string src = "int x = 1;\n";
    for (std::size_t i = 0; i < depth; ++i) src += "if (x > 0) { ";
    src += "x = 2;";
    for (std::size_t i = 0; i < depth; ++i) src += " }";
    return src + "\noutput x;\n";
  };
  EXPECT_THROW((void)parse_source(nested_ifs(300'000)), ParseError);
  EXPECT_THROW((void)parse_source(nested_ifs(kMaxBlockDepth + 1)),
               ParseError);
  // Up to the limit the program parses and compiles.
  const ProgramAst ast = parse_source(nested_ifs(kMaxBlockDepth));
  EXPECT_EQ(ast.statements.size(), 3u);
  EXPECT_NO_THROW((void)compile_source(nested_ifs(kMaxBlockDepth)));
}

}  // namespace
}  // namespace gammaflow::frontend
