// Gamma DSL (Fig. 3 grammar): parsing the paper's listings, error handling,
// print->parse round trips.
#include <gtest/gtest.h>

#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/paper/figures.hpp"

namespace gammaflow::gamma::dsl {
namespace {

TEST(Dsl, ParsesEq2MinReaction) {
  const Reaction r = parse_reaction("R = replace x, y by x where x < y");
  EXPECT_EQ(r.name(), "R");
  EXPECT_EQ(r.arity(), 2u);
  ASSERT_EQ(r.branches().size(), 1u);
  EXPECT_NE(r.branches()[0].condition, nullptr);
  EXPECT_EQ(r.branches()[0].outputs.size(), 1u);
}

TEST(Dsl, ParsesPaperR1) {
  const Reaction r = parse_reaction(
      "R1 = replace [id1, 'A1'], [id2, 'B1'] by [id1 + id2, 'B2']");
  EXPECT_EQ(r.arity(), 2u);
  EXPECT_EQ(r.patterns()[0], Pattern::labeled("id1", "A1"));
  EXPECT_EQ(r.patterns()[1], Pattern::labeled("id2", "B1"));
  ASSERT_EQ(r.branches().size(), 1u);
  EXPECT_EQ(r.branches()[0].outputs[0][0]->to_string(), "id1 + id2");
  EXPECT_EQ(r.branches()[0].outputs[0][1]->literal(), Value("B2"));
}

TEST(Dsl, ParsesPaperR16WithIfElseAndByZero) {
  const Reaction r = parse_reaction(R"(
    R16 = replace [id1,'B13',v], [id2,'B15',v]
          by [id1,'B17',v]
          if id2 == 1
          by 0
          else
  )");
  ASSERT_EQ(r.branches().size(), 2u);
  EXPECT_NE(r.branches()[0].condition, nullptr);
  EXPECT_EQ(r.branches()[0].outputs.size(), 1u);
  EXPECT_TRUE(r.branches()[1].is_else);
  EXPECT_TRUE(r.branches()[1].outputs.empty());  // by 0
}

TEST(Dsl, ParsesCapitalizedIf) {
  // The paper writes "If id1 > 0".
  const Reaction r = parse_reaction(
      "R = replace [id1,'B12',v] by [1,'B14',v] If id1 > 0 by 0 else");
  ASSERT_EQ(r.branches().size(), 2u);
}

TEST(Dsl, ParsesLabelVariableWithDisjunction) {
  const Reaction r = parse_reaction(R"(
    R11 = replace [id1, x, v]
          by [id1, 'A12', v + 1]
          if (x == 'A1') or (x == 'A11')
  )");
  EXPECT_TRUE(r.patterns()[0].fields()[1].is_binder());
  EXPECT_EQ(r.branches()[0].condition->to_string(),
            "x == 'A1' or x == 'A11'");
}

TEST(Dsl, WhereIsSynonymForIf) {
  const Reaction a = parse_reaction("R = replace x, y by x where x < y");
  const Reaction b = parse_reaction("R = replace x, y by x if x < y");
  EXPECT_EQ(a.to_string(), b.to_string());
}

TEST(Dsl, ByZeroVersusLiteralZeroTuple) {
  const Reaction nothing = parse_reaction("R = replace x by 0 where x > 5");
  EXPECT_TRUE(nothing.branches()[0].outputs.empty());
  const Reaction zero = parse_reaction("R = replace x by [0] where x > 5");
  ASSERT_EQ(zero.branches()[0].outputs.size(), 1u);
  EXPECT_EQ(zero.branches()[0].outputs[0][0]->literal(), Value(0));
}

TEST(Dsl, ProgramJuxtapositionIsParallel) {
  const Program p = parse_program(R"(
    R1 = replace [x,'a'] by [x,'b']
    R2 = replace [x,'b'] by [x,'c']
  )");
  EXPECT_EQ(p.stage_count(), 1u);
  EXPECT_EQ(p.reaction_count(), 2u);
}

TEST(Dsl, PipeOperatorIsParallel) {
  const Program p = parse_program(
      "R1 = replace [x,'a'] by [x,'b'] | R2 = replace [x,'b'] by [x,'c']");
  EXPECT_EQ(p.stage_count(), 1u);
  EXPECT_EQ(p.reaction_count(), 2u);
}

TEST(Dsl, SemicolonStartsNewStage) {
  const Program p = parse_program(
      "R1 = replace [x,'a'] by [x,'b'] ; R2 = replace [x,'b'] by [x,'c']");
  EXPECT_EQ(p.stage_count(), 2u);
}

TEST(Dsl, DuplicateReactionNamesRejected) {
  EXPECT_THROW((void)parse_program(R"(
    R = replace x by 0 where x > 0
    R = replace x by 0 where x < 0
  )"),
               ProgramError);
}

TEST(Dsl, EmptyProgramRejected) {
  EXPECT_THROW((void)parse_program(""), Error);
  EXPECT_THROW((void)parse_program("# just a comment"), Error);
}

TEST(Dsl, SyntaxErrorsCarryLocation) {
  try {
    (void)parse_program("R1 = replace [x,, 'a'] by [x]");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_GT(e.column(), 1);
  }
}

TEST(Dsl, MissingByRejected) {
  EXPECT_THROW((void)parse_reaction("R = replace x, y"), ParseError);
}

TEST(Dsl, MissingAssignRejected) {
  EXPECT_THROW((void)parse_reaction("R replace x by x"), ParseError);
}

TEST(Dsl, TrailingGarbageInReactionRejected) {
  EXPECT_THROW((void)parse_reaction("R = replace x by x ]"), ParseError);
}

TEST(Dsl, NegativeLiteralInPattern) {
  const Reaction r = parse_reaction("R = replace [x, -1] by [x, 0]");
  EXPECT_EQ(r.patterns()[0].fields()[1].value(), Value(-1));
}

TEST(Dsl, ElseCannotPrecedeIf) {
  EXPECT_THROW((void)parse_reaction(R"(
    R = replace x, y
        by x else
        by y if x < y
  )"),
               ProgramError);
}

TEST(Dsl, CommentsInsidePrograms) {
  const Program p = parse_program(R"(
    # the min element program, Eq. (2)
    R = replace x, y
        by x          # keep the smaller
        where x < y
  )");
  EXPECT_EQ(p.reaction_count(), 1u);
}

// Round trip: print(parse(text)) re-parses to an identical print.
class DslRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(DslRoundTrip, PrintParsePrintFixpoint) {
  const Program p1 = parse_program(GetParam());
  const std::string s1 = print(p1);
  const Program p2 = parse_program(s1);
  EXPECT_EQ(print(p2), s1) << "printed form:\n" << s1;
  EXPECT_EQ(p2.reaction_count(), p1.reaction_count());
  EXPECT_EQ(p2.stage_count(), p1.stage_count());
}

INSTANTIATE_TEST_SUITE_P(
    Programs, DslRoundTrip,
    ::testing::Values(
        "R = replace x, y by x where x < y",
        "R1 = replace [id1,'A1'], [id2,'B1'] by [id1 + id2, 'B2']",
        "Rd1 = replace [a,'A1'], [b,'B1'], [c,'C1'], [d,'D1'] "
        "by [(a + b) - (c * d), 'm']",
        "S = replace [d,'D',v], [c,'C',v] by [d,'T',v] if c == 1 by 0 else",
        "A = replace [x,'p'] by [x,'q'] ; B = replace [x,'q'] by [x,'r']",
        "I = replace [id1, x, v] by [id1,'A12', v + 1] "
        "if (x == 'A1') or (x == 'A11')"));

TEST(Dsl, PaperListingsRoundTrip) {
  for (const Program& p :
       {paper::fig1_gamma(), paper::fig2_gamma(), paper::fig1_reduced_gamma(),
        paper::fig2_reduced_gamma()}) {
    const std::string s = print(p);
    const Program again = parse_program(s);
    EXPECT_EQ(print(again), s);
    EXPECT_EQ(again.reaction_count(), p.reaction_count());
  }
}

TEST(Dsl, HostileNestingInProgramTextIsAParseError) {
  // What `rungamma` reads from a .gamma file: a condition or an element
  // nested 300k deep fails to parse instead of overflowing the stack.
  const std::string deep = std::string(300'000, '(') + "x" +
                           std::string(300'000, ')');
  EXPECT_THROW((void)parse_program("R = replace x, y by x where " + deep),
               ParseError);
  EXPECT_THROW((void)parse_program("R = replace x, y by " + deep),
               ParseError);
  EXPECT_THROW((void)parse_elements("[" + std::string(300'000, '-') + "1]"),
               ParseError);
}

}  // namespace
}  // namespace gammaflow::gamma::dsl
