#include "gammaflow/expr/ast.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>

namespace gammaflow::expr {

const char* to_string(BinOp op) noexcept {
  switch (op) {
    case BinOp::Add: return "+";
    case BinOp::Sub: return "-";
    case BinOp::Mul: return "*";
    case BinOp::Div: return "/";
    case BinOp::Mod: return "%";
    case BinOp::Lt: return "<";
    case BinOp::Le: return "<=";
    case BinOp::Gt: return ">";
    case BinOp::Ge: return ">=";
    case BinOp::Eq: return "==";
    case BinOp::Ne: return "!=";
    case BinOp::And: return "and";
    case BinOp::Or: return "or";
  }
  return "?";
}

const char* to_string(UnOp op) noexcept {
  switch (op) {
    case UnOp::Neg: return "-";
    case UnOp::Not: return "not";
  }
  return "?";
}

bool is_arithmetic(BinOp op) noexcept {
  return op >= BinOp::Add && op <= BinOp::Mod;
}
bool is_comparison(BinOp op) noexcept { return op >= BinOp::Lt && op <= BinOp::Ne; }
bool is_logical(BinOp op) noexcept { return op == BinOp::And || op == BinOp::Or; }

namespace {

/// 1 + the deepest child, pinned at the uint32 ceiling.
std::uint32_t saturated_depth(std::size_t child) {
  return static_cast<std::uint32_t>(
      std::min<std::size_t>(child + 1, UINT32_MAX));
}

}  // namespace

ExprPtr Expr::lit(Value v) {
  auto node = std::shared_ptr<Expr>(new Expr());
  node->kind_ = Kind::Literal;
  node->literal_ = std::move(v);
  return node;
}

ExprPtr Expr::var(std::string name) {
  auto node = std::shared_ptr<Expr>(new Expr());
  node->kind_ = Kind::Var;
  node->name_ = std::move(name);
  return node;
}

ExprPtr Expr::unary(UnOp op, ExprPtr operand) {
  auto node = std::shared_ptr<Expr>(new Expr());
  node->kind_ = Kind::Unary;
  node->un_op_ = op;
  node->depth_ = saturated_depth(operand->depth());
  node->lhs_ = std::move(operand);
  return node;
}

ExprPtr Expr::binary(BinOp op, ExprPtr lhs, ExprPtr rhs) {
  auto node = std::shared_ptr<Expr>(new Expr());
  node->kind_ = Kind::Binary;
  node->bin_op_ = op;
  node->depth_ = saturated_depth(std::max(lhs->depth(), rhs->depth()));
  node->lhs_ = std::move(lhs);
  node->rhs_ = std::move(rhs);
  return node;
}

namespace {

// Binding strength; higher binds tighter. Mirrors the parser's ladder so
// to_string() output re-parses to the identical tree.
int precedence(BinOp op) {
  switch (op) {
    case BinOp::Or: return 1;
    case BinOp::And: return 2;
    case BinOp::Lt:
    case BinOp::Le:
    case BinOp::Gt:
    case BinOp::Ge:
    case BinOp::Eq:
    case BinOp::Ne: return 3;
    case BinOp::Add:
    case BinOp::Sub: return 4;
    case BinOp::Mul:
    case BinOp::Div:
    case BinOp::Mod: return 5;
  }
  return 0;
}

constexpr int kUnaryPrecedence = 6;

void print(const Expr& e, std::ostream& os, int parent_prec) {
  switch (e.kind()) {
    case Expr::Kind::Literal:
      os << e.literal();
      return;
    case Expr::Kind::Var:
      os << e.var();
      return;
    case Expr::Kind::Unary: {
      const bool parens = parent_prec > kUnaryPrecedence;
      if (parens) os << '(';
      os << to_string(e.un_op());
      if (e.un_op() == UnOp::Not) os << ' ';
      print(*e.operand(), os, kUnaryPrecedence);
      if (parens) os << ')';
      return;
    }
    case Expr::Kind::Binary: {
      const int prec = precedence(e.bin_op());
      const bool parens = parent_prec > prec;
      if (parens) os << '(';
      // Left-associative: left child may share our precedence, the right
      // child must bind strictly tighter.
      print(*e.lhs(), os, prec);
      os << ' ' << to_string(e.bin_op()) << ' ';
      print(*e.rhs(), os, prec + 1);
      if (parens) os << ')';
      return;
    }
  }
}

void collect_vars(const Expr& e, std::set<std::string>& out) {
  switch (e.kind()) {
    case Expr::Kind::Literal:
      return;
    case Expr::Kind::Var:
      out.insert(e.var());
      return;
    case Expr::Kind::Unary:
      collect_vars(*e.operand(), out);
      return;
    case Expr::Kind::Binary:
      collect_vars(*e.lhs(), out);
      collect_vars(*e.rhs(), out);
      return;
  }
}

}  // namespace

std::string Expr::to_string() const {
  std::ostringstream os;
  print(*this, os, 0);
  return os.str();
}

std::set<std::string> Expr::free_vars() const {
  std::set<std::string> out;
  collect_vars(*this, out);
  return out;
}

std::size_t Expr::size() const noexcept {
  switch (kind_) {
    case Kind::Literal:
    case Kind::Var: return 1;
    case Kind::Unary: return 1 + lhs_->size();
    case Kind::Binary: return 1 + lhs_->size() + rhs_->size();
  }
  return 1;
}

bool equal(const ExprPtr& a, const ExprPtr& b) noexcept {
  if (a == b) return true;
  if (!a || !b) return false;
  if (a->kind() != b->kind()) return false;
  switch (a->kind()) {
    case Expr::Kind::Literal: return a->literal() == b->literal();
    case Expr::Kind::Var: return a->var() == b->var();
    case Expr::Kind::Unary:
      return a->un_op() == b->un_op() && equal(a->operand(), b->operand());
    case Expr::Kind::Binary:
      return a->bin_op() == b->bin_op() && equal(a->lhs(), b->lhs()) &&
             equal(a->rhs(), b->rhs());
  }
  return false;
}

}  // namespace gammaflow::expr
