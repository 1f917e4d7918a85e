// Expression IR shared between the two models. Gamma reaction conditions and
// by-list outputs are expressions over the replace-list variables (id1, id2,
// tag variable v, ...); Algorithm 2 walks these trees to emit dataflow
// arithmetic/comparison nodes, and Algorithm 1 emits reactions whose bodies
// are these trees. Nodes are immutable and shared via ExprPtr.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "gammaflow/common/value.hpp"

namespace gammaflow::expr {

enum class BinOp : std::uint8_t {
  Add, Sub, Mul, Div, Mod,
  Lt, Le, Gt, Ge, Eq, Ne,
  And, Or,
};

enum class UnOp : std::uint8_t { Neg, Not };

/// Operator surface spelling ("+", "<=", "and", ...), as the DSL prints it.
const char* to_string(BinOp op) noexcept;
const char* to_string(UnOp op) noexcept;

[[nodiscard]] bool is_arithmetic(BinOp op) noexcept;  // Add..Mod
[[nodiscard]] bool is_comparison(BinOp op) noexcept;  // Lt..Ne
[[nodiscard]] bool is_logical(BinOp op) noexcept;     // And, Or

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

class Expr {
 public:
  enum class Kind : std::uint8_t { Literal, Var, Unary, Binary };

  [[nodiscard]] Kind kind() const noexcept { return kind_; }

  // Literal
  [[nodiscard]] const Value& literal() const noexcept { return literal_; }
  // Var
  [[nodiscard]] const std::string& var() const noexcept { return name_; }
  // Unary
  [[nodiscard]] UnOp un_op() const noexcept { return un_op_; }
  [[nodiscard]] const ExprPtr& operand() const noexcept { return lhs_; }
  // Binary
  [[nodiscard]] BinOp bin_op() const noexcept { return bin_op_; }
  [[nodiscard]] const ExprPtr& lhs() const noexcept { return lhs_; }
  [[nodiscard]] const ExprPtr& rhs() const noexcept { return rhs_; }

  /// Precedence-aware rendering that re-parses to an equal tree.
  [[nodiscard]] std::string to_string() const;

  /// All distinct variable names referenced, sorted.
  [[nodiscard]] std::set<std::string> free_vars() const;

  /// Number of nodes in the tree (bench sizing, fusion cost model).
  [[nodiscard]] std::size_t size() const noexcept;

  /// Longest root-to-leaf path in nodes (a leaf is 1): the recursion depth
  /// of every tree walk. O(1) — computed once by the factories.
  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }

  // Factories (the only way to build nodes).
  static ExprPtr lit(Value v);
  static ExprPtr var(std::string name);
  static ExprPtr unary(UnOp op, ExprPtr operand);
  static ExprPtr binary(BinOp op, ExprPtr lhs, ExprPtr rhs);

 private:
  Expr() = default;

  Kind kind_ = Kind::Literal;
  UnOp un_op_ = UnOp::Neg;
  BinOp bin_op_ = BinOp::Add;
  std::uint32_t depth_ = 1;
  Value literal_;
  std::string name_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

/// Structural equality (same shape, ops, literals, and names).
[[nodiscard]] bool equal(const ExprPtr& a, const ExprPtr& b) noexcept;

/// Convenience builders for tests and generators.
inline ExprPtr lit(const Value& v) { return Expr::lit(v); }
inline ExprPtr var(std::string name) { return Expr::var(std::move(name)); }
inline ExprPtr operator+(ExprPtr a, ExprPtr b) {
  return Expr::binary(BinOp::Add, std::move(a), std::move(b));
}
inline ExprPtr operator-(ExprPtr a, ExprPtr b) {
  return Expr::binary(BinOp::Sub, std::move(a), std::move(b));
}
inline ExprPtr operator*(ExprPtr a, ExprPtr b) {
  return Expr::binary(BinOp::Mul, std::move(a), std::move(b));
}
inline ExprPtr operator/(ExprPtr a, ExprPtr b) {
  return Expr::binary(BinOp::Div, std::move(a), std::move(b));
}

}  // namespace gammaflow::expr
