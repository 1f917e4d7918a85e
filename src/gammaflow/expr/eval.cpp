#include "gammaflow/expr/eval.hpp"

namespace gammaflow::expr {

Value apply(BinOp op, const Value& a, const Value& b) {
  switch (op) {
    case BinOp::Add: return add(a, b);
    case BinOp::Sub: return sub(a, b);
    case BinOp::Mul: return mul(a, b);
    case BinOp::Div: return div(a, b);
    case BinOp::Mod: return mod(a, b);
    case BinOp::Lt: return cmp_lt(a, b);
    case BinOp::Le: return cmp_le(a, b);
    case BinOp::Gt: return cmp_gt(a, b);
    case BinOp::Ge: return cmp_ge(a, b);
    case BinOp::Eq: return cmp_eq(a, b);
    case BinOp::Ne: return cmp_ne(a, b);
    case BinOp::And: return logic_and(a, b);
    case BinOp::Or: return logic_or(a, b);
  }
  throw TypeError("unknown binary operator");
}

Value apply(UnOp op, const Value& a) {
  switch (op) {
    case UnOp::Neg: return neg(a);
    case UnOp::Not: return logic_not(a);
  }
  throw TypeError("unknown unary operator");
}

Value eval(const Expr& e, const Env& env) {
  switch (e.kind()) {
    case Expr::Kind::Literal:
      return e.literal();
    case Expr::Kind::Var:
      return env.lookup(e.var());
    case Expr::Kind::Unary:
      return apply(e.un_op(), eval(*e.operand(), env));
    case Expr::Kind::Binary: {
      // Short-circuit logic: the paper's conditions use `or` over label
      // alternatives where the right side may reference the same vars, but
      // short-circuiting also avoids spurious TypeErrors on partial data.
      if (e.bin_op() == BinOp::And) {
        return eval(*e.lhs(), env).truthy() ? Value(eval(*e.rhs(), env).truthy())
                                            : Value(false);
      }
      if (e.bin_op() == BinOp::Or) {
        return eval(*e.lhs(), env).truthy() ? Value(true)
                                            : Value(eval(*e.rhs(), env).truthy());
      }
      // Operands evaluate left-to-right, explicitly sequenced: inside an
      // apply() call the order would be unspecified, and WHICH side's error
      // surfaces from a double-faulting expression must not depend on the
      // compiler.
      {
        const Value a = eval(*e.lhs(), env);
        const Value b = eval(*e.rhs(), env);
        return apply(e.bin_op(), a, b);
      }
    }
  }
  throw TypeError("unknown expression kind");
}

}  // namespace gammaflow::expr
