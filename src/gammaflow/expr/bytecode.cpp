#include "gammaflow/expr/bytecode.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <limits>
#include <optional>
#include <utility>

#include "gammaflow/common/error.hpp"
#include "gammaflow/expr/eval.hpp"

namespace gammaflow::expr {

namespace {

std::atomic<std::uint64_t> g_batch_evals{0};
std::atomic<std::uint64_t> g_batch_lanes{0};
std::array<std::atomic<std::uint64_t>, kBatchWidthBuckets> g_batch_width{};

constexpr std::size_t kOperandLimit =
    std::numeric_limits<std::uint16_t>::max();

/// Runs `fn`; false when it throws one of the walker's errors.
template <typename Fn>
bool succeeds(Fn&& fn) {
  try {
    fn();
    return true;
  } catch (const Error&) {
    return false;
  }
}

/// Evaluates a literal-only subtree into `out` exactly as the walker would,
/// including short-circuit logic: `lhs and rhs` folds to false when lhs
/// folds falsy even if rhs references variables or would throw — the walker
/// never evaluates rhs in that case either. Returns false (no fold) when
/// the evaluated path reads a variable or evaluation throws. Results go
/// through an out-parameter: returning std::optional<Value> trips GCC 12's
/// -Wmaybe-uninitialized on the variant's string under the sanitizers.
bool fold(const Expr& e, Value& out) {
  switch (e.kind()) {
    case Expr::Kind::Literal:
      out = e.literal();
      return true;
    case Expr::Kind::Var:
      return false;
    case Expr::Kind::Unary: {
      Value a;
      return fold(*e.operand(), a) &&
             succeeds([&] { out = apply(e.un_op(), a); });
    }
    case Expr::Kind::Binary:
      break;
  }
  Value a;
  if (!fold(*e.lhs(), a)) return false;
  const BinOp op = e.bin_op();
  Value b;
  if (op == BinOp::And || op == BinOp::Or) {
    bool lhs = false;
    if (!succeeds([&] { lhs = a.truthy(); })) return false;
    if (lhs == (op == BinOp::Or)) {
      out = Value(lhs);
      return true;
    }
    return fold(*e.rhs(), b) && succeeds([&] { out = Value(b.truthy()); });
  }
  return fold(*e.rhs(), b) && succeeds([&] { out = apply(op, a, b); });
}

/// Lowers a condition AST to lane code in one recursive pass. Every
/// subexpression has a static lane kind (Int or Bool lanes); leaves — binder
/// slots and Int/Bool literals, including folded literal-only subtrees —
/// are never materialized: they come back as operands the consuming
/// instruction fuses. Register discipline: a node computes into `dst` and
/// its right operand into dst+1, so live registers form a stack and the
/// high-water mark is the tree's right-spine depth. Anything outside the
/// Int/Bool lane model refuses the whole condition.
class LaneCompiler {
 public:
  LaneCompiler(std::span<const std::string> slot_names,
               std::span<const std::uint8_t> slot_is_vector)
      : slot_names_(slot_names), slot_vec_(slot_is_vector) {}

  std::optional<BatchChunk> compile(const Expr& e) {
    out_.slot_used.assign(slot_vec_.size(), 0);
    const std::optional<Lowered> result = lower(e, 0);
    if (!result) return std::nullopt;
    emit(BatchOp::Ret, 0, result->operand, BatchOperand{}, Kind::Bool);
    return std::move(out_);
  }

 private:
  enum class Kind : std::uint8_t { Int, Bool };
  struct Lowered {
    Kind kind;
    BatchOperand operand;
  };

  std::optional<Lowered> lower(const Expr& e, std::size_t dst) {
    if (dst >= kOperandLimit) return std::nullopt;
    switch (e.kind()) {
      case Expr::Kind::Literal:
        return immediate(e.literal());
      case Expr::Kind::Var:
        return slot(e.var());
      case Expr::Kind::Unary:
      case Expr::Kind::Binary:
        break;
    }
    // A literal-only subtree (or a short-circuit whose evaluated path is
    // literal-only) becomes one immediate; a throwing one (1/0) is lowered
    // node by node, where the refusal rules below reject it, so only the
    // walker raises its error.
    if (Value v; fold(e, v)) return immediate(v);
    const auto reg = static_cast<std::uint16_t>(dst);
    if (e.kind() == Expr::Kind::Unary) {
      const auto a = lower(*e.operand(), dst);
      if (!a) return std::nullopt;
      if (e.un_op() == UnOp::Neg) {
        if (a->kind != Kind::Int) return std::nullopt;
        return emit(BatchOp::Neg, reg, a->operand, BatchOperand{}, Kind::Int);
      }
      return emit(BatchOp::Not, reg, a->operand, BatchOperand{}, Kind::Bool);
    }
    const auto lhs = lower(*e.lhs(), dst);
    if (!lhs) return std::nullopt;
    if (e.bin_op() == BinOp::And || e.bin_op() == BinOp::Or) {
      // `a and b` == truthy(a) ? Bool(truthy(b)) : Bool(false): both sides
      // evaluate eagerly (no lane op throws) and join bitwise.
      const Lowered l =
          emit(BatchOp::Truthy, reg, lhs->operand, BatchOperand{}, Kind::Bool);
      const auto rhs = lower(*e.rhs(), dst + 1);
      if (!rhs) return std::nullopt;
      const auto next = static_cast<std::uint16_t>(dst + 1);
      const Lowered r = emit(BatchOp::Truthy, next, rhs->operand,
                             BatchOperand{}, Kind::Bool);
      return emit(e.bin_op() == BinOp::And ? BatchOp::AndBool : BatchOp::OrBool,
                  reg, l.operand, r.operand, Kind::Bool);
    }
    const auto rhs = lower(*e.rhs(), dst + 1);
    if (!rhs || lhs->kind != Kind::Int || rhs->kind != Kind::Int) {
      return std::nullopt;
    }
    const BinOp op = e.bin_op();
    // A literal zero divisor is a guaranteed TypeError on the evaluated
    // path — only the walker raises it with the right text.
    if ((op == BinOp::Div || op == BinOp::Mod) &&
        rhs->operand.kind == BatchOperand::Kind::Imm && rhs->operand.imm == 0) {
      return std::nullopt;
    }
    return emit(lane_op(op), reg, lhs->operand, rhs->operand,
                is_comparison(op) ? Kind::Bool : Kind::Int);
  }

  std::optional<Lowered> immediate(const Value& v) {
    if (const std::int64_t* i = v.if_int()) {
      return leaf(Kind::Int,
                  BatchOperand{BatchOperand::Kind::Imm, false, 0, *i});
    }
    if (const bool* b = v.if_bool()) {
      return leaf(Kind::Bool, BatchOperand{BatchOperand::Kind::Imm, false, 0,
                                           *b ? std::int64_t{1} : 0});
    }
    return std::nullopt;  // Real/Str/Nil constants: lanes are int64 only
  }

  std::optional<Lowered> slot(const std::string& name) {
    const auto it = std::find(slot_names_.begin(), slot_names_.end(), name);
    const auto s = static_cast<std::size_t>(it - slot_names_.begin());
    if (s >= slot_vec_.size() || s >= kOperandLimit) return std::nullopt;
    out_.slot_used[s] = 1;
    return leaf(Kind::Int,
                BatchOperand{BatchOperand::Kind::Slot, slot_vec_[s] != 0,
                             static_cast<std::uint16_t>(s), 0});
  }

  Lowered leaf(Kind kind, BatchOperand operand) {
    ++out_.fused_loads;  // every leaf is consumed by exactly one instruction
    return Lowered{kind, operand};
  }

  Lowered emit(BatchOp op, std::uint16_t dst, BatchOperand a, BatchOperand b,
               Kind kind) {
    const bool vec = a.vec || b.vec;
    out_.code.push_back(BatchInstr{op, dst, vec, a, b});
    out_.register_count = std::max<std::uint16_t>(
        out_.register_count, static_cast<std::uint16_t>(dst + 1));
    return Lowered{kind, BatchOperand{BatchOperand::Kind::Reg, vec, dst, 0}};
  }

  static BatchOp lane_op(BinOp op) {
    switch (op) {
      case BinOp::Add: return BatchOp::Add;
      case BinOp::Sub: return BatchOp::Sub;
      case BinOp::Mul: return BatchOp::Mul;
      case BinOp::Div: return BatchOp::Div;
      case BinOp::Mod: return BatchOp::Mod;
      case BinOp::Lt: return BatchOp::Lt;
      case BinOp::Le: return BatchOp::Le;
      case BinOp::Gt: return BatchOp::Gt;
      case BinOp::Ge: return BatchOp::Ge;
      case BinOp::Eq: return BatchOp::Eq;
      case BinOp::Ne: return BatchOp::Ne;
      case BinOp::And:
      case BinOp::Or: break;  // joined in lower(), never a lane opcode
    }
    throw ProgramError("compile_batch: operator has no lane opcode");
  }

  std::span<const std::string> slot_names_;
  std::span<const std::uint8_t> slot_vec_;
  BatchChunk out_;
};

}  // namespace

const char* to_string(EvalMode mode) noexcept {
  switch (mode) {
    case EvalMode::Scalar: return "scalar";
    case EvalMode::Batch: return "batch";
  }
  return "?";
}

std::optional<BatchChunk> compile_batch(
    const ExprPtr& e, std::span<const std::string> slot_names,
    std::span<const std::uint8_t> slot_is_vector) {
  if (!e) throw ProgramError("compile_batch: null expression");
  return LaneCompiler(slot_names, slot_is_vector).compile(*e);
}

bool BatchVm::run(const BatchChunk& chunk, std::span<const SlotInput> slots,
                  std::size_t n, std::vector<std::uint8_t>& truthy_out) {
  g_batch_evals.fetch_add(1, std::memory_order_relaxed);
  g_batch_lanes.fetch_add(static_cast<std::uint64_t>(n),
                          std::memory_order_relaxed);
  const std::size_t width_bucket = std::min<std::size_t>(
      static_cast<std::size_t>(std::bit_width(n)), kBatchWidthBuckets - 1);
  g_batch_width[width_bucket].fetch_add(1, std::memory_order_relaxed);

  if (regs_.size() < chunk.register_count) regs_.resize(chunk.register_count);

  struct Src {
    const std::int64_t* col;  // null = broadcast scalar `s`
    std::int64_t s;
  };
  // Resolve dst BEFORE operands: dst may alias an operand register, and the
  // lane-buffer resize must happen before we take that register's pointer.
  auto dst_of = [&](const BatchInstr& in) -> std::int64_t* {
    std::vector<std::int64_t>& d = regs_[in.dst];
    const std::size_t need = in.dst_vec ? n : 1;
    if (d.size() < need) d.resize(need);
    return d.data();
  };
  auto src = [&](const BatchOperand& o) -> Src {
    switch (o.kind) {
      case BatchOperand::Kind::Imm:
        return Src{nullptr, o.imm};
      case BatchOperand::Kind::Slot: {
        const SlotInput& si = slots[o.index];
        return o.vec ? Src{si.column, 0} : Src{nullptr, si.scalar};
      }
      case BatchOperand::Kind::Reg: {
        std::vector<std::int64_t>& r = regs_[o.index];
        return o.vec ? Src{r.data(), 0} : Src{nullptr, r.empty() ? 0 : r[0]};
      }
    }
    return Src{nullptr, 0};
  };
  auto binary = [&](const BatchInstr& in, auto f) {
    std::int64_t* d = dst_of(in);
    const Src a = src(in.a);
    const Src b = src(in.b);
    if (!in.dst_vec) {
      d[0] = f(a.s, b.s);
    } else if (a.col != nullptr && b.col != nullptr) {
      const std::int64_t* x = a.col;
      const std::int64_t* y = b.col;
      for (std::size_t i = 0; i < n; ++i) d[i] = f(x[i], y[i]);
    } else if (a.col != nullptr) {
      const std::int64_t* x = a.col;
      const std::int64_t ys = b.s;
      for (std::size_t i = 0; i < n; ++i) d[i] = f(x[i], ys);
    } else {
      const std::int64_t xs = a.s;
      const std::int64_t* y = b.col;
      for (std::size_t i = 0; i < n; ++i) d[i] = f(xs, y[i]);
    }
  };
  auto unary = [&](const BatchInstr& in, auto f) {
    std::int64_t* d = dst_of(in);
    const Src a = src(in.a);
    if (!in.dst_vec) {
      d[0] = f(a.s);
      return;
    }
    const std::int64_t* x = a.col;
    for (std::size_t i = 0; i < n; ++i) d[i] = f(x[i]);
  };
  // Any zero divisor — even in a lane the scalar scan might never reach —
  // aborts the batch; the caller's scalar fallback then reproduces the
  // walker's exact match-or-throw order.
  auto divmod = [&](const BatchInstr& in, auto f) -> bool {
    std::int64_t* d = dst_of(in);
    const Src a = src(in.a);
    const Src b = src(in.b);
    if (b.col == nullptr) {
      if (b.s == 0) return false;
      if (!in.dst_vec) {
        d[0] = f(a.s, b.s);
      } else {
        const std::int64_t* x = a.col;
        const std::int64_t ys = b.s;
        for (std::size_t i = 0; i < n; ++i) d[i] = f(x[i], ys);
      }
      return true;
    }
    const std::int64_t* y = b.col;
    for (std::size_t i = 0; i < n; ++i) {
      if (y[i] == 0) return false;
    }
    if (a.col != nullptr) {
      const std::int64_t* x = a.col;
      for (std::size_t i = 0; i < n; ++i) d[i] = f(x[i], y[i]);
    } else {
      const std::int64_t xs = a.s;
      for (std::size_t i = 0; i < n; ++i) d[i] = f(xs, y[i]);
    }
    return true;
  };
  auto as_lane = [](bool v) { return v ? std::int64_t{1} : std::int64_t{0}; };

  for (const BatchInstr& in : chunk.code) {
    switch (in.op) {
      case BatchOp::Add:
        binary(in, [](std::int64_t x, std::int64_t y) {
          return wrapping::add(x, y);
        });
        break;
      case BatchOp::Sub:
        binary(in, [](std::int64_t x, std::int64_t y) {
          return wrapping::sub(x, y);
        });
        break;
      case BatchOp::Mul:
        binary(in, [](std::int64_t x, std::int64_t y) {
          return wrapping::mul(x, y);
        });
        break;
      case BatchOp::Div:
        if (!divmod(in, [](std::int64_t x, std::int64_t y) {
              return wrapping::div(x, y);
            }))
          return false;
        break;
      case BatchOp::Mod:
        if (!divmod(in, [](std::int64_t x, std::int64_t y) {
              return wrapping::mod(x, y);
            }))
          return false;
        break;
      // Comparisons go through double exactly like value.cpp's compare(),
      // so lanes match bit-for-bit even past 2^53.
      case BatchOp::Lt:
        binary(in, [&](std::int64_t x, std::int64_t y) {
          return as_lane(static_cast<double>(x) < static_cast<double>(y));
        });
        break;
      case BatchOp::Le:
        binary(in, [&](std::int64_t x, std::int64_t y) {
          return as_lane(static_cast<double>(x) <= static_cast<double>(y));
        });
        break;
      case BatchOp::Gt:
        binary(in, [&](std::int64_t x, std::int64_t y) {
          return as_lane(static_cast<double>(x) > static_cast<double>(y));
        });
        break;
      case BatchOp::Ge:
        binary(in, [&](std::int64_t x, std::int64_t y) {
          return as_lane(static_cast<double>(x) >= static_cast<double>(y));
        });
        break;
      case BatchOp::Eq:
        binary(in, [&](std::int64_t x, std::int64_t y) {
          return as_lane(static_cast<double>(x) == static_cast<double>(y));
        });
        break;
      case BatchOp::Ne:
        binary(in, [&](std::int64_t x, std::int64_t y) {
          return as_lane(static_cast<double>(x) != static_cast<double>(y));
        });
        break;
      case BatchOp::Neg:
        unary(in, [](std::int64_t x) { return wrapping::neg(x); });
        break;
      case BatchOp::Not:
        unary(in, [&](std::int64_t x) { return as_lane(x == 0); });
        break;
      case BatchOp::Truthy:
        unary(in, [&](std::int64_t x) { return as_lane(x != 0); });
        break;
      case BatchOp::AndBool:
        binary(in, [](std::int64_t x, std::int64_t y) { return x & y; });
        break;
      case BatchOp::OrBool:
        binary(in, [](std::int64_t x, std::int64_t y) { return x | y; });
        break;
      case BatchOp::Ret: {
        const Src a = src(in.a);
        truthy_out.resize(n);
        if (a.col != nullptr) {
          for (std::size_t i = 0; i < n; ++i) {
            truthy_out[i] = a.col[i] != 0 ? std::uint8_t{1} : std::uint8_t{0};
          }
        } else {
          std::fill(truthy_out.begin(), truthy_out.end(),
                    a.s != 0 ? std::uint8_t{1} : std::uint8_t{0});
        }
        return true;
      }
    }
  }
  return false;  // no Ret: malformed chunk — treat as a fallback signal
}

std::uint64_t batch_evals() noexcept {
  return g_batch_evals.load(std::memory_order_relaxed);
}

std::uint64_t batch_lanes() noexcept {
  return g_batch_lanes.load(std::memory_order_relaxed);
}

std::array<std::uint64_t, kBatchWidthBuckets> batch_width_counts() noexcept {
  std::array<std::uint64_t, kBatchWidthBuckets> out{};
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = g_batch_width[i].load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace gammaflow::expr
