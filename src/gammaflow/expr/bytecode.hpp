// Batch lane code for reaction conditions: a one-pass compiler from the Expr
// AST into straight-line lane code, and a BatchVm that evaluates it over
// whole candidate column batches.
//
// Why: every engine evaluates reaction conditions on EVERY candidate match,
// so the Γ fixed-point hot path is the innermost match sweep. Under
// EvalMode::Batch the match pipeline gathers the innermost candidate bucket
// into int64 columns and evaluates a guard once per batch, producing a fire
// bitmap, instead of walking the AST once per candidate.
//
// Equivalence obligation (enforced by the differential suites in
// tests/test_bytecode.cpp): for every lane whose bindings are Ints, the
// bitmap bit is set exactly when expr::eval (the AST walker, the one scalar
// evaluator) returns a truthy Value on those bindings. The compiler folds
// only literal subtrees whose evaluation succeeds (the same guard
// expr::simplify uses) and applies NO algebraic identities: `0 + x -> x`
// style rewrites can erase the walker's type errors.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "gammaflow/expr/ast.hpp"

namespace gammaflow::expr {

/// How an engine evaluates reaction conditions: per candidate through the
/// AST walker (Scalar, `--no-batch`), or — default — batch bitmap
/// evaluation of conditions over whole candidate column batches, with the
/// walker for outputs and as the per-reaction fallback whenever a condition
/// is not batchable. RunOptions::batch selects per run.
enum class EvalMode : std::uint8_t { Scalar, Batch };

const char* to_string(EvalMode mode) noexcept;

// ---- Lane code ------------------------------------------------------------
//
// compile_batch() lowers a condition to straight-line lane code: and/or are
// evaluated eagerly on both sides and joined with AndBool/OrBool (sound
// because batch lanes are all-Int and the only faulting lane ops, Div/Mod by
// a runtime value, abort the whole batch instead of throwing), and variable
// and literal leaves are fused into the consuming instruction's operands
// (Kind::Slot / Kind::Imm), so the typical field comparison is ONE
// instruction per batch. Compilation refuses (nullopt) anything whose lane
// semantics could diverge from the walker — non-Int/Bool constants,
// Neg/arith/comparison on Bool, division by a literal zero — and the match
// pipeline then keeps the scalar probe path for that reaction.

/// One fused operand: a (vector or scalar) register, a binder slot, or an
/// Int/Bool literal immediate.
struct BatchOperand {
  enum class Kind : std::uint8_t { Reg, Slot, Imm };
  Kind kind = Kind::Imm;
  /// True when the operand varies per lane (a vector register, or a slot the
  /// caller feeds as a gathered column); false = broadcast scalar.
  bool vec = false;
  std::uint16_t index = 0;  // register or slot index (Kind::Reg / Kind::Slot)
  std::int64_t imm = 0;     // payload for Kind::Imm (Bool constants as 0/1)
};

/// Lane opcodes. Every lane is an int64 (Bool results are 0/1); comparisons
/// go through double exactly like value.cpp's compare(), so bitmaps are
/// bit-identical with per-element evaluation — including the >2^53
/// precision quirks.
enum class BatchOp : std::uint8_t {
  Add, Sub, Mul,
  Div, Mod,   // a zero divisor in ANY lane aborts the batch (scalar fallback)
  Lt, Le, Gt, Ge, Eq, Ne,
  Neg,
  Not,        // lane = (a == 0)
  Truthy,     // lane = (a != 0)
  AndBool, OrBool,  // eager joins of and/or (0/1 lanes)
  Ret,        // bitmap out: lane != 0
};

struct BatchInstr {
  BatchOp op = BatchOp::Ret;
  std::uint16_t dst = 0;
  bool dst_vec = false;  // result varies per lane (any operand does)
  BatchOperand a;
  BatchOperand b;
};

/// A batch-compiled condition. Immutable after compile_batch(); safe to
/// share across threads (each thread brings its own BatchVm).
struct BatchChunk {
  std::vector<BatchInstr> code;
  std::uint16_t register_count = 0;
  /// slot -> 1 when the code references it; the match pipeline gathers
  /// columns (vector slots) / type-checks bindings (scalar slots) only for
  /// slots the condition actually reads.
  std::vector<std::uint8_t> slot_used;
  /// Leaves folded into consuming operands (superinstruction fusion tally).
  std::size_t fused_loads = 0;
};

/// Compiles condition `e` for batch evaluation against a fixed slot layout:
/// every Var must name an entry of `slot_names` (its index becomes the Slot
/// operand); `slot_is_vector[i]` marks slots that vary per lane
/// (innermost-pattern binders) as opposed to broadcast scalars bound by the
/// outer patterns. Returns nullopt when the condition is not batchable (see
/// the note above, plus unknown variables) — callers keep the scalar path.
/// Throws ProgramError on a null expression.
[[nodiscard]] std::optional<BatchChunk> compile_batch(
    const ExprPtr& e, std::span<const std::string> slot_names,
    std::span<const std::uint8_t> slot_is_vector);

/// Executes batch chunks over n lanes. Owns reusable lane buffers so
/// steady-state evaluation allocates nothing; one BatchVm per thread.
class BatchVm {
 public:
  struct SlotInput {
    const std::int64_t* column = nullptr;  // lane data (vector slots)
    std::int64_t scalar = 0;               // broadcast value (scalar slots)
  };

  /// Evaluates `chunk` over lanes 0..n-1; on success `truthy_out[i]` is 1
  /// exactly when the walker would return a truthy Value on lane i's
  /// bindings. Returns false when any lane divides by zero — the caller must
  /// fall back to the scalar path for the whole batch, which reproduces the
  /// walker's TypeError iff scalar probing actually reaches a faulting lane.
  [[nodiscard]] bool run(const BatchChunk& chunk,
                         std::span<const SlotInput> slots, std::size_t n,
                         std::vector<std::uint8_t>& truthy_out);

 private:
  std::vector<std::vector<std::int64_t>> regs_;
};

/// Process-wide batch-evaluation counters (relaxed; engines report per-run
/// deltas as `vm.batch_evals` and the `vm.batch_width` histogram).
[[nodiscard]] std::uint64_t batch_evals() noexcept;
[[nodiscard]] std::uint64_t batch_lanes() noexcept;
/// Width histogram: counts[b] = evals whose lane count n has bit_width(n)
/// == b, i.e. n in [2^(b-1), 2^b). Widths beyond 2^31 share the last bucket.
inline constexpr std::size_t kBatchWidthBuckets = 33;
[[nodiscard]] std::array<std::uint64_t, kBatchWidthBuckets>
batch_width_counts() noexcept;

}  // namespace gammaflow::expr
