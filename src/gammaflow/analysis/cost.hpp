// Cost model + label-cardinality analysis feeding the §III-A3 auto-reduction
// planner (analysis/optimize.hpp). Two halves:
//
//   1. Boundedness — an abstract interpretation over per-label cardinalities.
//      The abstract value for a label is an upper bound on how many elements
//      can EVER exist under it across a run (initial population plus
//      everything produced), widened to "possibly unbounded" when a growth
//      cycle keeps feeding it. Labels whose net change is provably <= 0 in
//      every reaction are pinned at their initial count (a shrinking label
//      never exceeds what it started with). The per-label growth sign
//      (shrinking / bounded / possibly-unbounded) doubles as a standalone
//      divergence lint in `gammaflow check`.
//
//   2. Cost — per-reaction work estimated as match cost (arity x live-label
//      cardinality) + body cost (evaluation steps of the guards and
//      outputs) + store traffic (elements removed + inserted), scaled by a
//      firing-count estimate from the same label bounds. Stage time divides
//      total work by min(workers, concurrent match opportunities), which is
//      exactly the paper's trade: fusing a chain shrinks total work (the
//      intermediate label's store round-trip disappears) but also shrinks
//      the number of independent matches, so under enough workers the fused
//      form can lose. Constants are calibrated against bench_reductions
//      (EXPERIMENTS E16).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "gammaflow/gamma/multiset.hpp"
#include "gammaflow/gamma/program.hpp"

namespace gammaflow::analysis {

/// Growth sign of one label's population (or of the whole multiset).
enum class Growth {
  Shrinking,          // provably never exceeds its initial count
  Bounded,            // finite upper bound exists
  PossiblyUnbounded,  // a growth cycle may feed it forever
};
const char* to_string(Growth g) noexcept;

struct LabelBound {
  /// Upper bound on the label's LIVE population (elements present at any
  /// one instant — what a match scan can see). Meaningful only when
  /// growth != PossiblyUnbounded. Internally the analysis also tracks the
  /// cumulative count of elements that ever exist, which is what bounds
  /// firings; the two differ for self-feeding labels.
  std::size_t bound = 0;
  Growth growth = Growth::Bounded;
  [[nodiscard]] bool unbounded() const noexcept {
    return growth == Growth::PossiblyUnbounded;
  }
};

struct BoundednessReport {
  std::map<std::string, LabelBound> labels;
  /// True when `initial` was non-empty, making the bounds absolute counts.
  /// When false the analysis seeds every label with one symbolic element —
  /// growth signs are still trustworthy, absolute bounds are not, and
  /// cardinality-driven dead-reaction elimination must not fire.
  bool initial_known = false;
  /// Whole-multiset verdict; folds in unlabeled reactions (classic Gamma
  /// `replace x, y by x`) which the per-label map cannot see.
  Growth overall = Growth::Bounded;

  /// Bound for `label`, or `fallback` when unknown or unbounded.
  [[nodiscard]] std::size_t bound_or(const std::string& label,
                                     std::size_t fallback) const;
  [[nodiscard]] bool any_unbounded() const;
};

/// Runs the cardinality abstract interpretation. Sound over-approximation:
/// production counts every output that COULD carry the label (wildcard
/// outputs poison everything), consumption is only trusted when a pattern
/// pins the label. Conditions are ignored (they can only reduce firings).
[[nodiscard]] BoundednessReport analyze_boundedness(
    const gamma::Program& program, const gamma::Multiset& initial);

/// Calibrated against bench_reductions (see EXPERIMENTS E16): one expression
/// evaluation step (an AST node, or an and/or's short-circuit test) is the
/// unit, a match probe costs ~c_match units per pattern per live candidate,
/// a store remove/insert ~c_store units per element.
struct CostParams {
  double c_match = 3.0;
  double c_instr = 1.0;
  double c_store = 8.0;
  /// Workers the target engine can throw at independent matches; 1 models
  /// the sequential/indexed engines, higher values the parallel engines.
  unsigned workers = 1;
  /// Live-population fallback when a label has no finite bound.
  std::size_t assumed_scale = 16;
};

struct ReactionCost {
  double per_fire = 0;  // match + body + store work for one firing
  double fires = 0;     // firing-count estimate over a whole run
  double work = 0;      // fires * per_fire
  std::size_t instrs = 0;  // evaluation steps of the guards and outputs
  std::size_t live = 0;  // largest live-label population among the patterns
};

[[nodiscard]] ReactionCost estimate_reaction_cost(
    const gamma::Reaction& reaction, const BoundednessReport& bounds,
    const CostParams& params = {});

struct StageCost {
  double work = 0;         // sum of reaction work
  double concurrency = 0;  // sum of firing estimates: independent matches
  double time = 0;         // work / min(workers, concurrency)
};

[[nodiscard]] StageCost estimate_stage_cost(
    const std::vector<gamma::Reaction>& stage, const BoundednessReport& bounds,
    const CostParams& params = {});

/// Sum of stage times — the planner's objective function.
[[nodiscard]] double estimate_program_cost(const gamma::Program& program,
                                           const BoundednessReport& bounds,
                                           const CostParams& params = {});

}  // namespace gammaflow::analysis
