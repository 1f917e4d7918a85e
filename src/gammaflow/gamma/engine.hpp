// Engine interface: run a Gamma Program on an initial Multiset to the global
// termination state (no reaction condition holds on any element tuple) and
// return the final multiset plus execution statistics.
//
// Three implementations with identical observable semantics on confluent
// programs (every program Algorithm 1 emits is confluent because the source
// dataflow graph is deterministic):
//   SequentialEngine — Eq. (1) executed literally: each step picks uniformly
//     among ALL currently enabled matches. The semantic reference; O(matches)
//     per step, use on small multisets.
//   IndexedEngine    — index-guided first-match selection with randomized
//     probe order. The fast single-threaded engine.
//   ParallelEngine   — worker threads. With a sound shard plan (conflict
//     classes + label-literal patterns, see runtime/sharded_store.hpp) the
//     stage runs on a ShardedStore: each shard is an independent local
//     fixpoint under its own lock, no revalidation, fully deterministic.
//     Otherwise workers match optimistically under a shared lock and commit
//     under an exclusive lock, with version-stamped quiescence detection.
//
// All three are thin policies over runtime::StepLoop / MatchPipeline; the
// deadline/cancel/budget/telemetry scaffolding lives there, shared with the
// dataflow engines and the distributed cluster.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gammaflow/common/error.hpp"
#include "gammaflow/common/stats.hpp"
#include "gammaflow/gamma/multiset.hpp"
#include "gammaflow/gamma/program.hpp"
#include "gammaflow/runtime/options.hpp"

namespace gammaflow::gamma {

struct RunOptions : runtime::RunOptions {
  /// Seed for every nondeterministic choice; same seed => same run for the
  /// deterministic engines.
  std::uint64_t seed = 1;
  /// Firing budget across all stages; exceeded => EngineError (guards
  /// non-terminating programs).
  std::uint64_t max_steps = 50'000'000;
  /// SequentialEngine only: cap on enabled matches enumerated per step; the
  /// uniform choice is over the first `uniform_cap` found.
  std::size_t uniform_cap = 4096;
  /// ParallelEngine: allow the sharded-store path when `conflict_classes`
  /// yields a sound shard plan. Off (`--no-shard`) forces the optimistic
  /// single-store path — an escape hatch and the A/B baseline for
  /// bench_store. Results are state-identical either way on the confluent
  /// corpus (enforced by the cross-engine equivalence suite).
  bool shard = true;
  /// Precomputed conflict classes (reaction name -> class id), normally
  /// InterferenceReport::engine_classes(). Reactions in different classes
  /// touch provably disjoint element populations. When every reaction of a
  /// stage is covered and the stage spans >= 2 classes:
  ///   ParallelEngine  — partitions the STORE by class (runtime::ShardedStore)
  ///     when the plan is sound: each shard runs its own lock-free local
  ///     fixpoint, commits without revalidation ("gamma.class_fast_commits"
  ///     counts these), and commit_conflicts drops to zero.
  ///   IndexedEngine   — runs each class to its own fixpoint once instead of
  ///     re-passing over all reactions (sound because a quiescent class
  ///     cannot be re-enabled from outside: feed edges stay inside classes).
  /// Unknown or missing names simply disable the optimization for that
  /// stage; semantics never change.
  std::map<std::string, std::size_t> conflict_classes;
};

struct RunResult {
  Multiset final_multiset;
  /// Why the run returned. Anything but Completed means final_multiset is
  /// the valid PARTIAL state at the stop point, not the fixed point.
  Outcome outcome = Outcome::Completed;
  /// Total reactions fired.
  std::uint64_t steps = 0;
  std::map<std::string, std::uint64_t> fires_by_reaction;
  /// Engine-internal metrics (match attempts, conflicts, latencies, ...);
  /// empty unless RunOptions::telemetry was set.
  MetricsSnapshot metrics;
  double wall_seconds = 0.0;
};

class Engine {
 public:
  virtual ~Engine() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual RunResult run(const Program& program,
                                      const Multiset& initial,
                                      const RunOptions& options) const = 0;

  [[nodiscard]] RunResult run(const Program& program,
                              const Multiset& initial) const {
    return run(program, initial, RunOptions{});
  }
};

class SequentialEngine final : public Engine {
 public:
  using Engine::run;
  [[nodiscard]] std::string name() const override { return "sequential"; }
  [[nodiscard]] RunResult run(const Program& program, const Multiset& initial,
                              const RunOptions& options) const override;
};

class IndexedEngine final : public Engine {
 public:
  using Engine::run;
  [[nodiscard]] std::string name() const override { return "indexed"; }
  [[nodiscard]] RunResult run(const Program& program, const Multiset& initial,
                              const RunOptions& options) const override;
};

class ParallelEngine final : public Engine {
 public:
  using Engine::run;
  [[nodiscard]] std::string name() const override { return "parallel"; }
  [[nodiscard]] RunResult run(const Program& program, const Multiset& initial,
                              const RunOptions& options) const override;
};

}  // namespace gammaflow::gamma
