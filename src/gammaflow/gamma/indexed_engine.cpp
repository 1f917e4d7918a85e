// IndexedEngine: the fast single-threaded engine. Per step it probes
// reactions in a seeded random order and fires the first enabled match found
// through the label/arity indexes. A full pass over every reaction with no
// match is the stage fixed point (the index search is exhaustive, so "no
// match found" is a proof, not a heuristic). Scaffolding (deadline, cancel,
// budget, trace cap, telemetry tail) comes from runtime::StepLoop & friends;
// this file keeps only the probe-order and conflict-class scheduling policy.
#include <algorithm>
#include <numeric>

#include "gammaflow/common/rng.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/gamma/store.hpp"
#include "gammaflow/obs/telemetry.hpp"
#include "gammaflow/runtime/match_pipeline.hpp"
#include "gammaflow/runtime/step_loop.hpp"

namespace gammaflow::gamma {

RunResult IndexedEngine::run(const Program& program, const Multiset& initial,
                             const RunOptions& options) const {
  RunResult result;
  Rng rng(options.seed);
  Store store(initial);
  const expr::EvalMode mode = options.eval_mode();

  runtime::StepLoop loop(options, options.max_steps, "indexed engine",
                         "max_steps");
  runtime::TraceSink<FireEvent> trace(options);
  const runtime::RunRecording recording(options, "indexed", "gamma");
  recording.begin(initial);
  const runtime::EngineTelemetry telemetry(options, "gamma");
  obs::Telemetry* const tel = telemetry.sink();
  obs::ThreadRecorder* const rec = telemetry.recorder("gamma-indexed");
  std::uint64_t attempts = 0;
  std::uint64_t failures = 0;
  std::uint64_t passes = 0;

  for (std::size_t stage_idx = 0;
       stage_idx < program.stages().size() && loop.running(); ++stage_idx) {
    const auto& stage = program.stages()[stage_idx];

    // Pre-resolved per-reaction latency histograms keep string building off
    // the firing path.
    std::vector<Histogram*> fire_hist;
    if (tel) {
      fire_hist.reserve(stage.size());
      for (const Reaction& r : stage) {
        fire_hist.push_back(&tel->stats().hist("gamma.fire_us." + r.name()));
      }
    }

    // Runs the reactions in `subset` to their combined fixed point (a full
    // pass over the subset with no match is the proof, as the index search
    // is exhaustive).
    const auto run_to_fixpoint = [&](std::vector<std::size_t> order) {
      bool progressed = true;
      while (progressed && loop.running()) {
        progressed = false;
        ++passes;
        obs::Span pass_span(tel, rec, "pass");
        std::uint64_t pass_fires = 0;
        std::shuffle(order.begin(), order.end(), rng);
        for (const std::size_t idx : order) {
          if (!loop.running()) break;
          const Reaction& r = stage[idx];
          // Fire this reaction repeatedly while it stays enabled: cheaper
          // than re-shuffling after every step, and fairness across
          // reactions is restored by the shuffled outer pass.
          while (!loop.should_stop()) {
            const std::uint64_t fire_start = tel ? tel->now_us() : 0;
            auto match = runtime::MatchPipeline::find(store, r, &rng, mode);
            ++attempts;
            if (!match) {
              ++failures;
              break;
            }
            if (!loop.admit(result.steps)) break;
            if (trace.admit()) {
              FireEvent ev;
              ev.reaction = r.name();
              ev.stage = stage_idx;
              for (const Store::Id id : match->ids) {
                ev.consumed.push_back(store.element(id));
              }
              ev.produced = match->produced;
              trace.push(std::move(ev));
            }
            ++result.fires_by_reaction[r.name()];
            ++result.steps;
            const runtime::RecordCtx rctx =
                recording.ctx(static_cast<std::int64_t>(stage_idx));
            runtime::MatchPipeline::commit(store, *match,
                                           recording ? &rctx : nullptr);
            progressed = true;
            ++pass_fires;
            if (tel) {
              fire_hist[idx]->observe(
                  static_cast<double>(tel->now_us() - fire_start));
            }
          }
        }
        pass_span.set_arg(pass_fires);
        // One journal round per pass: the granularity the viz scrubber
        // steps through for this engine.
        if (recording && pass_fires > 0) recording.round();
      }
    };

    // Conflict-class scheduling: when the caller's classes cover the whole
    // stage with >= 2 classes, run each class to its own fixpoint once, in
    // shuffled order, with no global re-pass. Sound because interference
    // (compete AND feed edges) stays inside a class: a quiescent class can
    // never be re-enabled by another class's firings.
    std::vector<std::vector<std::size_t>> groups;
    if (!options.conflict_classes.empty() && stage.size() >= 2) {
      std::map<std::size_t, std::vector<std::size_t>> by_class;
      bool covered = true;
      for (std::size_t i = 0; i < stage.size() && covered; ++i) {
        const auto it = options.conflict_classes.find(stage[i].name());
        covered = it != options.conflict_classes.end();
        if (covered) by_class[it->second].push_back(i);
      }
      if (covered && by_class.size() >= 2) {
        for (auto& [c, idxs] : by_class) groups.push_back(std::move(idxs));
      }
    }
    if (groups.empty()) {
      std::vector<std::size_t> all(stage.size());
      std::iota(all.begin(), all.end(), std::size_t{0});
      run_to_fixpoint(std::move(all));
    } else {
      std::shuffle(groups.begin(), groups.end(), rng);
      for (auto& group : groups) {
        if (!loop.running()) break;
        run_to_fixpoint(std::move(group));
      }
    }
  }

  if (tel) {
    auto& stats = tel->stats();
    stats.count("gamma.match_attempts", attempts);
    stats.count("gamma.match_failures", failures);
    stats.count("gamma.fires", result.steps);
    stats.count("gamma.passes", passes);
    runtime::observe_reaction_compile(tel, program);
  }
  result.outcome = loop.outcome();
  result.trace = trace.take();
  result.trace_dropped = trace.dropped();
  telemetry.finish(result.outcome, result.metrics);
  result.final_multiset = store.to_multiset();
  recording.finish(result.outcome, result.final_multiset);
  result.wall_seconds = loop.wall_seconds();
  return result;
}

}  // namespace gammaflow::gamma
