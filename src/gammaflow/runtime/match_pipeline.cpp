#include "gammaflow/runtime/match_pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <span>
#include <type_traits>

#include "gammaflow/gamma/program.hpp"
#include "gammaflow/obs/run_recorder.hpp"
#include "gammaflow/obs/telemetry.hpp"
#include "gammaflow/runtime/batch_matcher.hpp"

namespace gammaflow::runtime {
namespace {

using gamma::Element;
using gamma::Match;
using gamma::Reaction;
using gamma::Store;

// Process-wide search-work tallies (gamma.probes / gamma.refuted_skips).
// Each search adds its local counts once, at the end, so the probe loop
// itself carries no atomic operations.
std::atomic<std::uint64_t> g_probes{0};
std::atomic<std::uint64_t> g_refuted_skips{0};

// The shared backtracking core. Visits enabled matches of `reaction`; for
// each, builds a Match and calls `fn`; stops when fn returns false or
// `limit` is reached. `rng` randomizes the probe order inside each candidate
// bucket (cyclic start offset — cheap fairness without shuffling).
//
// Stale bucket entries (dead or reused slots) are detected by generation
// stamp and skipped; the dead rows behind them are already counted in the
// store's garbage debt (Store::dead_rows), so the next exclusive section
// knows when to compact without per-skip bookkeeping here.
//
// With `memoize` (the mutating find only) the search is SEMI-NAIVE: a
// depth-0 candidate whose subtree ends without a match records
// {generation, store.inserts()} in the store's refutation memo, and a later
// search of that same occupancy scans, at the innermost depth, only the
// bucket suffix born after that watermark — unless an element chosen at
// depths 1..k-2 is itself newer. Every skipped tuple already failed and
// still would (pure conditions, positive patterns), every depth still draws
// its rng->bounded(n) over the WHOLE bucket, and the suffix is visited in
// the same cyclic order, so the match returned and the rng stream are
// exactly those of the full scan (DESIGN §15.5). The memo is consulted only
// for k >= 2 and an innermost bucket of at least BatchMatcher::kMinChunk
// entries; below that one sweep costs no more than the bookkeeping.
template <typename StoreT>  // Store (pruning) or const Store (read-only)
std::size_t search(StoreT& store, const Reaction& reaction, std::size_t limit,
                   Rng* rng, expr::EvalMode mode, bool memoize,
                   const std::function<bool(Match&)>& fn) {
  const auto& patterns = reaction.patterns();
  const std::size_t k = patterns.size();

  // Bucket pointers are stable across the search: bucket() never inserts
  // map entries and prune() mutates entry vectors in place.
  std::vector<const Store::Bucket*> buckets(k);
  for (std::size_t i = 0; i < k; ++i) {
    buckets[i] = store.bucket(patterns[i]);
    if (buckets[i] == nullptr || buckets[i]->entries.empty()) return 0;
  }

  // The mutating bucket() pruned every bucket above, so each one is sorted
  // by birth — what lets a watermark select a suffix. The memo itself is
  // allocated at its first record, so a reaction whose first candidate
  // always fires never pays for one.
  bool memo_on = false;
  std::vector<Store::Refutation>* memo = nullptr;
  if constexpr (!std::is_const_v<StoreT>) {
    memo_on = memoize && k >= 2 &&
              buckets[k - 1]->entries.size() >= BatchMatcher::kMinChunk;
    if (memo_on) memo = store.find_refutations(reaction.compiled().memo_key());
  }
  std::uint64_t watermark = 0;  // current depth-0 candidate's; 0 = none
  const auto refuted_by_watermark = [&](Store::Id id) {
    return store.birth(id) <= watermark;
  };

  std::vector<expr::Env> envs(k + 1);
  std::vector<Store::Id> chosen(k);
  std::size_t visited = 0;
  std::uint64_t probes = 0;
  std::uint64_t skipped = 0;
  bool stop = false;

  auto dfs = [&](auto&& self, std::size_t depth) -> void {
    if (stop) return;
    if (depth == k) {
      auto produced = reaction.apply(envs[k]);
      if (!produced) return;  // patterns matched but no branch fires
      Match m;
      m.reaction = &reaction;
      m.ids = chosen;
      m.env = envs[k];
      m.produced = std::move(*produced);
      ++visited;
      if (!fn(m) || visited >= limit) stop = true;
      return;
    }
    const auto& bucket = buckets[depth]->entries;
    const std::size_t n = bucket.size();
    const std::size_t start = rng ? rng->bounded(n) : 0;
    // Scan window: the whole bucket, or the suffix born after a refuted
    // depth-0 candidate's watermark. Visiting the window cyclically from
    // the first window position at or after `start` is the full cyclic
    // scan with the refuted prefix left out.
    std::size_t lo = 0;
    if (watermark != 0 && depth + 1 == k &&
        std::all_of(chosen.begin() + 1,
                    chosen.begin() + static_cast<std::ptrdiff_t>(depth),
                    refuted_by_watermark)) {
      lo = static_cast<std::size_t>(
          std::partition_point(bucket.begin(), bucket.end(),
                               [&](const Store::Entry e) {
                                 return refuted_by_watermark(e.id);
                               }) -
          bucket.begin());
      skipped += lo;
    }
    const std::span<const Store::Entry> window =
        std::span<const Store::Entry>(bucket).subspan(lo);
    const std::size_t m = window.size();
    const std::size_t first = start >= lo ? start - lo : 0;
    auto probe = [&](const Store::Entry entry) {
      if (!store.live(entry)) return;
      const Store::Id id = entry.id;
      bool dup = false;
      for (std::size_t d = 0; d < depth; ++d) {
        if (chosen[d] == id) {
          dup = true;
          break;
        }
      }
      if (dup) return;
      envs[depth + 1] = envs[depth];
      if (!store.match_pattern(patterns[depth], id, envs[depth + 1])) return;
      chosen[depth] = id;
      if (depth == 0 && memo_on) {
        watermark = 0;
        if (memo != nullptr && (*memo)[id].gen == entry.gen) {
          watermark = (*memo)[id].watermark;
        }
        self(self, 1);
        if constexpr (!std::is_const_v<StoreT>) {
          if (stop) return;  // a match (or the limit) ended the search
          if (memo == nullptr) {
            memo = &store.refutations(reaction.compiled().memo_key());
          }
          (*memo)[id] = Store::Refutation{entry.gen, store.inserts()};
        }
        return;
      }
      self(self, depth + 1);
    };
    std::size_t t = 0;
    if (mode == expr::EvalMode::Batch && depth + 1 == k &&
        m >= BatchMatcher::kMinChunk) {
      // Innermost bucket: sweep chunks of the scan as column batches and
      // probe only the lanes the fire bitmap keeps. The start offset draw
      // above is the SAME single rng->bounded(n) the scalar scan consumes,
      // and cleared lanes are exactly scalar rejections, so the rng stream
      // and the chosen match are identical to the scalar path. A window
      // shorter than one chunk (a small bucket or a short watermark suffix)
      // is probed scalar: its gather would not amortize.
      thread_local BatchMatcher matcher;
      if (matcher.begin(store, reaction, window, envs[depth])) {
        std::size_t width = BatchMatcher::kMinChunk;
        while (t < m && !stop) {
          const std::size_t w = std::min(width, m - t);
          if (!matcher.chunk(first, t, w)) break;  // fault: resume scalar
          const std::uint8_t* fire = matcher.fire();
          for (std::size_t j = 0; j < w && !stop; ++j) {
            if (fire[j] != 0) probe(window[(first + t + j) % m]);
          }
          t += w;
          width = std::min(width * 2, BatchMatcher::kMaxChunk);
        }
      }
    }
    for (; t < m && !stop; ++t) probe(window[(first + t) % m]);
    probes += t;
  };
  dfs(dfs, 0);
  g_probes.fetch_add(probes, std::memory_order_relaxed);
  if (skipped != 0) {
    g_refuted_skips.fetch_add(skipped, std::memory_order_relaxed);
  }
  return visited;
}

template <typename StoreT>
std::optional<Match> find_one(StoreT& store, const Reaction& reaction,
                              Rng* rng, expr::EvalMode mode) {
  std::optional<Match> found;
  search(store, reaction, 1, rng, mode,
         /*memoize=*/!std::is_const_v<StoreT>, [&](Match& m) {
           found = std::move(m);
           return false;
         });
  return found;
}

}  // namespace

std::optional<Match> MatchPipeline::find(Store& store, const Reaction& reaction,
                                         Rng* rng, expr::EvalMode mode) {
  return find_one(store, reaction, rng, mode);
}

std::optional<Match> MatchPipeline::find(const Store& store,
                                         const Reaction& reaction, Rng* rng,
                                         expr::EvalMode mode) {
  return find_one(store, reaction, rng, mode);
}

std::size_t MatchPipeline::enumerate(Store& store, const Reaction& reaction,
                                     std::size_t limit,
                                     const std::function<bool(const Match&)>& fn,
                                     expr::EvalMode mode) {
  return search(store, reaction, limit, nullptr, mode, /*memoize=*/false,
                [&](Match& m) { return fn(m); });
}

bool MatchPipeline::validate(const Store& store, Match& match) {
  const auto& patterns = match.reaction->patterns();
  if (match.ids.size() != patterns.size()) return false;
  expr::Env env;
  for (std::size_t i = 0; i < match.ids.size(); ++i) {
    // alive() alone is not enough — a recycled slot is alive with different
    // content — but re-running the pattern match on the current occupants
    // catches that too, so the pair of checks is exact.
    if (!store.alive(match.ids[i])) return false;
    if (!store.match_pattern(patterns[i], match.ids[i], env)) return false;
  }
  auto produced = match.reaction->apply(env);
  if (!produced) return false;
  match.env = std::move(env);
  match.produced = std::move(*produced);
  return true;
}

void MatchPipeline::commit(Store& store, const Match& match,
                           const RecordCtx* rec) {
  if (rec != nullptr && rec->recorder != nullptr) {
    // Render consumed occupants while their ids are still alive.
    obs::FireRecord fire;
    fire.reaction = match.reaction->name();
    fire.stage = rec->stage;
    fire.shard = rec->shard;
    fire.node = rec->node;
    fire.consumed.reserve(match.ids.size());
    for (const Store::Id id : match.ids) {
      fire.consumed.push_back(store.element(id).to_string());
    }
    fire.produced.reserve(match.produced.size());
    for (const Element& e : match.produced) {
      fire.produced.push_back(e.to_string());
    }
    rec->recorder->fire(std::move(fire));
  }
  for (const Store::Id id : match.ids) store.remove(id);
  for (const Element& e : match.produced) store.insert(e);
}

std::uint64_t probes_total() noexcept {
  return g_probes.load(std::memory_order_relaxed);
}

std::uint64_t refuted_skips_total() noexcept {
  return g_refuted_skips.load(std::memory_order_relaxed);
}

void observe_reaction_compile(obs::Telemetry* tel,
                              const gamma::Program& program) {
  if (tel == nullptr) return;
  Histogram& compile_hist = tel->stats().hist("expr.compile_ms");
  for (const auto& stage : program.stages()) {
    for (const Reaction& r : stage) {
      compile_hist.observe(r.compiled().compile_ms());
    }
  }
}

}  // namespace gammaflow::runtime

namespace gammaflow::gamma {

// Legacy entry points (declared in gamma/store.hpp), kept as thin delegates
// so existing callers and tests stay source-compatible. New code calls
// runtime::MatchPipeline directly.

std::optional<Match> find_match(Store& store, const Reaction& reaction,
                                Rng* rng, expr::EvalMode mode) {
  return runtime::MatchPipeline::find(store, reaction, rng, mode);
}

std::optional<Match> find_match(const Store& store, const Reaction& reaction,
                                Rng* rng, expr::EvalMode mode) {
  return runtime::MatchPipeline::find(store, reaction, rng, mode);
}

std::size_t enumerate_matches(Store& store, const Reaction& reaction,
                              std::size_t limit,
                              const std::function<bool(const Match&)>& fn,
                              expr::EvalMode mode) {
  return runtime::MatchPipeline::enumerate(store, reaction, limit, fn, mode);
}

void commit(Store& store, const Match& match) {
  runtime::MatchPipeline::commit(store, match);
}

}  // namespace gammaflow::gamma
