// Indexed element store: the engines' internal multiset representation,
// laid out as a structure-of-arrays. Elements live in per-arity COLUMN
// GROUPS: each field is a contiguous int64 column (the dominant Int case)
// with a tag byte per row and a spill sidecar holding non-Int payloads, so
// a compiled condition can sweep a whole candidate batch without touching a
// Value variant per field. A per-row liveness bitmap replaces the old
// stale-seen observation counters: dead rows are the garbage debt, counted
// exactly at remove() time instead of sampled by read-only searchers.
//
// Secondary indexes map (field, value) and arity to candidate entry lists so
// reaction matching probes a bucket instead of scanning the multiset.
// Buckets are cleaned lazily: mutating lookups prune in place, read-only
// lookups (shared-lock searchers) skip stale entries; compact() prunes every
// bucket, erases the ones left empty, AND rewrites column groups densely
// (inserts self-trigger it once the dead-row debt crosses the threshold, so
// long worklist runs stay O(live): rows, bucket entries and index keys alike).
//
// Every slot occupancy is stamped with its BIRTH, a monotone insert
// sequence number. Buckets append in insert order and pruning keeps that
// order, so a pruned bucket is sorted by birth: "the candidates inserted
// since time W" is a bucket suffix. The per-reaction refutation memo
// (refutations()) records, per depth-0 candidate, the insert count at which
// its whole search subtree last failed; the match pipeline uses it to skip
// tuples that already failed (semi-naive matching, DESIGN §15.5).
//
// The matching machinery itself (backtracking candidate search, batch
// bitmap evaluation, match revalidation, commit) lives in
// runtime/match_pipeline.hpp — one implementation for every engine. The
// find_match/enumerate_matches/commit free functions declared here are thin
// delegates kept for source compatibility.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "gammaflow/common/rng.hpp"
#include "gammaflow/expr/env.hpp"
#include "gammaflow/gamma/multiset.hpp"
#include "gammaflow/gamma/reaction.hpp"

namespace gammaflow::gamma {

class Store {
 public:
  using Id = std::uint32_t;

  /// Bucket entry: a slot id stamped with the slot's generation at insert
  /// time. Slot ids are reused (free list), so an id alone cannot tell a
  /// live registration from a stale one left by a previous occupant —
  /// without the stamp, buckets accumulate duplicate references to reused
  /// slots and matching degrades from O(live) to O(total firings).
  struct Entry {
    Id id;
    std::uint32_t gen;
  };

  /// An index bucket: the candidate entries for one (field,value) key or
  /// one arity. May contain stale entries (dead or reused slots); callers
  /// check live().
  struct Bucket {
    std::vector<Entry> entries;
  };

  /// One field of a column group: Int payloads inline in `data`, every
  /// other kind spilled to the sidecar (`data[row]` is then the spill
  /// index; Nil carries no payload at all). `tags[row]` is the ValueKind.
  /// Read-only outside Store; the batch matcher reads `data`/`tags`
  /// directly for its dense sweeps.
  struct Column {
    std::vector<std::int64_t> data;
    std::vector<std::uint8_t> tags;
    std::vector<Value> spill;
  };

  /// Per-arity SoA block: `cols[f]` holds field f of every element of this
  /// arity ever inserted (dead rows linger until compaction — the liveness
  /// bitmap masks them out). Row order is append order; compact() preserves
  /// it while dropping dead rows.
  struct ColumnGroup {
    std::size_t arity = 0;
    std::vector<Column> cols;
    std::vector<Id> row_ids;  // row -> current slot id at insert time
    std::vector<std::uint64_t> live_bits;  // 64 rows per word
    std::size_t rows = 0;       // total rows, dead included
    std::size_t live_rows = 0;

    [[nodiscard]] bool row_live(std::size_t row) const noexcept {
      return ((live_bits[row >> 6] >> (row & 63)) & 1u) != 0;
    }
    /// Field f of `row` materialized back to a Value (any kind).
    [[nodiscard]] Value field_value(std::size_t row, std::size_t f) const;
  };

  /// Refutation watermark of one slot occupancy for one reaction: when the
  /// occupancy with generation `gen` was last tried as the FIRST element of
  /// a match, every tuple whose other members were born at or before
  /// `watermark` failed. Conditions are pure and patterns positive, so
  /// those tuples fail for as long as their elements live. A default entry
  /// ({0, 0}) is vacuous: no element is born at or before insert 0.
  struct Refutation {
    std::uint32_t gen = 0;
    std::uint64_t watermark = 0;
  };

  /// Where an id's current occupant lives in the column groups.
  struct RowRef {
    const ColumnGroup* group = nullptr;
    std::uint32_t row = 0;
  };

  Store() = default;
  explicit Store(const Multiset& m) {
    for (const Element& e : m) insert(e);
  }

  Id insert(Element e);
  void remove(Id id);

  [[nodiscard]] bool alive(Id id) const noexcept {
    return id < alive_.size() && alive_[id];
  }
  /// True when `entry` references the CURRENT occupant of its slot.
  [[nodiscard]] bool live(Entry entry) const noexcept {
    return alive(entry.id) && generations_[entry.id] == entry.gen;
  }
  /// The element at `id`, materialized from its column-group row.
  /// Precondition: alive(id).
  [[nodiscard]] Element element(Id id) const;
  /// Column-group coordinates of `id`'s slot (batch gather). Valid for live
  /// ids, and for dead ones only until the next compaction moves rows —
  /// searchers check live() first and never span a mutation.
  [[nodiscard]] RowRef row(Id id) const noexcept {
    const Loc loc = locs_[id];
    return RowRef{&groups_[loc.group], loc.row};
  }
  /// Matches `p` against the element at `id` directly on the columns —
  /// the scalar probe path, with no Element materialization. Same
  /// semantics as Pattern::match(element(id), env). Precondition: alive(id).
  [[nodiscard]] bool match_pattern(const Pattern& p, Id id,
                                   expr::Env& env) const;
  [[nodiscard]] std::size_t size() const noexcept { return live_count_; }

  /// Monotone count of inserts so far; the next occupancy is born at
  /// inserts() + 1.
  [[nodiscard]] std::uint64_t inserts() const noexcept { return inserts_; }
  /// Insert sequence number of `id`'s current occupant (1-based). Entries of
  /// a pruned bucket are sorted by it. Precondition: alive(id).
  [[nodiscard]] std::uint64_t birth(Id id) const noexcept {
    return births_[id];
  }

  /// The refutation memo of the reaction whose CompiledReaction::memo_key()
  /// is `key`: one entry per slot id, grown to the current slot count.
  /// Valid until the next insert (which may add slots). Keyed by a
  /// process-unique key rather than a Reaction pointer, since reactions can
  /// be freed and their addresses reused while a store lives.
  [[nodiscard]] std::vector<Refutation>& refutations(std::uint64_t key);
  /// The same memo when one exists (grown to the current slot count), else
  /// null — lookups need not allocate one.
  [[nodiscard]] std::vector<Refutation>* find_refutations(std::uint64_t key);

  /// The bucket the pattern probes: the (field,value) bucket when the
  /// pattern carries a literal constraint, otherwise the arity bucket; null
  /// when no such bucket exists (nothing can match). May contain stale
  /// entries; callers must check live(). The mutating overload prunes the
  /// bucket in place first.
  [[nodiscard]] const Bucket* bucket(const Pattern& p);

  /// Read-only bucket lookup (no pruning) — safe under a shared lock while
  /// other threads only hold shared locks. Stale entries linger until a
  /// mutating lookup or compact() cleans them; searchers skip them via the
  /// generation stamp (the dead ROWS behind them are already counted in the
  /// store's garbage debt, so no per-skip bookkeeping is needed).
  [[nodiscard]] const Bucket* bucket(const Pattern& p) const;

  /// Live elements (any arity) whose field `field` equals `value`, counted
  /// off the (field,value) index bucket: O(bucket), no materialization.
  [[nodiscard]] std::size_t count_field(std::size_t field,
                                        const Value& value) const;

  /// Entry-list views of bucket(); kept for callers that only iterate.
  [[nodiscard]] const std::vector<Entry>& candidates(const Pattern& p);
  [[nodiscard]] const std::vector<Entry>& candidates(const Pattern& p) const;

  /// Dead rows still occupying column-group storage — the garbage debt.
  /// Exact (counted at remove()), unlike the old observation-sampled
  /// stale-seen scheme.
  [[nodiscard]] std::uint64_t dead_rows() const noexcept { return dead_rows_; }

  /// True once the garbage debt crosses kGarbageCompactThreshold: the next
  /// exclusive section should call compact(). insert() also self-triggers
  /// collection past the threshold (or when dead rows dwarf live ones), so
  /// batch sweeps and memory stay O(live) even on paths that never check.
  [[nodiscard]] bool needs_compact() const noexcept {
    return dead_rows_ >= kGarbageCompactThreshold;
  }
  static constexpr std::uint64_t kGarbageCompactThreshold = 4096;

  /// Prunes stale entries from every index bucket, erases the buckets left
  /// empty, and rewrites every column group densely (dropping dead rows,
  /// rebuilding the spill sidecars), settling the garbage debt. Engines call
  /// this from an exclusive section when needs_compact().
  void compact();

  /// Index keys held: (field,value) buckets plus arity buckets. Since
  /// compact() erases emptied buckets this is at most
  /// max_arity × (size() + dead_rows()) + distinct arities — O(live), not
  /// O(every value ever inserted).
  [[nodiscard]] std::size_t index_buckets() const noexcept {
    return field_index_.size() + arity_index_.size();
  }

  /// Column-group compactions performed by THIS store (the
  /// `store.column_compactions` metric counts the process-wide total).
  [[nodiscard]] std::uint64_t column_compactions() const noexcept {
    return column_compactions_;
  }

  /// Snapshot back to the public value type (slot-id order, as before the
  /// columnar layout — callers canonicalize for comparisons).
  [[nodiscard]] Multiset to_multiset() const;

  /// Monotone count of successful insert/remove operations; engines use it
  /// as a cheap "has anything changed" version stamp.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

 private:
  struct FieldKey {
    std::size_t field;
    Value value;
    bool operator==(const FieldKey& o) const noexcept {
      return field == o.field && value == o.value;
    }
  };
  struct FieldKeyHash {
    std::size_t operator()(const FieldKey& k) const noexcept {
      return k.value.hash() * 0x9e3779b97f4a7c15ULL + k.field;
    }
  };
  struct Loc {
    std::uint32_t group = 0;
    std::uint32_t row = 0;
  };

  void prune(Bucket& bucket);
  std::uint32_t group_for_arity(std::size_t arity);
  void compact_columns();

  std::vector<ColumnGroup> groups_;
  std::unordered_map<std::size_t, std::uint32_t> group_of_arity_;
  std::vector<Loc> locs_;
  std::vector<bool> alive_;
  std::vector<std::uint32_t> generations_;
  std::vector<std::uint64_t> births_;
  std::vector<Id> free_list_;
  std::size_t live_count_ = 0;
  std::uint64_t dead_rows_ = 0;
  std::uint64_t version_ = 0;
  std::uint64_t inserts_ = 0;
  std::uint64_t column_compactions_ = 0;
  std::unordered_map<std::uint64_t, std::vector<Refutation>> refutations_;
  std::unordered_map<FieldKey, Bucket, FieldKeyHash> field_index_;
  std::unordered_map<std::size_t, Bucket> arity_index_;
  static const std::vector<Entry> kEmpty;
};

/// Process-wide count of column-group compactions (all stores); engines
/// report per-run deltas as the `store.column_compactions` metric.
[[nodiscard]] std::uint64_t column_compactions_total() noexcept;

struct Match {
  const Reaction* reaction = nullptr;
  std::vector<Store::Id> ids;  // one per pattern, all distinct
  expr::Env env;               // bindings from the replace list
  std::vector<Element> produced;  // outputs of the firing branch
};

/// Finds one enabled match for `reaction` (patterns match AND a branch
/// fires). With `rng`, candidate buckets are probed starting at random
/// offsets so repeated calls are fair; without, the first match in bucket
/// order is returned (deterministic). `mode` selects how conditions are
/// evaluated once the patterns match — the AST walker per candidate
/// (default, reference semantics) or batch bitmap evaluation over the
/// innermost candidate column batch; both produce identical Matches,
/// engines pass RunOptions::eval_mode().
/// Delegates to runtime::MatchPipeline::find (the one implementation).
[[nodiscard]] std::optional<Match> find_match(
    Store& store, const Reaction& reaction, Rng* rng = nullptr,
    expr::EvalMode mode = expr::EvalMode::Scalar);

/// Read-only variant for concurrent searchers holding a shared lock; leaves
/// index garbage in place (see Store::compact).
[[nodiscard]] std::optional<Match> find_match(
    const Store& store, const Reaction& reaction, Rng* rng = nullptr,
    expr::EvalMode mode = expr::EvalMode::Scalar);

/// Invokes `fn` for every enabled match (ordered tuples of distinct
/// elements), stopping early when fn returns false or `limit` matches were
/// visited. Returns the number visited. Exponential in reaction arity —
/// meant for small multisets (semantics tests) and match counting.
std::size_t enumerate_matches(Store& store, const Reaction& reaction,
                              std::size_t limit,
                              const std::function<bool(const Match&)>& fn,
                              expr::EvalMode mode = expr::EvalMode::Scalar);

/// Applies a found match: removes the consumed ids, inserts the produced
/// elements. Precondition: all ids alive.
void commit(Store& store, const Match& match);

}  // namespace gammaflow::gamma
