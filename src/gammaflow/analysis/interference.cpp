#include "gammaflow/analysis/interference.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>

#include "gammaflow/common/rng.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/gamma/store.hpp"
#include "gammaflow/obs/run_recorder.hpp"
#include "gammaflow/runtime/match_pipeline.hpp"

namespace gammaflow::analysis {

using expr::BinOp;
using expr::Expr;
using expr::ExprPtr;
using gamma::Branch;
using gamma::Element;
using gamma::Multiset;
using gamma::Pattern;
using gamma::Program;
using gamma::Reaction;

namespace {

/// Sound upper bound on the string labels `var` may hold for `cond` to be
/// true: nullopt when no bound can be proven (the condition may admit any
/// label). Only pure positive structure is trusted — Or unions, And
/// intersects (one bounded side suffices), var == 'lit' is a singleton;
/// anything else (negation, inequality, arithmetic over var) gives up.
std::optional<std::set<std::string>> bound_labels(const ExprPtr& cond,
                                                  const std::string& var) {
  if (!cond || cond->kind() != Expr::Kind::Binary) return std::nullopt;
  const BinOp op = cond->bin_op();
  if (op == BinOp::Eq) {
    const ExprPtr& l = cond->lhs();
    const ExprPtr& r = cond->rhs();
    for (const auto& [v, lit] : {std::pair{l, r}, std::pair{r, l}}) {
      if (v->kind() == Expr::Kind::Var && v->var() == var &&
          lit->kind() == Expr::Kind::Literal && lit->literal().is_str()) {
        return std::set<std::string>{lit->literal().as_str()};
      }
    }
    return std::nullopt;
  }
  if (op == BinOp::Or) {
    auto a = bound_labels(cond->lhs(), var);
    auto b = bound_labels(cond->rhs(), var);
    if (!a || !b) return std::nullopt;
    a->insert(b->begin(), b->end());
    return a;
  }
  if (op == BinOp::And) {
    auto a = bound_labels(cond->lhs(), var);
    auto b = bound_labels(cond->rhs(), var);
    if (a && b) {
      std::set<std::string> both;
      std::set_intersection(a->begin(), a->end(), b->begin(), b->end(),
                            std::inserter(both, both.begin()));
      return both;
    }
    return a ? a : b;
  }
  return std::nullopt;
}

}  // namespace

/// Reaction-level bound for a label binder: the union of per-branch bounds.
/// An unconditional or else branch fires regardless of the label, so the
/// binder admits anything.
std::optional<std::set<std::string>> admitted_labels(const Reaction& r,
                                                     const std::string& var) {
  std::set<std::string> all;
  for (const Branch& br : r.branches()) {
    if (!br.condition || br.is_else) return std::nullopt;
    auto sub = bound_labels(br.condition, var);
    if (!sub) return std::nullopt;
    all.insert(sub->begin(), sub->end());
  }
  return all;
}

namespace {

bool sets_intersect(const std::set<std::string>& a,
                    const std::set<std::string>& b) {
  if (a.size() > b.size()) return sets_intersect(b, a);
  return std::any_of(a.begin(), a.end(),
                     [&](const std::string& s) { return b.contains(s); });
}

bool sets_intersect(const std::set<std::size_t>& a,
                    const std::set<std::size_t>& b) {
  if (a.size() > b.size()) return sets_intersect(b, a);
  return std::any_of(a.begin(), a.end(),
                     [&](std::size_t s) { return b.contains(s); });
}

bool consumes_anything(const Footprint& f) {
  return f.consume_any || !f.consume_labels.empty() ||
         !f.consume_arities.empty();
}

bool produces_anything(const Footprint& f) {
  return f.produce_any || !f.produce_labels.empty() ||
         !f.produce_arities.empty();
}

struct Dsu {
  std::vector<std::size_t> parent;
  explicit Dsu(std::size_t n) : parent(n) {
    for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  }
  std::size_t find(std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent[find(a)] = find(b); }
};

void join(std::ostream& os, const std::set<std::string>& labels,
          const std::set<std::size_t>& arities, bool any) {
  if (any) {
    os << '*';
    return;
  }
  bool first = true;
  for (const std::string& l : labels) {
    os << (first ? "" : ",") << '\'' << l << '\'';
    first = false;
  }
  for (const std::size_t a : arities) {
    os << (first ? "" : ",") << "arity:" << a;
    first = false;
  }
  if (first) os << "-";
}

/// Upper bound on how many elements of label `l` can ever coexist: its
/// initial count, or unbounded once any reaction can produce it.
std::size_t label_cap(const std::string& l,
                      const std::map<std::string, std::size_t>& initial_counts,
                      const std::set<std::string>& produced,
                      bool any_produce_any) {
  if (any_produce_any || produced.contains(l)) {
    return std::numeric_limits<std::size_t>::max();
  }
  const auto it = initial_counts.find(l);
  return it == initial_counts.end() ? 0 : it->second;
}

/// Can two DISTINCT overlapping matches of `r` ever exist? Distinct matches
/// of a single-pattern reaction are element-disjoint (and commute); a
/// multi-pattern reaction whose every pattern is pinned to a label with at
/// most one live element admits at most one tuple. Everything else is
/// probed dynamically.
bool self_competes(const Reaction& r, const Footprint& f,
                   const std::map<std::string, std::size_t>& initial_counts,
                   const std::set<std::string>& produced,
                   bool any_produce_any) {
  if (r.arity() <= 1) return false;
  if (f.consume_any || !f.consume_arities.empty()) return true;
  for (const Pattern& p : r.patterns()) {
    const auto& fields = p.fields();
    if (fields.size() < 2 || fields[1].is_binder() ||
        !fields[1].value().is_str()) {
      return true;  // not label-pinned: multiplicity unknowable
    }
    if (label_cap(fields[1].value().as_str(), initial_counts, produced,
                  any_produce_any) > 1) {
      return true;
    }
  }
  return false;
}

/// The program restricted to stages `from_stage..end` — the valid
/// continuation of a run that has reached the middle of stage `from_stage`.
Program tail_program(const Program& program, std::size_t from_stage) {
  Program tail;
  for (std::size_t s = from_stage; s < program.stages().size(); ++s) {
    Program stage{program.stages()[s]};
    tail = tail.empty() ? std::move(stage) : tail.then(stage);
  }
  return tail;
}

/// Reachable states sampled along one IndexedEngine run, bucketed by the
/// stage that was active when each state was visited. A journaled run gives
/// the fire count and each fire's stage; the state after k fires is the
/// final multiset of the same seeded run cut at max_steps = k (the budget
/// only stops the schedule, it never changes it, so the cut run is a prefix).
std::vector<std::vector<Multiset>> sample_states(
    const Program& program, const Multiset& initial,
    const InterferenceOptions& options) {
  std::vector<std::vector<Multiset>> by_stage(program.stages().size());
  if (by_stage.empty()) return by_stage;

  gamma::RunOptions ro;
  ro.seed = options.seed;
  ro.max_steps = std::max<std::uint64_t>(options.probe_max_steps * 8, 4096);
  ro.limit_policy = LimitPolicy::Partial;
  obs::RecorderLimits limits;
  limits.max_fires = ro.max_steps;
  obs::RunRecorder recorder(limits);
  ro.record = &recorder;
  (void)gamma::IndexedEngine().run(program, initial, ro);
  const std::vector<obs::FireRecord> fires = recorder.take().fires;
  ro.record = nullptr;

  // State k (the multiset after k fires) belongs to fire k's stage; state 0
  // to the first fire's.
  const auto stage_of = [&](std::size_t k) {
    return fires.empty()
               ? std::size_t{0}
               : static_cast<std::size_t>(fires[k == 0 ? 0 : k - 1].stage);
  };
  const std::size_t states = fires.size() + 1;
  const std::size_t want = std::max<std::size_t>(options.probe_states, 1);
  const std::size_t stride = std::max<std::size_t>(states / want, 1);
  for (std::size_t k = 0; k < states; k += stride) {
    ro.max_steps = k;
    by_stage[stage_of(k)].push_back(
        k == 0 ? initial
               : gamma::IndexedEngine().run(program, initial, ro).final_multiset);
  }
  return by_stage;
}

/// Fallback when no initial multiset is given: random states synthesized
/// from the pair's own replace lists (one binding environment per reaction
/// instance so repeated binders stay consistent), with label binders drawn
/// from the admitted bounds or the program's label universe.
Multiset synthesize_state(const Reaction& r1, const Reaction& r2,
                          const std::set<std::string>& universe, Rng& rng) {
  Multiset m;
  const std::vector<const Reaction*> pair =
      (&r1 == &r2) ? std::vector<const Reaction*>{&r1}
                   : std::vector<const Reaction*>{&r1, &r2};
  for (const Reaction* r : pair) {
    const std::size_t instances = 1 + rng.bounded(2) + (&r1 == &r2 ? 1 : 0);
    for (std::size_t inst = 0; inst < instances; ++inst) {
      std::map<std::string, Value> binding;
      for (const Pattern& p : r->patterns()) {
        std::vector<Value> fields;
        for (std::size_t i = 0; i < p.fields().size(); ++i) {
          const auto& f = p.fields()[i];
          if (!f.is_binder()) {
            fields.push_back(f.value());
            continue;
          }
          auto it = binding.find(f.name());
          if (it == binding.end()) {
            Value v(static_cast<std::int64_t>(rng.bounded(6)));
            if (i == 1) {
              std::set<std::string> pool;
              if (auto bounds = admitted_labels(*r, f.name())) {
                pool = *bounds;
              } else {
                pool = universe;
              }
              if (!pool.empty()) {
                auto pick = pool.begin();
                std::advance(pick, static_cast<std::ptrdiff_t>(
                                       rng.bounded(pool.size())));
                v = Value(*pick);
              }
            }
            it = binding.emplace(f.name(), std::move(v)).first;
          }
          fields.push_back(it->second);
        }
        m.add(Element(std::move(fields)));
      }
    }
  }
  return m;
}

bool ids_overlap(const std::vector<gamma::Store::Id>& a,
                 const std::vector<gamma::Store::Id>& b) {
  return std::any_of(a.begin(), a.end(), [&](gamma::Store::Id id) {
    return std::find(b.begin(), b.end(), id) != b.end();
  });
}

/// Runs the continuation program from `m` to a fixpoint under a firing
/// budget. nullopt = budget exhausted (inconclusive probe).
std::optional<Multiset> probe_fixpoint(const Program& continuation,
                                       const Multiset& m, std::uint64_t seed,
                                       std::uint64_t max_steps) {
  gamma::RunOptions ro;
  ro.seed = seed;
  ro.max_steps = max_steps;
  ro.limit_policy = LimitPolicy::Partial;
  gamma::RunResult r = gamma::IndexedEngine().run(continuation, m, ro);
  if (r.outcome != Outcome::Completed) return std::nullopt;
  return std::move(r.final_multiset);
}

}  // namespace

std::string Footprint::to_string() const {
  std::ostringstream os;
  os << "consumes ";
  join(os, consume_labels, consume_arities, consume_any);
  os << " produces ";
  join(os, produce_labels, produce_arities, produce_any);
  return os.str();
}

Footprint reaction_footprint(const Reaction& reaction) {
  Footprint f;
  for (const Pattern& p : reaction.patterns()) {
    const auto& fields = p.fields();
    if (fields.size() < 2) {
      f.consume_arities.insert(p.arity());
      continue;
    }
    if (!fields[1].is_binder()) {
      if (fields[1].value().is_str()) {
        f.consume_labels.insert(fields[1].value().as_str());
      } else {
        f.consume_arities.insert(p.arity());
      }
      continue;
    }
    if (auto bounds = admitted_labels(reaction, fields[1].name())) {
      f.consume_labels.insert(bounds->begin(), bounds->end());
    } else {
      f.consume_any = true;
    }
  }
  for (const Branch& br : reaction.branches()) {
    for (const auto& tuple : br.outputs) {
      if (tuple.size() < 2) {
        f.produce_arities.insert(tuple.size());
        continue;
      }
      const ExprPtr& label = tuple[1];
      if (label->kind() == Expr::Kind::Literal) {
        if (label->literal().is_str()) {
          f.produce_labels.insert(label->literal().as_str());
        } else {
          f.produce_arities.insert(tuple.size());
        }
        continue;
      }
      // A label binder passed through keeps its consume-side bound.
      if (label->kind() == Expr::Kind::Var) {
        if (auto bounds = admitted_labels(reaction, label->var())) {
          f.produce_labels.insert(bounds->begin(), bounds->end());
          continue;
        }
      }
      f.produce_any = true;
    }
  }
  return f;
}

std::vector<runtime::WakeKeys> wakeup_keys(const gamma::Program& program) {
  std::vector<runtime::WakeKeys> keys;
  for (const gamma::Reaction* r : program.all_reactions()) {
    const Footprint f = reaction_footprint(*r);
    runtime::WakeKeys k;
    k.labels = f.consume_labels;
    k.arities = f.consume_arities;
    k.any = f.consume_any;
    keys.push_back(std::move(k));
  }
  return keys;
}

bool compete(const Footprint& a, const Footprint& b) {
  if ((a.consume_any && consumes_anything(b)) ||
      (b.consume_any && consumes_anything(a))) {
    return true;
  }
  return sets_intersect(a.consume_labels, b.consume_labels) ||
         sets_intersect(a.consume_arities, b.consume_arities);
}

bool feeds(const Footprint& a, const Footprint& b) {
  if (a.produce_any && consumes_anything(b)) return true;
  if (b.consume_any && produces_anything(a)) return true;
  return sets_intersect(a.produce_labels, b.consume_labels) ||
         sets_intersect(a.produce_arities, b.consume_arities);
}

bool interferes(const Footprint& a, const Footprint& b) {
  return compete(a, b) || feeds(a, b) || feeds(b, a);
}

const char* to_string(PairStatus status) noexcept {
  switch (status) {
    case PairStatus::Independent: return "independent";
    case PairStatus::Ordered: return "ordered";
    case PairStatus::Commutes: return "commutes";
    case PairStatus::Diverges: return "diverges";
    case PairStatus::Unknown: return "unknown";
  }
  return "?";
}

const char* to_string(ConfluenceVerdict verdict) noexcept {
  switch (verdict) {
    case ConfluenceVerdict::Confluent: return "confluent";
    case ConfluenceVerdict::LikelyConfluent: return "likely-confluent";
    case ConfluenceVerdict::NonConfluent: return "non-confluent";
  }
  return "?";
}

std::map<std::string, std::size_t> InterferenceReport::engine_classes() const {
  std::map<std::string, std::size_t> out;
  for (std::size_t i = 0; i < reactions.size(); ++i) {
    out[reactions[i]] = class_of[i];
  }
  return out;
}

std::map<std::string, std::size_t> InterferenceReport::label_affinity() const {
  std::map<std::string, std::size_t> out;
  for (std::size_t i = 0; i < reactions.size(); ++i) {
    for (const std::string& l : footprints[i].consume_labels) {
      out.emplace(l, class_of[i]);  // consumers win: emplace keeps the first
    }
  }
  for (std::size_t i = 0; i < reactions.size(); ++i) {
    for (const std::string& l : footprints[i].produce_labels) {
      out.emplace(l, class_of[i]);
    }
  }
  return out;
}

bool InterferenceReport::has_divergence() const noexcept {
  return std::any_of(pairs.begin(), pairs.end(), [](const PairFinding& p) {
    return p.status == PairStatus::Diverges;
  });
}

std::string InterferenceReport::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const InterferenceReport& report) {
  os << "interference: " << report.reactions.size() << " reaction(s), "
     << report.edges.size() << " edge(s), " << report.class_count
     << " conflict class(es), verdict " << to_string(report.verdict) << '\n';
  for (std::size_t i = 0; i < report.reactions.size(); ++i) {
    os << "  " << report.reactions[i] << " [class " << report.class_of[i]
       << "] " << report.footprints[i].to_string() << '\n';
  }
  for (const PairFinding& p : report.pairs) {
    os << "  pair (" << report.reactions[p.r1] << ", " << report.reactions[p.r2]
       << "): " << to_string(p.status) << '\n';
    if (p.status == PairStatus::Diverges) {
      os << "    witness M = " << p.witness << '\n'
         << "    fixpoint via " << report.reactions[p.r1] << " = "
         << p.fixpoint1 << '\n'
         << "    fixpoint via " << report.reactions[p.r2] << " = "
         << p.fixpoint2 << '\n';
    }
  }
  return os;
}

void write_json(std::ostream& os, const InterferenceReport& report) {
  auto escape = [](const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out.push_back(c);
    }
    return out;
  };
  os << "{\"verdict\":\"" << to_string(report.verdict)
     << "\",\"class_count\":" << report.class_count << ",\"reactions\":[";
  for (std::size_t i = 0; i < report.reactions.size(); ++i) {
    if (i) os << ',';
    os << "{\"name\":\"" << escape(report.reactions[i]) << "\",\"class\":"
       << report.class_of[i] << ",\"footprint\":\""
       << escape(report.footprints[i].to_string()) << "\"}";
  }
  // Edge lists by kind, as [from, to] name pairs — feed edges are directed
  // produce->consume, compete edges undirected (emitted r1,r2). The optimizer
  // report and external tools consume this same schema.
  os << "],\"feed_edges\":[";
  bool first_edge = true;
  for (const auto& e : report.typed_edges) {
    for (const auto& [from, to] :
         {std::pair{e.r1, e.r2}, std::pair{e.r2, e.r1}}) {
      if (!(from == e.r1 ? e.feeds_12 : e.feeds_21)) continue;
      if (!first_edge) os << ',';
      first_edge = false;
      os << "[\"" << escape(report.reactions[from]) << "\",\""
         << escape(report.reactions[to]) << "\"]";
    }
  }
  os << "],\"compete_edges\":[";
  first_edge = true;
  for (const auto& e : report.typed_edges) {
    if (!e.compete) continue;
    if (!first_edge) os << ',';
    first_edge = false;
    os << "[\"" << escape(report.reactions[e.r1]) << "\",\""
       << escape(report.reactions[e.r2]) << "\"]";
  }
  os << "],\"pairs\":[";
  for (std::size_t k = 0; k < report.pairs.size(); ++k) {
    const PairFinding& p = report.pairs[k];
    if (k) os << ',';
    os << "{\"r1\":\"" << escape(report.reactions[p.r1]) << "\",\"r2\":\""
       << escape(report.reactions[p.r2]) << "\",\"status\":\""
       << to_string(p.status) << '"';
    if (p.status == PairStatus::Diverges) {
      os << ",\"witness\":\"" << escape(p.witness.to_string())
         << "\",\"fixpoint1\":\"" << escape(p.fixpoint1.to_string())
         << "\",\"fixpoint2\":\"" << escape(p.fixpoint2.to_string()) << '"';
    }
    os << '}';
  }
  os << "]}";
}

InterferenceReport analyze_interference(const Program& program,
                                        const Multiset& initial,
                                        const InterferenceOptions& options) {
  InterferenceReport report;
  std::vector<const Reaction*> reactions;
  std::vector<std::size_t> stage_of;
  for (std::size_t s = 0; s < program.stages().size(); ++s) {
    for (const Reaction& r : program.stages()[s]) {
      reactions.push_back(&r);
      stage_of.push_back(s);
      report.reactions.push_back(r.name());
      report.footprints.push_back(reaction_footprint(r));
    }
  }
  const std::size_t n = reactions.size();

  // Multiplicity context for the self-competition refinement.
  std::map<std::string, std::size_t> initial_counts;
  for (const Element& e : initial) {
    if (e.arity() >= 2 && e.field(1).is_str()) {
      ++initial_counts[e.field(1).as_str()];
    }
  }
  std::set<std::string> produced;
  std::set<std::string> universe;
  bool any_produce_any = false;
  for (const Footprint& f : report.footprints) {
    produced.insert(f.produce_labels.begin(), f.produce_labels.end());
    universe.insert(f.produce_labels.begin(), f.produce_labels.end());
    universe.insert(f.consume_labels.begin(), f.consume_labels.end());
    any_produce_any |= f.produce_any;
  }
  for (const auto& [l, c] : initial_counts) universe.insert(l);

  // Interference graph and conflict classes (per stage: reactions in
  // different sequential stages are never concurrent, so they never share a
  // class even when their labels overlap).
  Dsu dsu(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (stage_of[i] != stage_of[j]) continue;
      if (interferes(report.footprints[i], report.footprints[j])) {
        report.edges.emplace_back(i, j);
        report.typed_edges.push_back(
            {i, j, compete(report.footprints[i], report.footprints[j]),
             feeds(report.footprints[i], report.footprints[j]),
             feeds(report.footprints[j], report.footprints[i])});
        dsu.unite(i, j);
      }
    }
  }
  report.class_of.assign(n, 0);
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> class_ids;
  for (std::size_t i = 0; i < n; ++i) {
    const auto key = std::make_pair(stage_of[i], dsu.find(i));
    auto [it, inserted] = class_ids.emplace(key, class_ids.size());
    report.class_of[i] = it->second;
  }
  report.class_count = class_ids.size();

  // --- commutation probing over reachable states ---
  const bool have_initial = !initial.empty();
  std::vector<std::vector<Multiset>> states_by_stage;
  if (have_initial && options.probe_states > 0) {
    states_by_stage = sample_states(program, initial, options);
  }
  Rng rng(options.seed ^ 0xa5a5a5a5a5a5a5a5ULL);
  std::uint64_t probe_counter = options.seed;

  bool any_competition = false;
  bool any_unknown = false;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      if (stage_of[i] != stage_of[j]) continue;
      const Footprint& fi = report.footprints[i];
      const Footprint& fj = report.footprints[j];
      const bool competing =
          i == j ? self_competes(*reactions[i], fi, initial_counts, produced,
                                 any_produce_any)
                 : compete(fi, fj);
      if (!competing) {
        if (i != j && (feeds(fi, fj) || feeds(fj, fi))) {
          report.pairs.push_back({i, j, PairStatus::Ordered, {}, {}, {}, {},
                                  {}, 0});
        }
        continue;
      }
      any_competition = true;

      PairFinding finding;
      finding.r1 = i;
      finding.r2 = j;
      finding.status = PairStatus::Unknown;
      const Program continuation = tail_program(program, stage_of[i]);
      bool inconclusive = false;

      std::vector<Multiset> synthesized;
      if (!have_initial && options.probe_states > 0) {
        for (std::size_t t = 0; t < options.probe_states; ++t) {
          synthesized.push_back(
              synthesize_state(*reactions[i], *reactions[j], universe, rng));
        }
      }
      const std::vector<Multiset>& probe_pool =
          have_initial && !states_by_stage.empty()
              ? states_by_stage[stage_of[i]]
              : synthesized;

      for (const Multiset& state : probe_pool) {
        if (finding.status == PairStatus::Diverges) break;
        gamma::Store store(state);
        std::vector<gamma::Match> m1s;
        std::vector<gamma::Match> m2s;
        const std::size_t limit = options.probe_matches;
        runtime::MatchPipeline::enumerate(store, *reactions[i], limit,
                                 [&](const gamma::Match& m) {
                                   m1s.push_back(m);
                                   return true;
                                 });
        if (i == j) {
          m2s = m1s;
        } else {
          runtime::MatchPipeline::enumerate(store, *reactions[j], limit,
                                   [&](const gamma::Match& m) {
                                     m2s.push_back(m);
                                     return true;
                                   });
        }
        for (std::size_t a = 0; a < m1s.size(); ++a) {
          if (finding.status == PairStatus::Diverges) break;
          const std::size_t b0 = (i == j) ? a + 1 : 0;
          for (std::size_t b = b0; b < m2s.size(); ++b) {
            if (!ids_overlap(m1s[a].ids, m2s[b].ids)) continue;
            // Two conflicting enabled firings from a reachable state: run
            // the continuation from both successors. Distinct fixpoints are
            // two complete runs of the program disagreeing — a proof.
            gamma::Store s1(state);
            gamma::Store s2(state);
            // Re-find the same matches in the fresh stores: ids are stable
            // because Store construction inserts in multiset order.
            runtime::MatchPipeline::commit(s1, m1s[a]);
            runtime::MatchPipeline::commit(s2, m2s[b]);
            const Multiset m1 = s1.to_multiset();
            const Multiset m2 = s2.to_multiset();
            const std::uint64_t probe_seed = splitmix64(probe_counter);
            const auto f1 = probe_fixpoint(continuation, m1, probe_seed,
                                           options.probe_max_steps);
            const auto f2 = probe_fixpoint(continuation, m2, probe_seed,
                                           options.probe_max_steps);
            if (!f1 || !f2) {
              inconclusive = true;
              continue;
            }
            if (*f1 != *f2) {
              finding.status = PairStatus::Diverges;
              finding.witness = state;
              finding.witness_m1 = m1;
              finding.witness_m2 = m2;
              finding.fixpoint1 = *f1;
              finding.fixpoint2 = *f2;
              finding.witness_seed = probe_seed;
              break;
            }
          }
        }
      }
      if (finding.status != PairStatus::Diverges) {
        // Commutes only on actual evidence: at least one state probed and no
        // probe left hanging. An empty probe pool (probing disabled, or a
        // stage the sampling run never reached) stays Unknown.
        finding.status = (!probe_pool.empty() && !inconclusive)
                             ? PairStatus::Commutes
                             : PairStatus::Unknown;
      }
      any_unknown |= finding.status == PairStatus::Unknown;
      report.pairs.push_back(std::move(finding));
    }
  }

  if (report.has_divergence()) {
    report.verdict = ConfluenceVerdict::NonConfluent;
  } else if (any_competition || any_unknown) {
    report.verdict = ConfluenceVerdict::LikelyConfluent;
  } else {
    report.verdict = ConfluenceVerdict::Confluent;
  }
  return report;
}

}  // namespace gammaflow::analysis
