#include "gammaflow/obs/run_recorder.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace gammaflow::obs {
namespace {

/// Approximate serialized weight of a delta entry: the string plus JSON
/// punctuation and a count. Only relative accuracy matters — the budget
/// bounds journal growth, it is not an exact encoder size.
std::uint64_t entry_bytes(const StoreCounts& counts) {
  std::uint64_t bytes = 0;
  for (const auto& [elem, n] : counts) {
    (void)n;
    bytes += elem.size() + 16;
  }
  return bytes;
}

void apply_delta(StoreCounts& store, const StoreCounts& added,
                 const StoreCounts& removed) {
  for (const auto& [elem, n] : removed) {
    auto it = store.find(elem);
    if (it == store.end()) continue;
    it->second -= n;
    if (it->second <= 0) store.erase(it);
  }
  for (const auto& [elem, n] : added) store[elem] += n;
}

std::uint64_t total_count(const StoreCounts& store) {
  std::uint64_t n = 0;
  for (const auto& [elem, c] : store) {
    (void)elem;
    n += static_cast<std::uint64_t>(c);
  }
  return n;
}

// ---------------------------------------------------------------- writing

void write_json_string(std::ostream& out, const std::string& s) {
  out.put('"');
  // Bytes that need no escape go out in runs, one write() per run rather
  // than one stream insertion per character.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const char* esc = nullptr;
    switch (c) {
      case '"': esc = "\\\""; break;
      case '\\': esc = "\\\\"; break;
      case '\n': esc = "\\n"; break;
      case '\r': esc = "\\r"; break;
      case '\t': esc = "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) continue;
    }
    out.write(s.data() + run, static_cast<std::streamsize>(i - run));
    run = i + 1;
    if (esc != nullptr) {
      out << esc;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out << buf;
    }
  }
  out.write(s.data() + run, static_cast<std::streamsize>(s.size() - run));
  out.put('"');
}

void write_counts(std::ostream& out, const StoreCounts& counts) {
  out << '{';
  bool first = true;
  for (const auto& [elem, n] : counts) {
    if (!first) out << ',';
    first = false;
    write_json_string(out, elem);
    out << ':' << n;
  }
  out << '}';
}

void write_strings(std::ostream& out, const std::vector<std::string>& items) {
  out << '[';
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out << ',';
    write_json_string(out, items[i]);
  }
  out << ']';
}

// ---------------------------------------------------------------- parsing
//
// A minimal recursive-descent parser for exactly the JSON write_journal
// emits (objects, arrays, strings, integers). Kept here rather than pulling
// in a dependency: the container bakes no JSON library and the grammar is
// ten productions.

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  [[nodiscard]] Journal parse() {
    Journal j;
    expect('{');
    bool first = true;
    while (!peek_is('}')) {
      if (!first) expect(',');
      first = false;
      const std::string key = parse_string();
      expect(':');
      if (key == "gf_journal") {
        j.version = static_cast<int>(parse_int());
      } else if (key == "engine") {
        j.engine = parse_string();
      } else if (key == "kind") {
        j.kind = parse_string();
      } else if (key == "session") {
        j.session = parse_string();
      } else if (key == "outcome") {
        j.outcome = parse_string();
      } else if (key == "initial") {
        j.initial = parse_counts();
      } else if (key == "final") {
        j.final_store = parse_counts();
      } else if (key == "rounds") {
        j.rounds = parse_rounds();
      } else if (key == "fires") {
        j.fires = parse_fires();
      } else if (key == "fires_total") {
        j.fires_total = static_cast<std::uint64_t>(parse_int());
      } else if (key == "fires_dropped") {
        j.fires_dropped = static_cast<std::uint64_t>(parse_int());
      } else if (key == "rounds_total") {
        j.rounds_total = static_cast<std::uint64_t>(parse_int());
      } else if (key == "rounds_dropped") {
        j.rounds_dropped = static_cast<std::uint64_t>(parse_int());
      } else {
        skip_value();  // forward compatibility: ignore unknown keys
      }
    }
    expect('}');
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after journal object");
    if (j.version != kJournalVersion) {
      throw std::runtime_error("unsupported journal version " +
                               std::to_string(j.version));
    }
    return j;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("journal parse error at offset " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }
  [[nodiscard]] bool peek_is(char c) {
    skip_ws();
    return pos_ < text_.size() && text_[pos_] == c;
  }
  void expect(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  [[nodiscard]] std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("dangling escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          const unsigned code =
              static_cast<unsigned>(std::stoul(text_.substr(pos_, 4), nullptr, 16));
          pos_ += 4;
          // write_journal only \u-escapes control characters (< 0x20); keep
          // the parser honest about exactly that range.
          if (code > 0xFF) fail("non-latin \\u escape unsupported");
          out.push_back(static_cast<char>(code));
          break;
        }
        default: fail("unknown escape");
      }
    }
    expect('"');
    return out;
  }

  [[nodiscard]] std::int64_t parse_int() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
    if (pos_ == start) fail("expected integer");
    return std::stoll(text_.substr(start, pos_ - start));
  }

  [[nodiscard]] StoreCounts parse_counts() {
    StoreCounts counts;
    expect('{');
    bool first = true;
    while (!peek_is('}')) {
      if (!first) expect(',');
      first = false;
      const std::string key = parse_string();
      expect(':');
      counts[key] = parse_int();
    }
    expect('}');
    return counts;
  }

  [[nodiscard]] std::vector<std::string> parse_strings() {
    std::vector<std::string> items;
    expect('[');
    bool first = true;
    while (!peek_is(']')) {
      if (!first) expect(',');
      first = false;
      items.push_back(parse_string());
    }
    expect(']');
    return items;
  }

  [[nodiscard]] std::vector<RoundDelta> parse_rounds() {
    std::vector<RoundDelta> rounds;
    expect('[');
    bool first = true;
    while (!peek_is(']')) {
      if (!first) expect(',');
      first = false;
      RoundDelta d;
      expect('{');
      bool kfirst = true;
      while (!peek_is('}')) {
        if (!kfirst) expect(',');
        kfirst = false;
        const std::string key = parse_string();
        expect(':');
        if (key == "fires") {
          d.fires = static_cast<std::uint64_t>(parse_int());
        } else if (key == "size") {
          d.store_size = static_cast<std::uint64_t>(parse_int());
        } else if (key == "add") {
          d.added = parse_counts();
        } else if (key == "del") {
          d.removed = parse_counts();
        } else {
          skip_value();
        }
      }
      expect('}');
      rounds.push_back(std::move(d));
    }
    expect(']');
    return rounds;
  }

  [[nodiscard]] std::vector<FireRecord> parse_fires() {
    std::vector<FireRecord> fires;
    expect('[');
    bool first = true;
    while (!peek_is(']')) {
      if (!first) expect(',');
      first = false;
      FireRecord f;
      expect('{');
      bool kfirst = true;
      while (!peek_is('}')) {
        if (!kfirst) expect(',');
        kfirst = false;
        const std::string key = parse_string();
        expect(':');
        if (key == "r") {
          f.reaction = parse_string();
        } else if (key == "stage") {
          f.stage = parse_int();
        } else if (key == "round") {
          f.round = static_cast<std::uint64_t>(parse_int());
        } else if (key == "in") {
          f.consumed = parse_strings();
        } else if (key == "out") {
          f.produced = parse_strings();
        } else if (key == "shard") {
          f.shard = parse_int();
        } else if (key == "node") {
          f.node = parse_int();
        } else {
          skip_value();
        }
      }
      expect('}');
      fires.push_back(std::move(f));
    }
    expect(']');
    return fires;
  }

  void skip_value() {  // NOLINT(misc-no-recursion)
    skip_ws();
    if (pos_ >= text_.size()) fail("expected value");
    const char c = text_[pos_];
    if (c == '"') {
      (void)parse_string();
    } else if (c == '{') {
      expect('{');
      bool first = true;
      while (!peek_is('}')) {
        if (!first) expect(',');
        first = false;
        (void)parse_string();
        expect(':');
        skip_value();
      }
      expect('}');
    } else if (c == '[') {
      expect('[');
      bool first = true;
      while (!peek_is(']')) {
        if (!first) expect(',');
        first = false;
        skip_value();
      }
      expect(']');
    } else {
      (void)parse_int();
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

// --------------------------------------------------------------- recorder

void RunRecorder::begin(std::string engine, std::string kind,
                        StoreCounts initial) {
  const std::lock_guard<std::mutex> lock(mu_);
  journal_ = Journal{};
  journal_.engine = std::move(engine);
  journal_.kind = std::move(kind);
  journal_.initial = std::move(initial);
  last_kept_ = journal_.initial;
  pending_.clear();
  live_ = static_cast<std::int64_t>(total_count(journal_.initial));
  round_bytes_ = 0;
  fires_in_round_ = 0;
}

void RunRecorder::set_session(std::string session) {
  const std::lock_guard<std::mutex> lock(mu_);
  journal_.session = std::move(session);
}

void RunRecorder::fire(FireRecord record) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++journal_.fires_total;
  ++fires_in_round_;
  const auto bump = [this](const std::string& elem, std::int64_t by) {
    const auto [it, fresh] = pending_.try_emplace(elem, by);
    if (!fresh && (it->second += by) == 0) pending_.erase(it);
  };
  for (const std::string& e : record.consumed) bump(e, -1);
  for (const std::string& e : record.produced) bump(e, +1);
  live_ += static_cast<std::int64_t>(record.produced.size()) -
           static_cast<std::int64_t>(record.consumed.size());
  if (journal_.fires.size() >= limits_.max_fires) {
    ++journal_.fires_dropped;
    return;
  }
  record.round = journal_.rounds.size();
  journal_.fires.push_back(std::move(record));
}

void RunRecorder::close_round_locked(const StoreCounts& store,
                                     bool budget_exempt) {
  RoundDelta delta;
  for (const auto& [elem, n] : store) {
    auto it = last_kept_.find(elem);
    const std::int64_t before = it == last_kept_.end() ? 0 : it->second;
    if (n > before) delta.added[elem] = n - before;
  }
  for (const auto& [elem, n] : last_kept_) {
    auto it = store.find(elem);
    const std::int64_t after = it == store.end() ? 0 : it->second;
    if (n > after) delta.removed[elem] = n - after;
  }
  delta.store_size = total_count(store);
  if (!keep_round_locked(std::move(delta), budget_exempt)) return;
  // The snapshot is the new baseline, whatever the fires said.
  last_kept_ = store;
  live_ = static_cast<std::int64_t>(journal_.rounds.back().store_size);
}

bool RunRecorder::keep_round_locked(RoundDelta delta, bool budget_exempt) {
  delta.fires = fires_in_round_;
  if (!budget_exempt) {
    const std::uint64_t bytes = entry_bytes(delta.added) +
                                entry_bytes(delta.removed) + 32;
    if (journal_.rounds.size() >= limits_.max_rounds ||
        round_bytes_ + bytes > limits_.max_round_bytes) {
      // Dropped: last_kept_ and pending_ stay put, so this delta folds into
      // the next kept round (or the budget-exempt closing round).
      ++journal_.rounds_dropped;
      return false;
    }
    round_bytes_ += bytes;
  }
  fires_in_round_ = 0;
  pending_.clear();
  journal_.rounds.push_back(std::move(delta));
  return true;
}

void RunRecorder::round() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++journal_.rounds_total;
  RoundDelta delta;
  for (const auto& [elem, n] : pending_) {
    if (n > 0) {
      delta.added.emplace_hint(delta.added.end(), elem, n);
    } else {
      delta.removed.emplace_hint(delta.removed.end(), elem, -n);
    }
  }
  delta.store_size = static_cast<std::uint64_t>(live_);
  if (!keep_round_locked(std::move(delta), /*budget_exempt=*/false)) return;
  const RoundDelta& kept = journal_.rounds.back();
  apply_delta(last_kept_, kept.added, kept.removed);
}

void RunRecorder::round(const StoreCounts& store) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++journal_.rounds_total;
  close_round_locked(store, /*budget_exempt=*/false);
}

void RunRecorder::finish(std::string outcome, StoreCounts final_store) {
  const std::lock_guard<std::mutex> lock(mu_);
  journal_.outcome = std::move(outcome);
  // A snapshot diff, not the pending delta: the closing round must reach
  // `final_store` exactly whatever the engine did outside recorded fires.
  if (last_kept_ != final_store) {
    ++journal_.rounds_total;
    close_round_locked(final_store, /*budget_exempt=*/true);
  }
  journal_.final_store = std::move(final_store);
}

Journal RunRecorder::journal() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return journal_;
}

Journal RunRecorder::take() {
  const std::lock_guard<std::mutex> lock(mu_);
  Journal out = std::move(journal_);
  journal_ = Journal{};
  last_kept_.clear();
  pending_.clear();
  live_ = 0;
  round_bytes_ = 0;
  fires_in_round_ = 0;
  return out;
}

// ------------------------------------------------------------- serializer

void write_journal(std::ostream& out, const Journal& journal) {
  out << "{\"gf_journal\":" << journal.version;
  out << ",\"engine\":";
  write_json_string(out, journal.engine);
  out << ",\"kind\":";
  write_json_string(out, journal.kind);
  if (!journal.session.empty()) {
    out << ",\"session\":";
    write_json_string(out, journal.session);
  }
  out << ",\"outcome\":";
  write_json_string(out, journal.outcome);
  out << ",\"initial\":";
  write_counts(out, journal.initial);
  out << ",\"rounds\":[";
  for (std::size_t i = 0; i < journal.rounds.size(); ++i) {
    const RoundDelta& d = journal.rounds[i];
    if (i > 0) out << ',';
    out << "{\"fires\":" << d.fires << ",\"size\":" << d.store_size
        << ",\"add\":";
    write_counts(out, d.added);
    out << ",\"del\":";
    write_counts(out, d.removed);
    out << '}';
  }
  out << "],\"fires\":[";
  for (std::size_t i = 0; i < journal.fires.size(); ++i) {
    const FireRecord& f = journal.fires[i];
    if (i > 0) out << ',';
    out << "{\"r\":";
    write_json_string(out, f.reaction);
    out << ",\"stage\":" << f.stage << ",\"round\":" << f.round << ",\"in\":";
    write_strings(out, f.consumed);
    out << ",\"out\":";
    write_strings(out, f.produced);
    out << ",\"shard\":" << f.shard << ",\"node\":" << f.node << '}';
  }
  out << "],\"final\":";
  write_counts(out, journal.final_store);
  out << ",\"fires_total\":" << journal.fires_total
      << ",\"fires_dropped\":" << journal.fires_dropped
      << ",\"rounds_total\":" << journal.rounds_total
      << ",\"rounds_dropped\":" << journal.rounds_dropped << '}';
}

std::string journal_to_string(const Journal& journal) {
  std::ostringstream out;
  write_journal(out, journal);
  return out.str();
}

Journal parse_journal(std::istream& in) {
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_journal_string(buf.str());
}

Journal parse_journal_string(const std::string& text) {
  return Parser(text).parse();
}

// ----------------------------------------------------------------- replay

StoreCounts replay_fires(const Journal& journal, std::size_t upto) {
  StoreCounts store = journal.initial;
  const std::size_t n = std::min(upto, journal.fires.size());
  for (std::size_t i = 0; i < n; ++i) {
    const FireRecord& f = journal.fires[i];
    StoreCounts consumed;
    StoreCounts produced;
    for (const std::string& e : f.consumed) ++consumed[e];
    for (const std::string& e : f.produced) ++produced[e];
    apply_delta(store, produced, consumed);
  }
  return store;
}

StoreCounts replay_rounds(const Journal& journal, std::size_t upto) {
  StoreCounts store = journal.initial;
  const std::size_t n = std::min(upto, journal.rounds.size());
  for (std::size_t i = 0; i < n; ++i) {
    apply_delta(store, journal.rounds[i].added, journal.rounds[i].removed);
  }
  return store;
}

std::string verify_journal(const Journal& journal) {
  if (replay_rounds(journal, journal.rounds.size()) != journal.final_store) {
    return "round-delta replay does not reach final store";
  }
  if (journal.fires_dropped == 0 &&
      replay_fires(journal, journal.fires.size()) != journal.final_store) {
    return "fire replay does not reach final store";
  }
  if (journal.fires.size() + journal.fires_dropped != journal.fires_total) {
    return "fire drop accounting inconsistent";
  }
  if (journal.rounds_dropped > journal.rounds_total) {
    return "round drop accounting inconsistent";
  }
  return "";
}

}  // namespace gammaflow::obs
