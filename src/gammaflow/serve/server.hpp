// The `gammaflow serve` daemon core: multi-tenant sessions behind a
// line-delimited JSON protocol (one request object per line in, one reply
// object per line out; every reply carries "ok"). The protocol — every
// verb, field, and error reply — is specified in DESIGN §14; this header
// only names the moving parts:
//
//   ServeOptions — daemon-wide defaults (socket path, session cap, default
//                  per-inject deadline and per-session budget, journal stem).
//   Server       — verb dispatch (handle_line is the whole protocol; the
//                  stream and socket fronts are thin line pumps over it),
//                  the session table, and the Unix-socket accept loop
//                  (thread per connection; sessions serialize internally).
//   Client       — blocking line-oriented socket client (bench_serve's load
//                  generator and the CI smoke script).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "gammaflow/serve/session.hpp"
#include "gammaflow/serve/wire.hpp"

namespace gammaflow::obs {
class Telemetry;
}

namespace gammaflow::serve {

struct ServeOptions {
  /// Unix-domain socket path for serve_socket(); serve_stream() (stdio
  /// mode, `--stdio`) ignores it.
  std::string socket_path;
  std::size_t max_sessions = 64;
  /// Default per-inject deadline in seconds (create may override); <= 0
  /// disables.
  double deadline = 0.0;
  /// Default lifetime firing budget per session (create may override).
  std::uint64_t max_steps = 50'000'000;
  std::uint64_t seed = 1;
  /// Columnar batch matching for session drains (`--no-batch` to disable).
  /// Fixpoints are identical either way.
  bool batch = true;
  /// Default wake policy: full rescan instead of footprint wakeups (the
  /// bench A/B baseline; fixpoints are identical either way).
  bool rescan = false;
  /// Journal path stem: session journals are written on close to
  /// "<stem>.<session>.<ext>" ("" = sessions record only when the create
  /// request asks, and the journal is returned inline in the close reply).
  std::string record_out;
  /// DSL program used when a create request has no "program" field.
  std::string default_program;
  obs::Telemetry* telemetry = nullptr;
};

/// Longest request line the socket front buffers, newline excluded. A
/// connection whose line grows past it gets one `line_too_long` error reply
/// and is closed (DESIGN §14), so a client that never sends a newline
/// cannot grow the daemon's memory without bound.
inline constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

/// Splits a connection's byte stream into request lines. Each complete
/// line is scanned once (the search resumes where the last one stopped)
/// and consumed bytes are erased once per append(), so pipelined or long
/// input costs O(bytes), not O(bytes × lines).
class LineSplitter {
 public:
  /// Appends bytes read from the connection.
  void append(const char* data, std::size_t n);
  /// The next complete line, newline stripped; nullopt when none is
  /// buffered or once the stream is too_long().
  [[nodiscard]] std::optional<std::string> next();
  /// True once a line (complete or not) has exceeded kMaxLineBytes; the
  /// stream cannot be resynchronized and the connection should close.
  [[nodiscard]] bool too_long() const noexcept { return too_long_; }
  /// Bytes held: at most kMaxLineBytes plus one append() past it.
  [[nodiscard]] std::size_t buffered() const noexcept { return buf_.size(); }

 private:
  std::string buf_;
  std::size_t start_ = 0;  // first byte of the unconsumed tail
  std::size_t scan_ = 0;   // bytes in [start_, scan_) hold no newline
  bool too_long_ = false;
};

class Server {
 public:
  explicit Server(ServeOptions options);

  /// One request line -> one reply line (no trailing newline). Never
  /// throws: malformed input and failed verbs become
  /// {"ok":false,"error":"<code>", ...} replies.
  [[nodiscard]] std::string handle_line(const std::string& line);

  /// Pumps requests line-by-line until EOF or a shutdown verb — the
  /// `--stdio` front and the in-process protocol tests.
  void serve_stream(std::istream& in, std::ostream& out);

  /// Binds options.socket_path, accepts until a shutdown verb (thread per
  /// connection). Returns 0 on clean shutdown, 1 on socket setup failure.
  int serve_socket();

  [[nodiscard]] bool shutdown_requested() const noexcept {
    return shutdown_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t session_count() const;

 private:
  [[nodiscard]] std::shared_ptr<Session> find_session(
      const std::string& id) const;
  std::string dispatch(const Json& req);
  std::string verb_create(const Json& req);
  std::string verb_inject(const Json& req);
  std::string verb_query(const Json& req);
  std::string verb_snapshot(const Json& req);
  std::string verb_stats(const Json& req);
  std::string verb_close(const Json& req);
  std::string verb_shutdown();
  /// Closes every session (flushing journals); shutdown's cleanup.
  void close_all_sessions();
  /// Finalizes one session: writes its journal to "<stem>.<id>.<ext>"
  /// (noting the path, or the failure, in `reply`), or returns it for the
  /// caller to inline when no stem is configured.
  std::optional<obs::Journal> finish_session(Session& session,
                                             JsonObj& reply);

  ServeOptions options_;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Session>> sessions_;
  std::uint64_t next_id_ = 1;
  std::atomic<bool> shutdown_{false};
  std::atomic<std::uint64_t> requests_{0};
};

/// Blocking client for the daemon's Unix socket. Throws Error when the
/// socket cannot be reached or the daemon hangs up mid-reply.
class Client {
 public:
  explicit Client(const std::string& socket_path);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one request line, blocks for the one reply line (stripped).
  [[nodiscard]] std::string call(const std::string& request);

 private:
  int fd_ = -1;
  std::string buffer_;
  std::size_t scanned_ = 0;  // prefix of buffer_ known to hold no newline
};

/// Journal output path for one session: "<stem>.<session>.<ext>" derived
/// from the daemon's --record-out value (e.g. "runs/serve.json" + "s1" ->
/// "runs/serve.s1.json"). Exposed for the CLI and tests.
[[nodiscard]] std::string session_journal_path(const std::string& record_out,
                                               const std::string& session);

}  // namespace gammaflow::serve
