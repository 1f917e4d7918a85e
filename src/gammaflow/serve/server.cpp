#include "gammaflow/serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "gammaflow/common/cancel.hpp"
#include "gammaflow/common/error.hpp"
#include "gammaflow/common/strings.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/obs/telemetry.hpp"

namespace gammaflow::serve {

namespace {

std::string reply_str(JsonObj fields) {
  return Json(std::move(fields)).to_string();
}

/// Every error reply: ok:false + a stable machine code + a human message.
/// The codes are part of the protocol (DESIGN §14) — tests match on them.
std::string error_reply(const char* code, const std::string& message,
                        JsonObj extra = {}) {
  extra.insert_or_assign("ok", Json(false));
  extra.insert_or_assign("error", Json(std::string(code)));
  extra.insert_or_assign("message", Json(message));
  return reply_str(std::move(extra));
}

/// Outcome -> the protocol's error code ("deadline_exceeded",
/// "budget_exhausted", "cancelled"); nullptr for Completed.
const char* outcome_error_code(Outcome outcome) noexcept {
  switch (outcome) {
    case Outcome::Completed: return nullptr;
    case Outcome::DeadlineExceeded: return "deadline_exceeded";
    case Outcome::BudgetExhausted: return "budget_exhausted";
    case Outcome::Cancelled: return "cancelled";
  }
  return nullptr;
}

JsonObj counts_to_json(const obs::StoreCounts& counts) {
  JsonObj obj;
  for (const auto& [elem, n] : counts) obj.insert_or_assign(elem, Json(n));
  return obj;
}

void fill_inject_reply(JsonObj& reply, const Session::InjectResult& r) {
  reply.insert_or_assign("fires", Json(r.fires));
  reply.insert_or_assign("fires_total", Json(r.fires_total));
  reply.insert_or_assign("store_size",
                         Json(static_cast<std::int64_t>(r.store_size)));
  reply.insert_or_assign("quiesce_us", Json(r.quiesce_us));
  reply.insert_or_assign("outcome", Json(std::string(to_string(r.outcome))));
}

}  // namespace

std::string session_journal_path(const std::string& record_out,
                                 const std::string& session) {
  const std::size_t slash = record_out.find_last_of('/');
  const std::size_t dot = record_out.find_last_of('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return record_out + "." + session;
  }
  return record_out.substr(0, dot) + "." + session + record_out.substr(dot);
}

Server::Server(ServeOptions options) : options_(std::move(options)) {}

std::size_t Server::session_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

std::shared_ptr<Session> Server::find_session(const std::string& id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

std::string Server::handle_line(const std::string& line) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (obs::Telemetry* tel = options_.telemetry) {
    tel->stats().count("serve.requests");
  }
  Json req;
  try {
    req = parse_json(line);
  } catch (const WireError& e) {
    return error_reply("bad_request", e.what());
  }
  if (!req.is_obj()) {
    return error_reply("bad_request", "request must be a JSON object");
  }
  try {
    return dispatch(req);
  } catch (const WireError& e) {
    return error_reply("bad_request", e.what());
  } catch (const Error& e) {
    return error_reply("internal", e.what());
  } catch (const std::exception& e) {
    return error_reply("internal", e.what());
  }
}

std::string Server::dispatch(const Json& req) {
  const Json* verb = req.get("verb");
  if (verb == nullptr || !verb->is_str()) {
    return error_reply("bad_request", "missing string field 'verb'");
  }
  const std::string& v = verb->as_str();
  if (v == "ping") return reply_str({{"ok", Json(true)}, {"pong", Json(true)}});
  if (v == "create") return verb_create(req);
  if (v == "inject") return verb_inject(req);
  if (v == "query") return verb_query(req);
  if (v == "snapshot") return verb_snapshot(req);
  if (v == "stats") return verb_stats(req);
  if (v == "close") return verb_close(req);
  if (v == "shutdown") return verb_shutdown();
  return error_reply("unknown_verb", "no such verb '" + v + "'",
                     {{"verb", Json(v)}});
}

std::string Server::verb_create(const Json& req) {
  const std::string program_text =
      req.str_or("program", options_.default_program);
  if (program_text.empty()) {
    return error_reply("bad_program",
                       "no 'program' field and the daemon has no default");
  }
  gamma::Program program;
  try {
    program = gamma::dsl::parse_program(program_text);
  } catch (const Error& e) {
    return error_reply("bad_program", e.what());
  }
  if (program.stage_count() > 1) {
    return error_reply(
        "multi_stage_unsupported",
        "serve sessions host single-stage programs; `;` sequencing has no "
        "incremental meaning under streaming injection");
  }
  gamma::Multiset init;
  const std::string init_text = req.str_or("init", "");
  if (!init_text.empty()) {
    try {
      init = gamma::dsl::parse_elements(init_text);
    } catch (const Error& e) {
      return error_reply("bad_elements", e.what());
    }
  }

  SessionOptions sopts;
  sopts.worklist.deadline = req.num_or("deadline", options_.deadline);
  sopts.worklist.max_steps = static_cast<std::uint64_t>(
      req.int_or("max_steps", static_cast<std::int64_t>(options_.max_steps)));
  sopts.worklist.seed = static_cast<std::uint64_t>(
      req.int_or("seed", static_cast<std::int64_t>(options_.seed)));
  sopts.worklist.rescan = req.bool_or("rescan", options_.rescan);
  sopts.worklist.batch = options_.batch;
  sopts.worklist.telemetry = options_.telemetry;
  sopts.record = req.bool_or("record", !options_.record_out.empty());

  std::string id = req.str_or("session", "");
  std::shared_ptr<Session> session;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (sessions_.size() >= options_.max_sessions) {
      return error_reply(
          "session_limit",
          "session cap reached (" + std::to_string(options_.max_sessions) +
              "); close a session or raise --max-sessions");
    }
    if (id.empty()) {
      id = str_cat("s", next_id_++);
    } else if (sessions_.count(id) > 0) {
      return error_reply("duplicate_session",
                         "session '" + id + "' already exists",
                         {{"session", Json(id)}});
    }
    session = std::make_shared<Session>(id, std::move(program), sopts);
    sessions_.emplace(id, session);
  }

  JsonObj reply{{"ok", Json(true)}, {"session", Json(id)}};
  Session::InjectResult r = session->inject(init);  // initial saturation
  fill_inject_reply(reply, r);
  return reply_str(std::move(reply));
}

std::string Server::verb_inject(const Json& req) {
  const std::string id = req.str_or("session", "");
  const std::shared_ptr<Session> session = find_session(id);
  if (!session) {
    return error_reply("unknown_session", "no session '" + id + "'",
                       {{"session", Json(id)}});
  }
  gamma::Multiset elements;
  try {
    elements = gamma::dsl::parse_elements(req.str_or("elements", ""));
  } catch (const Error& e) {
    return error_reply("bad_elements", e.what());
  }
  const Session::InjectResult r = session->inject(elements);
  JsonObj reply;
  fill_inject_reply(reply, r);
  if (const char* code = outcome_error_code(r.outcome)) {
    // The drain stopped early: the store is a valid intermediate state and
    // a later inject resumes it, but the fixpoint was NOT reached — an
    // error reply with partial:true, per DESIGN §14.
    reply.insert_or_assign("partial", Json(true));
    return error_reply(code, "inject stopped before quiescence",
                       std::move(reply));
  }
  reply.insert_or_assign("ok", Json(true));
  return reply_str(std::move(reply));
}

std::string Server::verb_query(const Json& req) {
  const std::string id = req.str_or("session", "");
  const std::shared_ptr<Session> session = find_session(id);
  if (!session) {
    return error_reply("unknown_session", "no session '" + id + "'",
                       {{"session", Json(id)}});
  }
  JsonObj reply{{"ok", Json(true)}};
  if (const Json* element = req.get("element")) {
    gamma::Multiset parsed;
    try {
      parsed = gamma::dsl::parse_elements(element->as_str());
    } catch (const Error& e) {
      return error_reply("bad_elements", e.what());
    }
    if (parsed.size() != 1) {
      return error_reply("bad_elements",
                         "'element' must hold exactly one element");
    }
    reply.insert_or_assign("count",
                           Json(session->count_element(*parsed.begin())));
  } else if (const Json* label = req.get("label")) {
    reply.insert_or_assign("count", Json(session->count_label(label->as_str())));
  } else {
    reply.insert_or_assign(
        "store_size", Json(static_cast<std::int64_t>(session->store_size())));
  }
  return reply_str(std::move(reply));
}

std::string Server::verb_snapshot(const Json& req) {
  const std::string id = req.str_or("session", "");
  const std::shared_ptr<Session> session = find_session(id);
  if (!session) {
    return error_reply("unknown_session", "no session '" + id + "'",
                       {{"session", Json(id)}});
  }
  const obs::StoreCounts counts = session->snapshot_counts();
  std::int64_t total = 0;
  for (const auto& [elem, n] : counts) total += n;
  return reply_str({{"ok", Json(true)},
                    {"store", Json(counts_to_json(counts))},
                    {"store_size", Json(total)}});
}

std::string Server::verb_stats(const Json& req) {
  const std::string id = req.str_or("session", "");
  if (id.empty()) {
    return reply_str(
        {{"ok", Json(true)},
         {"sessions", Json(static_cast<std::int64_t>(session_count()))},
         {"requests",
          Json(static_cast<std::int64_t>(
              requests_.load(std::memory_order_relaxed)))}});
  }
  const std::shared_ptr<Session> session = find_session(id);
  if (!session) {
    return error_reply("unknown_session", "no session '" + id + "'",
                       {{"session", Json(id)}});
  }
  const runtime::WorklistStats s = session->stats();
  const HistogramSnapshot h = session->quiesce_histogram();
  return reply_str({{"ok", Json(true)},
                    {"session", Json(id)},
                    {"injected", Json(s.injected)},
                    {"injects", Json(s.injects)},
                    {"fires", Json(s.fires)},
                    {"wakeups", Json(s.wakeups)},
                    {"rematches", Json(s.rematches)},
                    {"drain_batches", Json(s.drain_batches)},
                    {"quiesce_p50_us", Json(h.quantile(0.50))},
                    {"quiesce_p99_us", Json(h.quantile(0.99))}});
}

std::optional<obs::Journal> Server::finish_session(Session& session,
                                                   JsonObj& reply) {
  if (!session.recording()) return std::nullopt;
  obs::Journal journal = session.close();
  if (options_.record_out.empty()) return journal;
  const std::string path =
      session_journal_path(options_.record_out, session.id());
  std::ofstream out(path);
  if (!out) {
    reply.insert_or_assign("journal_error", Json("cannot write " + path));
    return std::nullopt;
  }
  obs::write_journal(out, journal);
  out << '\n';
  reply.insert_or_assign("journal_path", Json(path));
  return std::nullopt;
}

std::string Server::verb_close(const Json& req) {
  const std::string id = req.str_or("session", "");
  std::shared_ptr<Session> session;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = sessions_.find(id);
    if (it != sessions_.end()) {
      session = it->second;
      sessions_.erase(it);
    }
  }
  if (!session) {
    return error_reply("unknown_session", "no session '" + id + "'",
                       {{"session", Json(id)}});
  }
  JsonObj reply{{"ok", Json(true)},
                {"session", Json(id)},
                {"fires_total", Json(session->stats().fires)}};
  const std::optional<obs::Journal> journal = finish_session(*session, reply);
  std::string line = reply_str(std::move(reply));
  if (!journal) return line;
  // No stem configured: hand the journal back inline (budget-capped by
  // RecorderLimits, so the reply stays a sane single line). Its text goes
  // straight into the reply as the last field, so it is rendered once.
  line.back() = ',';  // reopen the rendered object
  std::ostringstream out(std::move(line), std::ios_base::ate);
  out << "\"journal\":";
  obs::write_journal(out, *journal);
  out << '}';
  return std::move(out).str();
}

void Server::close_all_sessions() {
  std::map<std::string, std::shared_ptr<Session>> doomed;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    doomed.swap(sessions_);
  }
  for (auto& [id, session] : doomed) {
    JsonObj scratch;
    (void)finish_session(*session, scratch);  // no client to inline it to
  }
}

std::string Server::verb_shutdown() {
  close_all_sessions();
  shutdown_.store(true, std::memory_order_release);
  return reply_str({{"ok", Json(true)}, {"shutdown", Json(true)}});
}

void Server::serve_stream(std::istream& in, std::ostream& out) {
  std::string line;
  while (!shutdown_requested() && std::getline(in, line)) {
    if (line.empty()) continue;
    out << handle_line(line) << '\n' << std::flush;
  }
}

// ----------------------------------------------------------------- socket

void LineSplitter::append(const char* data, std::size_t n) {
  if (too_long_) return;
  buf_.erase(0, start_);
  scan_ -= start_;
  start_ = 0;
  buf_.append(data, n);
}

std::optional<std::string> LineSplitter::next() {
  if (too_long_) return std::nullopt;
  const std::size_t nl = buf_.find('\n', scan_);
  if (nl == std::string::npos) {
    scan_ = buf_.size();
    too_long_ = scan_ - start_ > kMaxLineBytes;
    return std::nullopt;
  }
  if (nl - start_ > kMaxLineBytes) {
    too_long_ = true;
    return std::nullopt;
  }
  std::string line = buf_.substr(start_, nl - start_);
  start_ = scan_ = nl + 1;
  return line;
}

namespace {

/// send(2) the whole buffer, riding out partial writes and EINTR. A peer
/// that hung up is an EPIPE failure, not a SIGPIPE that kills the daemon.
bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

int Server::serve_socket() {
  const std::string& path = options_.socket_path;
  sockaddr_un addr{};
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    return 1;
  }
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) return 1;
  ::unlink(path.c_str());
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd, 64) != 0) {
    ::close(listen_fd);
    return 1;
  }

  std::vector<std::thread> workers;
  while (!shutdown_requested()) {
    // Poll with a timeout so a shutdown verb handled on a connection
    // thread breaks the accept loop within ~200ms.
    pollfd pfd{};
    pfd.fd = listen_fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) continue;
    workers.emplace_back([this, conn] {
      LineSplitter lines;
      char chunk[4096];
      bool open = true;
      while (open) {
        const ssize_t n = ::read(conn, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        lines.append(chunk, static_cast<std::size_t>(n));
        while (open) {
          const std::optional<std::string> line = lines.next();
          if (!line) break;
          if (line->empty()) continue;
          open = write_all(conn, handle_line(*line) + '\n');
        }
        if (open && lines.too_long()) {
          (void)write_all(
              conn, error_reply("line_too_long",
                                str_cat("request line exceeds ",
                                        kMaxLineBytes,
                                        " bytes; closing the connection")) +
                        '\n');
          break;
        }
        if (shutdown_requested()) break;
      }
      ::close(conn);
    });
  }
  for (std::thread& t : workers) t.join();
  ::close(listen_fd);
  ::unlink(path.c_str());
  return 0;
}

// ----------------------------------------------------------------- client

Client::Client(const std::string& socket_path) {
  sockaddr_un addr{};
  if (socket_path.empty() || socket_path.size() >= sizeof(addr.sun_path)) {
    throw Error("serve client: bad socket path '" + socket_path + "'");
  }
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) throw Error("serve client: socket() failed");
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw Error("serve client: cannot connect to " + socket_path + ": " +
                std::strerror(errno));
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

std::string Client::call(const std::string& request) {
  if (!write_all(fd_, request + '\n')) {
    throw Error("serve client: send failed: " + std::string(std::strerror(errno)));
  }
  char chunk[4096];
  while (true) {
    // Resume the search where the last read left it: a long reply (an
    // inline journal) is scanned once, not once per read.
    const std::size_t nl = buffer_.find('\n', scanned_);
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      scanned_ = 0;
      return line;
    }
    scanned_ = buffer_.size();
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw Error("serve client: daemon hung up mid-reply");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace gammaflow::serve
