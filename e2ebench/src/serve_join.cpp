// serve-join: an in-process serve::Server on a Unix socket with two tenant
// sessions of
//
//   Rclose = replace [k,'open'], [j,'close'] by [k,'done'] if k == j
//   Rsum   = replace [a,'done'], [b,'done'] by [a + b, 'done']
//
// each starting from 1000 standing 'open' keys, driven by a seeded mix of
// 80 % inject (close a live key and open a new one, so the store stays
// flat) and 20 % query. Session a records its journal.
//
// The load generator is open loop: one sender thread writes both
// connections on a fixed schedule without waiting for replies (pipelined,
// non-blocking), one receiver thread reads the replies, and every latency
// counts from the request's SCHEDULED send time.
//
// Untraced (--trace 0): the stream is sent unpaced and `run_cpu_s` is the
// CPU time all threads of the process (daemon and client) spend until every
// reply and both final snapshots are in. Traced (--trace 1): the stream at
// a fixed offered rate (latencies, worklist and journal figures), a rate
// ladder (`max_rate_rps`), and an in-process replay of the same request
// lines through Server::handle_line with spans around parse_json and
// handle_line.
//
// Every reply is checked, and each session's final snapshot must equal an
// IndexedEngine batch run over its init plus all its injections (DESIGN
// §14's equivalence obligation).
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <set>
#include <stdexcept>
#include <thread>

#include "gammaflow/analysis/interference.hpp"
#include "gammaflow/common/rng.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/obs/telemetry.hpp"
#include "gammaflow/runtime/match_pipeline.hpp"
#include "gammaflow/runtime/step_loop.hpp"
#include "gammaflow/serve/server.hpp"
#include "report.hpp"

namespace e2e {

using namespace gammaflow;

namespace {

constexpr std::size_t kOpenKeys = 1000;
/// Requests per stream, both sessions together: the unpaced stream of the
/// untraced run (short, so a run times many streams: single streams vary
/// by up to 50 % on a busy host), and the fixed-rate stream of the traced
/// run.
constexpr std::size_t kRequests = 1000;
constexpr std::size_t kFixedRequests = 1500;
/// The traced run's fixed offered rate, about a third of the unpaced
/// throughput of the seed build (~1800-2200 req/s on 4 cores).
constexpr double kFixedRate = 600.0;
/// Rate ladder for `max_rate_rps`: a rung passes when inject p99 stays
/// within kLadderP99Us and the backlog does not grow. The limit is 20 ms
/// because at the seed an inject into the recording session alone takes
/// ~2 ms at p50 and ~7 ms at p99.
constexpr std::array<double, 9> kLadder = {300, 450, 600,  750, 900,
                                           1050, 1200, 1500, 2000};
constexpr std::size_t kRungRequests = 400;
constexpr double kLadderP99Us = 20000.0;
/// How long the receiver waits for the last reply past the schedule.
constexpr double kReplyTimeoutS = 30.0;

const char* const kProgram =
    "Rclose = replace [k,'open'], [j,'close'] by [k,'done'] if k == j\n"
    "Rsum = replace [a,'done'], [b,'done'] by [a + b, 'done']";

/// The seeded inputs: per-session init text and request bodies, and the
/// expected final store of each session.
struct Stream {
  std::array<std::string, 2> init_text;
  std::vector<int> conn;              // session of request i
  std::vector<bool> inject;           // inject (else query)
  std::vector<std::string> elements;  // inject payload
  std::array<obs::StoreCounts, 2> expected;
  std::array<std::size_t, 2> injects{0, 0};
};

Stream make_stream(std::uint64_t seed, std::size_t requests) {
  Stream s;
  Rng rng(seed);
  const gamma::Program program = gamma::dsl::parse_program(kProgram);
  std::array<std::vector<std::int64_t>, 2> live;
  std::array<std::int64_t, 2> next_key{};
  std::array<gamma::Multiset, 2> all;
  for (std::size_t c = 0; c < 2; ++c) {
    std::set<std::int64_t> keys;
    while (keys.size() < kOpenKeys) {
      keys.insert(static_cast<std::int64_t>(rng.bounded(1'000'000'000)));
    }
    live[c].assign(keys.begin(), keys.end());
    std::shuffle(live[c].begin(), live[c].end(), rng);
    for (const std::int64_t k : live[c]) {
      s.init_text[c] += (s.init_text[c].empty() ? "[" : ", [") +
                        std::to_string(k) + ",'open']";
    }
    all[c] = gamma::dsl::parse_elements(s.init_text[c]);
    next_key[c] = 1'000'000'000;
  }
  for (std::size_t i = 0; i < requests; ++i) {
    const auto c = static_cast<std::size_t>(rng.bounded(2));
    s.conn.push_back(static_cast<int>(c));
    const bool inject = rng.bounded(100) < 80;
    s.inject.push_back(inject);
    if (!inject) {
      s.elements.emplace_back();
      continue;
    }
    const auto slot = static_cast<std::size_t>(rng.bounded(live[c].size()));
    const std::int64_t closed = live[c][slot];
    const std::int64_t opened = next_key[c]++;
    live[c][slot] = opened;
    const std::string text = "[" + std::to_string(closed) + ",'close'], [" +
                             std::to_string(opened) + ",'open']";
    all[c].add(gamma::dsl::parse_elements(text));
    s.elements.push_back(text);
    ++s.injects[c];
  }
  gamma::RunOptions opts;
  opts.seed = rng();
  for (std::size_t c = 0; c < 2; ++c) {
    s.expected[c] = runtime::store_counts(
        gamma::IndexedEngine().run(program, all[c], opts).final_multiset);
  }
  return s;
}

std::string create_line(const std::string& sid, const std::string& init,
                        bool record) {
  return R"({"verb":"create","session":)" + serve::json_quote(sid) +
         R"(,"program":)" + serve::json_quote(kProgram) + R"(,"init":)" +
         serve::json_quote(init) + (record ? R"(,"record":true})" : "}");
}

std::string verb_line(const char* verb, const std::string& sid) {
  return std::string(R"({"verb":")") + verb + R"(","session":)" +
         serve::json_quote(sid) + "}";
}

std::vector<std::string> request_lines(const Stream& s,
                                       const std::array<std::string, 2>& sid,
                                       std::size_t n) {
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& session = sid[static_cast<std::size_t>(s.conn[i])];
    if (s.inject[i]) {
      lines.push_back(R"({"verb":"inject","session":)" +
                      serve::json_quote(session) + R"(,"elements":)" +
                      serve::json_quote(s.elements[i]) + "}");
    } else {
      lines.push_back(R"({"verb":"query","session":)" +
                      serve::json_quote(session) + R"(,"label":"open"})");
    }
  }
  return lines;
}

/// An inject must succeed and fire (it closes a live key); a query must
/// see the flat store's 1000 open keys.
bool reply_ok(const std::string& reply, bool inject) {
  try {
    const serve::Json j = serve::parse_json(reply);
    if (!j.bool_or("ok", false)) return false;
    if (inject) return j.int_or("fires", 0) >= 1;
    return j.int_or("count", -1) == static_cast<std::int64_t>(kOpenKeys);
  } catch (const std::exception&) {
    return false;
  }
}

bool snapshot_ok(const std::string& reply, const obs::StoreCounts& expected) {
  try {
    const serve::Json j = serve::parse_json(reply);
    const serve::Json* store = j.get("store");
    if (!j.bool_or("ok", false) || store == nullptr || !store->is_obj()) {
      return false;
    }
    obs::StoreCounts got;
    for (const auto& [elem, n] : store->as_obj()) got[elem] = n.as_int();
    return got == expected;
  } catch (const std::exception&) {
    return false;
  }
}

/// One client connection to the daemon's socket. The sender thread owns
/// `out`/flush(), the receiver thread fill()/pop_line(); call() is for
/// set-up and checks while no stream runs.
class Conn {
 public:
  explicit Conn(const std::string& path) {
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("socket path too long: " + path);
    }
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("cannot connect to " + path + ": " +
                               std::strerror(errno));
    }
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Writes as much of `out` as the socket takes now; false on error.
  bool flush() {
    while (out_pos < out.size()) {
      const ssize_t n =
          ::write(fd_, out.data() + out_pos, out.size() - out_pos);
      if (n < 0) {
        if (errno == EINTR) continue;
        return errno == EAGAIN || errno == EWOULDBLOCK;
      }
      out_pos += static_cast<std::size_t>(n);
    }
    out.clear();
    out_pos = 0;
    return true;
  }
  [[nodiscard]] bool pending() const noexcept { return out_pos < out.size(); }

  /// Reads what is available now; false on EOF or error.
  bool fill() {
    char chunk[65536];
    while (true) {
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n > 0) {
        in_.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    }
  }
  bool pop_line(std::string& line) {
    const std::size_t nl = in_.find('\n', in_pos_);
    if (nl == std::string::npos) {
      in_.erase(0, in_pos_);
      in_pos_ = 0;
      return false;
    }
    line.assign(in_, in_pos_, nl - in_pos_);
    in_pos_ = nl + 1;
    return true;
  }

  /// Blocking request/reply.
  std::string call(const std::string& request) {
    out += request;
    out += '\n';
    pollfd pfd{fd_, POLLOUT, 0};
    while (pending()) {
      if (!flush()) throw std::runtime_error("serve: send failed");
      if (pending()) ::poll(&pfd, 1, 1000);
    }
    std::string line;
    pfd.events = POLLIN;
    const Clock::time_point t0 = Clock::now();
    while (!pop_line(line)) {
      if (seconds_since(t0) > kReplyTimeoutS) {
        throw std::runtime_error("serve: no reply to " + request.substr(0, 60));
      }
      ::poll(&pfd, 1, 1000);
      const bool open = fill();
      if (pop_line(line)) break;
      if (!open) throw std::runtime_error("serve: daemon hung up");
    }
    return line;
  }

  std::string out;
  std::size_t out_pos = 0;

 private:
  int fd_ = -1;
  std::string in_;
  std::size_t in_pos_ = 0;
};

/// The daemon on its own thread, serving `path` until shut down.
class Daemon {
 public:
  explicit Daemon(std::string path) : path_(std::move(path)) {
    serve::ServeOptions o;
    o.socket_path = path_;
    server_ = std::make_unique<serve::Server>(o);
    thread_ = std::thread([this] { (void)server_->serve_socket(); });
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// A new connection, retried while the daemon binds.
  std::unique_ptr<Conn> connect() const {
    const Clock::time_point t0 = Clock::now();
    while (true) {
      try {
        return std::make_unique<Conn>(path_);
      } catch (const std::exception&) {
        if (seconds_since(t0) > 10.0) throw;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  }

  /// Sends `shutdown` and joins. Every other connection must be closed
  /// first: the daemon joins its connection threads on the way out.
  void stop() {
    if (!thread_.joinable()) return;
    try {
      (void)connect()->call(R"({"verb":"shutdown"})");
    } catch (const std::exception& e) {
      std::cerr << "e2ebench: serve shutdown: " << e.what() << "\n";
    }
    thread_.join();
    std::filesystem::remove(path_);
  }

 private:
  std::string path_;
  std::unique_ptr<serve::Server> server_;
  std::thread thread_;
};

/// What one open-loop stream observed, per request.
struct Drive {
  std::vector<double> sched_us;
  std::vector<double> sent_us;
  std::vector<double> recv_us;  // < 0: unanswered
  std::vector<std::string> replies;
  std::vector<std::size_t> backlog;  // outstanding right after each send
};

/// Sends `lines[i]` on connection `conn[i]` at t0 + i/rate (all at t0 when
/// rate is 0), never waiting for replies; a receiver thread collects them.
Drive drive(const std::array<Conn*, 2>& conns,
            const std::vector<std::string>& lines,
            const std::vector<int>& conn, double rate) {
  const std::size_t n = lines.size();
  Drive d;
  d.sched_us.resize(n);
  d.sent_us.resize(n);
  d.recv_us.assign(n, -1.0);
  d.replies.resize(n);
  d.backlog.resize(n);
  std::array<std::vector<std::size_t>, 2> order;
  for (std::size_t i = 0; i < n; ++i) {
    order[static_cast<std::size_t>(conn[i])].push_back(i);
  }
  std::atomic<std::size_t> received{0};
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  const double span_s = rate > 0.0 ? static_cast<double>(n) / rate : 0.0;

  std::thread rx([&] {
    std::array<std::size_t, 2> next{0, 0};
    std::array<pollfd, 2> pfds{pollfd{conns[0]->fd(), POLLIN, 0},
                               pollfd{conns[1]->fd(), POLLIN, 0}};
    while (received.load(std::memory_order_relaxed) < n &&
           seconds_since(t0) < span_s + kReplyTimeoutS) {
      if (::poll(pfds.data(), 2, 100) <= 0) continue;
      for (std::size_t c = 0; c < 2; ++c) {
        if (pfds[c].revents == 0) continue;
        const bool open = conns[c]->fill();
        const Clock::time_point now = Clock::now();
        std::string line;
        while (conns[c]->pop_line(line)) {
          if (next[c] >= order[c].size()) continue;  // unexpected extra line
          const std::size_t idx = order[c][next[c]++];
          d.recv_us[idx] = us_between(t0, now);
          d.replies[idx] = std::move(line);
          received.fetch_add(1, std::memory_order_release);
        }
        if (!open) pfds[c].fd = -1;
      }
    }
  });

  const auto flush_until = [&](Clock::time_point until) {
    while (true) {
      std::array<pollfd, 2> pfds{};
      nfds_t count = 0;
      for (Conn* c : conns) {
        if (c->pending() && c->flush() && c->pending()) {
          pfds[count++] = pollfd{c->fd(), POLLOUT, 0};
        }
      }
      const Clock::time_point now = Clock::now();
      if (now >= until) return;
      const auto left = until - now;
      if (count > 0) {
        const auto ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(left).count();
        const timespec ts{static_cast<time_t>(ns / 1'000'000'000),
                          static_cast<long>(ns % 1'000'000'000)};
        ::ppoll(pfds.data(), count, &ts, nullptr);
      } else if (left > std::chrono::microseconds(150)) {
        std::this_thread::sleep_for(left - std::chrono::microseconds(100));
      } else {
        std::this_thread::yield();
      }
    }
  };

  for (std::size_t i = 0; i < n; ++i) {
    const auto offset = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(rate > 0.0 ? static_cast<double>(i) / rate
                                                 : 0.0));
    flush_until(t0 + offset);
    d.sched_us[i] = us_between(t0, t0 + offset);
    d.sent_us[i] = us_between(t0, Clock::now());
    Conn* c = conns[static_cast<std::size_t>(conn[i])];
    c->out += lines[i];
    c->out += '\n';
    c->flush();
    d.backlog[i] = i + 1 - received.load(std::memory_order_acquire);
  }
  const Clock::time_point give_up =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(span_s + kReplyTimeoutS));
  while ((conns[0]->pending() || conns[1]->pending()) &&
         Clock::now() < give_up) {
    flush_until(Clock::now() + std::chrono::milliseconds(1));
  }
  rx.join();
  return d;
}

/// Latency samples (µs from the scheduled send) of one request kind.
std::vector<double> latencies(const Drive& d, const Stream& s, bool inject) {
  std::vector<double> out;
  for (std::size_t i = 0; i < d.recv_us.size(); ++i) {
    if (s.inject[i] == inject && d.recv_us[i] >= 0.0) {
      out.push_back(d.recv_us[i] - d.sched_us[i]);
    }
  }
  return out;
}

/// Checks every reply of a stream; returns the number of failures.
std::size_t check_replies(const Drive& d, const Stream& s) {
  std::size_t failed = 0;
  for (std::size_t i = 0; i < d.replies.size(); ++i) {
    if (d.recv_us[i] < 0.0 || !reply_ok(d.replies[i], s.inject[i])) ++failed;
  }
  return failed;
}

/// The ids of both sessions of one stream run.
using Sessions = std::array<std::string, 2>;

Sessions open_sessions(const std::array<Conn*, 2>& conns, const Stream& s,
                       const std::string& tag, Report& report) {
  Sessions out;
  for (std::size_t c = 0; c < 2; ++c) {
    out[c] = tag + (c == 0 ? "a" : "b");
    const std::string reply =
        conns[c]->call(create_line(out[c], s.init_text[c], c == 0));
    report.check(reply.find(R"("ok":true)") != std::string::npos,
                 "serve-join: create " + out[c] + ": " + reply);
  }
  return out;
}

std::array<std::string, 2> session_calls(const std::array<Conn*, 2>& conns,
                                         const Sessions& ss, const char* verb) {
  return {conns[0]->call(verb_line(verb, ss[0])),
          conns[1]->call(verb_line(verb, ss[1]))};
}

/// DESIGN §14: each session's final store equals the batch fixpoint.
void check_snapshots(const std::array<std::string, 2>& snaps, const Stream& s,
                     const Sessions& ss, Report& report) {
  for (std::size_t c = 0; c < 2; ++c) {
    report.check(snapshot_ok(snaps[c], s.expected[c]),
                 "serve-join: session " + ss[c] +
                     " snapshot differs from the IndexedEngine batch run "
                     "over its init plus all its injections");
  }
}

/// `tag`: session-name prefix; `n`: stream prefix length.
Drive stream_once(const std::array<Conn*, 2>& conns, const Stream& s,
                  const std::string& tag, double rate, std::size_t n,
                  Report& report, Sessions& ss) {
  ss = open_sessions(conns, s, tag, report);
  const std::vector<std::string> lines = request_lines(s, ss, n);
  Drive d = drive(conns, lines, s.conn, rate);
  const std::size_t failed = check_replies(d, s);
  report.add_ops(n, failed, "serve-join: " + std::to_string(failed) +
                                " replies wrong, erroring or missing");
  return d;
}

void traced_run(Ctx& ctx, const Stream& s,
                const std::array<Conn*, 2>& conns) {
  Report& report = ctx.report;
  // 1. The fixed offered rate, repeated over half the budget.
  std::vector<double> inj, qry, lag, backlog_max;
  std::array<std::vector<double>, 2> quiesce;
  double wakeups = 0, rematches = 0, fires = 0, injects = 0;
  double journal_bytes = 0, journal_injects = 0;
  int round = 0;
  do {
    Sessions ss;
    const Drive d = stream_once(conns, s, "fix" + std::to_string(round++),
                                kFixedRate, kFixedRequests, report, ss);
    for (const double v : latencies(d, s, true)) inj.push_back(v);
    for (const double v : latencies(d, s, false)) qry.push_back(v);
    double bmax = 0;
    for (std::size_t i = 0; i < d.sent_us.size(); ++i) {
      lag.push_back(d.sent_us[i] - d.sched_us[i]);
      bmax = std::max(bmax, static_cast<double>(d.backlog[i]));
    }
    backlog_max.push_back(bmax);
    for (std::size_t i = 0; i < d.replies.size(); ++i) {
      if (s.inject[i] && d.recv_us[i] >= 0.0) {
        quiesce[static_cast<std::size_t>(s.conn[i])].push_back(
            serve::parse_json(d.replies[i]).num_or("quiesce_us", 0.0));
      }
    }
    for (std::size_t c = 0; c < 2; ++c) {
      const serve::Json st =
          serve::parse_json(conns[c]->call(verb_line("stats", ss[c])));
      wakeups += st.num_or("wakeups", 0.0);
      rematches += st.num_or("rematches", 0.0);
      fires += st.num_or("fires", 0.0);
      injects += st.num_or("injects", 0.0);
    }
    check_snapshots(session_calls(conns, ss, "snapshot"), s, ss, report);
    const auto closed = session_calls(conns, ss, "close");
    journal_bytes += static_cast<double>(closed[0].size());
    journal_injects += static_cast<double>(s.injects[0]);
  } while (seconds_since(ctx.start) < ctx.seconds / 2);
  report.set("inject_p50_us", quantile(inj, 0.50));
  report.set("inject_p99_us", quantile(inj, 0.99));
  report.set("query_p50_us", quantile(qry, 0.50));
  report.set("query_p99_us", quantile(qry, 0.99));
  report.set("gen.lag_p99_us", quantile(lag, 0.99));
  report.set("gen.backlog_max", *std::max_element(backlog_max.begin(),
                                                  backlog_max.end()));
  std::vector<double> all_quiesce = quiesce[0];
  all_quiesce.insert(all_quiesce.end(), quiesce[1].begin(), quiesce[1].end());
  report.set("worklist.quiesce_p50_us", quantile(all_quiesce, 0.50));
  report.set("worklist.quiesce_p99_us", quantile(all_quiesce, 0.99));
  report.set("worklist.wakeups_per_inject", wakeups / injects);
  report.set("worklist.rematches_per_inject", rematches / injects);
  report.set("worklist.fires_per_inject", fires / injects);
  report.set("obs.journal_bytes_per_inject", journal_bytes / journal_injects);
  report.set("obs.record_overhead_us",
             quantile(quiesce[0], 0.50) - quantile(quiesce[1], 0.50));
  std::cerr << "e2ebench: serve-join fixed rate " << kFixedRate << " req/s, "
            << round << " rounds: " << inj.size() << " injects, "
            << qry.size() << " queries; quiesce p50 a (recording) "
            << quantile(quiesce[0], 0.50) << " us, b "
            << quantile(quiesce[1], 0.50) << " us\n";

  // 2. The rate ladder, up to the first rung that misses.
  double max_rate = 0.0;
  for (const double rate : kLadder) {
    Sessions ss;
    const Drive d = stream_once(conns, s, "lad" + std::to_string(rate), rate,
                                kRungRequests, report, ss);
    (void)session_calls(conns, ss, "close");
    const double p99 = quantile(latencies(d, s, true), 0.99);
    // Backlog growth: mean outstanding over the last third of the sends
    // against the first third.
    const std::size_t third = d.backlog.size() / 3;
    double first = 0.0;
    double last = 0.0;
    for (std::size_t i = 0; i < third; ++i) {
      first += static_cast<double>(d.backlog[i]);
      last += static_cast<double>(d.backlog[d.backlog.size() - 1 - i]);
    }
    first /= static_cast<double>(third);
    last /= static_cast<double>(third);
    const bool grows = last > 2.0 * first + 8.0;
    const bool pass = p99 <= kLadderP99Us && !grows;
    std::cerr << "e2ebench: ladder " << rate << " req/s: inject p99 " << p99
              << " us, backlog " << first << " -> " << last
              << (grows ? " (GROWS)" : "") << (pass ? "" : " -> miss") << "\n";
    if (!pass) break;
    max_rate = rate;
  }
  report.set("max_rate_rps", max_rate);

  // 3. In process: the same request lines through Server::handle_line,
  //    untraced, then traced with the server's telemetry on.
  const auto replay = [&](obs::Telemetry* tel, Tracer* tracer) {
    serve::ServeOptions o;
    o.telemetry = tel;
    serve::Server server(o);
    const std::array<std::string, 2> sid{tel ? "rep1a" : "rep0a",
                                         tel ? "rep1b" : "rep0b"};
    const std::vector<std::string> lines =
        request_lines(s, sid, kFixedRequests);
    std::vector<std::string> replies(lines.size());
    const auto span = [&](const char* name) {
      return tracer ? tracer->begin(name) : 0;
    };
    const auto end = [&](std::uint32_t id) {
      if (tracer) tracer->end(id);
    };
    for (std::size_t c = 0; c < 2; ++c) {
      const std::uint32_t id = span("serve.create");
      const std::string reply =
          server.handle_line(create_line(sid[c], s.init_text[c], c == 0));
      end(id);
      report.check(reply.find(R"("ok":true)") != std::string::npos,
                   "serve-join: in-process create: " + reply);
    }
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < lines.size(); ++i) {
      std::uint32_t id = span("serve.parse");
      const serve::Json parsed = serve::parse_json(lines[i]);
      end(id);
      (void)parsed;
      id = span(s.inject[i] ? "serve.handle_inject" : "serve.handle_query");
      replies[i] = server.handle_line(lines[i]);
      end(id);
    }
    const double wall_s = seconds_since(t0);
    std::size_t failed = 0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (!reply_ok(replies[i], s.inject[i])) ++failed;
    }
    report.add_ops(lines.size(), failed,
                   "serve-join: in-process replay replies wrong");
    for (std::size_t c = 0; c < 2; ++c) {
      const std::uint32_t id = span("serve.snapshot");
      const std::string snap =
          server.handle_line(verb_line("snapshot", sid[c]));
      end(id);
      report.check(snapshot_ok(snap, s.expected[c]),
                   "serve-join: in-process snapshot differs from the batch "
                   "run");
      (void)server.handle_line(verb_line("close", sid[c]));
    }
    return wall_s;
  };
  const double untraced_s = replay(nullptr, nullptr);
  obs::Telemetry tel;
  Tracer& tracer = ctx.tracer;
  const std::uint32_t root = tracer.begin("e2e.serve_replay_pass");
  gamma::Program program;
  {
    const Tracer::Scope span(tracer, "dsl.parse");
    program = gamma::dsl::parse_program(kProgram);
    (void)gamma::dsl::parse_elements(s.init_text[0]);
    (void)gamma::dsl::parse_elements(s.init_text[1]);
  }
  {
    const Tracer::Scope span(tracer, "analysis.wakeup_keys");
    (void)analysis::wakeup_keys(program);
  }
  const double traced_s = replay(&tel, &tracer);
  tracer.end(root);
  check_attribution(tracer, root, report, "serve-join traced replay");
  runtime::observe_reaction_compile(&tel, program);
  const auto compile = tel.metrics().histograms.find("expr.compile_ms");
  report.set("expr.compile_ms", compile == tel.metrics().histograms.end()
                                    ? 0.0
                                    : compile->second.sum);
  report.set("trace.overhead_ratio", traced_s / untraced_s);

  const auto totals = tracer.totals(root);
  const auto mean_us = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() || it->second.count == 0
               ? 0.0
               : it->second.total_us / static_cast<double>(it->second.count);
  };
  report.set("dsl.parse_us", totals.at("dsl.parse").total_us);
  report.set("analysis.wakeup_keys_us",
             totals.at("analysis.wakeup_keys").total_us);
  report.set("serve.parse_us", mean_us("serve.parse"));
  report.set("serve.handle_inject_us", mean_us("serve.handle_inject"));
  report.set("serve.handle_query_us", mean_us("serve.handle_query"));
  report.set("serve.socket_us",
             report.get("query_p50_us") - mean_us("serve.handle_query"));
}

}  // namespace

void run_serve_join(Ctx& ctx) {
  const Clock::time_point gen0 = Clock::now();
  const Stream s =
      make_stream(ctx.seed, ctx.trace ? kFixedRequests : kRequests);
  std::cerr << "e2ebench: serve-join inputs and batch reference in "
            << seconds_since(gen0) << " s\n";
  const std::string path =
      ctx.out_dir + "/serve-" + std::to_string(::getpid()) + ".sock";
  Daemon daemon(path);
  {
    const std::unique_ptr<Conn> a = daemon.connect();
    const std::unique_ptr<Conn> b = daemon.connect();
    const std::array<Conn*, 2> conns{a.get(), b.get()};
    // Set-up: one session create (with its 1000-key init) and close.
    int setups = 0;
    SetupSamples setup;
    const auto set_up = [&] {
      const std::string sid = "setup" + std::to_string(setups++);
      const std::string reply =
          a->call(create_line(sid, s.init_text[0], false));
      ctx.report.check(reply.find(R"("ok":true)") != std::string::npos,
                       "serve-join: create " + sid + ": " + reply);
      (void)a->call(verb_line("close", sid));
    };
    setup.take(set_up);
    if (ctx.trace) {
      traced_run(ctx, s, conns);
    } else {
      // Unpaced: the whole stream pipelined, until every reply and both
      // snapshots are back.
      std::vector<Timed> runs;
      int iteration = 0;
      do {
        Sessions ss = open_sessions(conns, s,
                                    "sat" + std::to_string(iteration++),
                                    ctx.report);
        const std::vector<std::string> lines =
            request_lines(s, ss, kRequests);
        Drive d;
        std::array<std::string, 2> snaps;
        runs.push_back(timed([&] {
          d = drive(conns, lines, s.conn, 0.0);
          snaps = session_calls(conns, ss, "snapshot");
        }));
        check_snapshots(snaps, s, ss, ctx.report);
        (void)session_calls(conns, ss, "close");
        const std::size_t failed = check_replies(d, s);
        ctx.report.add_ops(kRequests, failed,
                           "serve-join: " + std::to_string(failed) +
                               " replies wrong, erroring or missing");
        setup.take(set_up);
      } while (ctx.time_left());
      set_run_cpu_s(ctx.report, runs);
      setup.report(ctx.report);
    }
  }
  daemon.stop();
}

}  // namespace e2e
