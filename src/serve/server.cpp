#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/cancel.h"
#include "common/hash.h"
#include "common/json.h"
#include "lint/diagnostics.h"
#include "serve/execute.h"

namespace pmbist::serve {
namespace {

namespace json = common::json;

/// Chains every lint input that can change the verdict into one key;
/// 0x1f separators keep adjacent fields from aliasing.
std::uint64_t lint_key(const Request& req) {
  std::uint64_t key = common::fnv1a64(req.input);
  const char sep[] = {0x1f, 0};
  auto mix = [&](const std::string& part) {
    key = common::fnv1a64(sep, key);
    key = common::fnv1a64(part, key);
  };
  mix(req.unit);
  mix(req.lint_json ? "json" : "text");
  mix(std::to_string(req.storage_depth));
  mix(std::to_string(req.buffer_depth));
  mix(req.against);
  mix(req.chip);
  mix(req.profile);
  mix(req.certify ? "certify" : "");
  return key;
}

json::Value cache_stats_json(std::uint64_t hits, std::uint64_t misses,
                             std::uint64_t evictions) {
  json::Value obj = json::Value::object();
  obj.set("hits", json::Value::number(hits));
  obj.set("misses", json::Value::number(misses));
  obj.set("evictions", json::Value::number(evictions));
  return obj;
}

}  // namespace

struct Server::TcpState {
  std::atomic<bool> stopping{false};
  std::atomic<int> listen_fd{-1};
  std::mutex mu;
  std::vector<int> client_fds;
  // Reader threads by connection number; a reader lists its number in
  // `finished` as it leaves, and the next accept joins it, so a closed
  // connection does not hold its thread's stack until shutdown.
  std::map<std::uint64_t, std::thread> readers;
  std::vector<std::uint64_t> finished;
  std::uint64_t connections = 0;
};

Server::Server(ServerOptions options)
    : options_{options},
      streams_{options.stream_cache_bytes},
      lints_{options.lint_cache_entries},
      tcp_{std::make_unique<TcpState>()},
      pool_{std::make_unique<common::ThreadPool>(
          std::max(1, options.sessions))} {}

Server::~Server() {
  shutdown();
  // ThreadPool's destructor drains queued sessions before joining; every
  // member they touch outlives pool_ (declaration order).
  pool_.reset();
}

void Server::emit(const Sink& sink, const std::string& line) {
  std::lock_guard lock{emit_mu_};
  sink(line);
}

bool Server::post(const std::string& line, Sink sink,
                  std::string* queued_id) {
  Request req;
  try {
    req = parse_request(line);
  } catch (const ProtocolError& e) {
    emit(sink, event_error("", e.what()));
    return false;
  }

  if (req.kind == RequestKind::Cancel) {
    std::shared_ptr<CancelFlag> target;
    {
      std::lock_guard lock{registry_mu_};
      if (const auto it = sessions_.find(req.target); it != sessions_.end())
        target = it->second;
    }
    if (target == nullptr) {
      emit(sink, event_error(req.id, "no active session '" + req.target + "'"));
    } else {
      target->store(true, std::memory_order_relaxed);
      emit(sink, event_result(req.id, 0, "cancelling '" + req.target + "'"));
    }
    return false;
  }

  if (req.kind == RequestKind::Stats) {
    emit(sink, event_result(req.id, 0, stats_payload()));
    return false;
  }

  auto cancel = std::make_shared<CancelFlag>(false);
  {
    std::lock_guard lock{registry_mu_};
    if (sessions_.contains(req.id)) {
      emit(sink, event_error(req.id,
                             "session '" + req.id + "' is already active"));
      return false;
    }
    sessions_.emplace(req.id, cancel);
  }
  // `accepted` goes out before post() returns, so a client always sees it
  // ahead of any progress/terminal event of the same request.
  emit(sink, event_accepted(req.id));
  if (queued_id != nullptr) *queued_id = req.id;
  pool_->submit([this, req = std::move(req), cancel, sink = std::move(sink)] {
    run_session(req, cancel, sink);
  });
  return true;
}

void Server::run_session(const Request& req,
                         const std::shared_ptr<CancelFlag>& cancel,
                         const Sink& sink) {
  try {
    const VerdictCache::Verdict result = run(req, *cancel, sink);
    emit(sink, event_result(req.id, result.exit_code, result.payload));
  } catch (const common::Cancelled&) {
    emit(sink, event_cancelled(req.id));
  } catch (const std::exception& e) {
    emit(sink, event_error(req.id, e.what()));
  }
  {
    std::lock_guard lock{registry_mu_};
    sessions_.erase(req.id);
    ++completed_;
  }
  registry_cv_.notify_all();
}

VerdictCache::Verdict Server::run(const Request& req, const CancelFlag& cancel,
                                  const Sink& sink) {
  if (req.kind == RequestKind::Lint) {
    const std::uint64_t key = lint_key(req);
    if (auto hit = lints_.get(key)) return std::move(*hit);
    ExecResult result = execute(req, {});
    VerdictCache::Verdict verdict{std::move(result.payload),
                                  result.exit_code};
    lints_.put(key, verdict);
    return verdict;
  }

  ExecResult result =
      execute(req, {.streams = &streams_,
                    .cancel = &cancel,
                    .progress = [this, &req, &sink](int done, int total) {
                      emit(sink, event_progress(req.id, done, total));
                    },
                    .certify = options_.certify});
  // The memtest engine reports cancellation by returning early; serve's
  // contract is a `cancelled` terminal event, same as the other kinds.
  if (!result.completed) throw common::Cancelled{};
  // A certificate violation fails the whole request (an `error` event),
  // never a corrupted-but-replied result.
  if (result.certificate.has_errors())
    throw std::runtime_error("schedule certificate failed (" +
                             std::string{to_string(req.kind)} + "):\n" +
                             lint::format_text(result.certificate));
  return {std::move(result.payload), result.exit_code};
}

std::string Server::stats_payload() const {
  const Stats s = stats();
  json::Value obj = json::Value::object();
  json::Value streams = cache_stats_json(s.streams.hits, s.streams.misses,
                                         s.streams.evictions);
  streams.set("bytes", json::Value::number(s.streams.bytes));
  obj.set("streams", std::move(streams));
  json::Value lints = cache_stats_json(s.lints.hits, s.lints.misses,
                                       s.lints.evictions);
  lints.set("entries", json::Value::number(s.lints.entries));
  obj.set("lints", std::move(lints));
  obj.set("active", json::Value::number(static_cast<std::int64_t>(s.active)));
  obj.set("completed", json::Value::number(s.completed));
  return obj.dump();
}

Server::Stats Server::stats() const {
  Stats out;
  out.streams = streams_.stats();
  out.lints = lints_.stats();
  std::lock_guard lock{registry_mu_};
  out.active = static_cast<int>(sessions_.size());
  out.completed = completed_;
  return out;
}

void Server::wait_finished(const std::string& id) {
  std::unique_lock lock{registry_mu_};
  registry_cv_.wait(lock, [&] { return !sessions_.contains(id); });
}

std::vector<std::string> Server::call(const std::string& line) {
  std::vector<std::string> events;
  // The emit mutex serializes sink invocations, so no extra locking here.
  Sink sink = [&events](const std::string& s) { events.push_back(s); };

  std::string id;
  if (post(line, std::move(sink), &id)) wait_finished(id);
  return events;
}

void Server::run_pipe(std::istream& in, std::ostream& out,
                      const std::string& payload_dir) {
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    for (const std::string& event : call(line)) {
      out << event << '\n';
      if (payload_dir.empty()) continue;
      // Mirror result payloads to files (see header); only `result`
      // events carry one.
      const json::Value doc = json::Value::parse(event);
      if (const json::Value* payload = doc.find("payload")) {
        std::ofstream file{payload_dir + "/" + doc.find("id")->as_string() +
                               ".out",
                           std::ios::binary | std::ios::trunc};
        file << payload->as_string();
      }
    }
    out.flush();
  }
}

namespace {

/// Full-buffer send; false on a broken connection (client went away —
/// the session still completes, its events are dropped).
bool send_all(int fd, const std::string& line) {
  std::string buf = line;
  buf.push_back('\n');
  std::size_t off = 0;
  while (off < buf.size()) {
    const ssize_t n =
        ::send(fd, buf.data() + off, buf.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

int Server::serve_tcp(int port, const std::function<void(int)>& ready,
                      std::string* error) {
  auto fail = [&](const char* what) {
    if (error != nullptr) *error = std::string(what) + ": " + std::strerror(errno);
    return -1;
  };

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return fail("bind");
  }
  if (::listen(fd, 16) < 0) {
    ::close(fd);
    return fail("listen");
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  tcp_->listen_fd.store(fd);
  if (ready) ready(ntohs(addr.sin_port));

  while (!tcp_->stopping.load()) {
    const int cfd = ::accept(fd, nullptr, nullptr);
    if (cfd < 0) {
      if (tcp_->stopping.load()) break;
      continue;
    }
    std::lock_guard lock{tcp_->mu};
    // A reader takes no lock after listing itself, so this join is short.
    for (const std::uint64_t done : tcp_->finished) {
      tcp_->readers[done].join();
      tcp_->readers.erase(done);
    }
    tcp_->finished.clear();
    tcp_->client_fds.push_back(cfd);
    const std::uint64_t conn = tcp_->connections++;
    tcp_->readers[conn] = std::thread([this, cfd, conn] {
      Sink sink = [cfd](const std::string& line) { send_all(cfd, line); };
      std::vector<std::string> posted;  ///< session ids of this connection
      // Each byte is scanned for '\n' once: `scanned` is the prefix of
      // `pending` already known to hold no newline, and consumed lines
      // leave the buffer in one erase per recv.
      std::string pending;
      std::size_t scanned = 0;
      char buf[4096];
      for (;;) {
        const ssize_t n = ::recv(cfd, buf, sizeof buf, 0);
        if (n <= 0) break;
        pending.append(buf, static_cast<std::size_t>(n));
        std::size_t begin = 0;
        std::size_t nl;
        while ((nl = pending.find('\n', scanned)) != std::string::npos &&
               nl - begin <= kMaxLineBytes) {
          const std::string line = pending.substr(begin, nl - begin);
          scanned = begin = nl + 1;
          if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
          if (std::string id; post(line, sink, &id))
            posted.push_back(std::move(id));
        }
        // What is left is one line: too long if it ends past the limit,
        // or if, still unterminated, it already holds more.
        if (nl != std::string::npos || pending.size() - begin > kMaxLineBytes) {
          emit(sink, event_error("", "request line longer than " +
                                         std::to_string(kMaxLineBytes) +
                                         " bytes; closing the connection"));
          break;
        }
        pending.erase(0, begin);
        scanned = pending.size();
      }
      // Drain this connection's sessions before closing the socket, so a
      // client that half-closes after its last request still receives
      // every terminal event.
      for (const std::string& id : posted) wait_finished(id);
      // Forget the descriptor before releasing its number, so the
      // shutdown path below never touches a number reused elsewhere.
      {
        std::lock_guard forget{tcp_->mu};
        std::erase(tcp_->client_fds, cfd);
        tcp_->finished.push_back(conn);
      }
      ::close(cfd);
    });
  }

  {
    std::lock_guard lock{tcp_->mu};
    for (const int cfd : tcp_->client_fds) ::shutdown(cfd, SHUT_RD);
  }
  for (auto& [conn, reader] : tcp_->readers) reader.join();
  {
    std::lock_guard lock{tcp_->mu};
    tcp_->readers.clear();
    tcp_->finished.clear();
    tcp_->client_fds.clear();
  }
  tcp_->listen_fd.store(-1);
  ::close(fd);
  return 0;
}

void Server::shutdown() {
  tcp_->stopping.store(true);
  const int fd = tcp_->listen_fd.load();
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

}  // namespace pmbist::serve
