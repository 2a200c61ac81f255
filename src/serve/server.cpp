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

#include "backend/memtest.h"
#include "common/cancel.h"
#include "common/hash.h"
#include "common/json.h"
#include "field/manager.h"
#include "field/profile.h"
#include "lint/certify.h"
#include "lint/diagnostics.h"
#include "lint/driver.h"
#include "march/coverage.h"
#include "march/library.h"
#include "march/parser.h"
#include "soc/chip.h"
#include "soc/scheduler.h"

namespace pmbist::serve {
namespace {

namespace json = common::json;

march::MarchAlgorithm resolve_algorithm(const std::string& name) {
  try {
    return march::by_name(name);
  } catch (const std::out_of_range&) {
    return march::parse(name, "custom");
  }
}

memsim::FaultClass class_by_name(const std::string& name) {
  for (auto cls : memsim::all_fault_classes())
    if (memsim::fault_class_name(cls) == name) return cls;
  throw std::runtime_error("unknown fault class '" + name + "'");
}

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

/// Certify gate for exec_soc/exec_field under ServerOptions::certify: a
/// certificate violation fails the whole request (the caller turns the
/// throw into an `error` event) — never a corrupted-but-replied result.
void require_certified(const lint::Report& report, const char* what) {
  if (!report.has_errors()) return;
  throw std::runtime_error(std::string("schedule certificate failed (") +
                           what + "):\n" + lint::format_text(report));
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

bool Server::post(const std::string& line, Sink sink) {
  Request req;
  try {
    req = parse_request(line);
  } catch (const ProtocolError& e) {
    emit(sink, event_error("", e.what()));
    return false;
  }

  if (req.kind == RequestKind::Cancel) {
    std::shared_ptr<Session> target;
    {
      std::lock_guard lock{registry_mu_};
      if (const auto it = sessions_.find(req.target); it != sessions_.end())
        target = it->second;
    }
    if (target == nullptr) {
      emit(sink, event_error(req.id, "no active session '" + req.target + "'"));
    } else {
      target->cancel.store(true, std::memory_order_relaxed);
      emit(sink, event_result(req.id, 0, "cancelling '" + req.target + "'"));
    }
    return false;
  }

  if (req.kind == RequestKind::Stats) {
    emit(sink, event_result(req.id, 0, stats_payload()));
    return false;
  }

  auto session = std::make_shared<Session>();
  session->id = req.id;
  {
    std::lock_guard lock{registry_mu_};
    if (sessions_.contains(req.id)) {
      emit(sink, event_error(req.id,
                             "session '" + req.id + "' is already active"));
      return false;
    }
    sessions_.emplace(req.id, session);
  }
  // `accepted` goes out before post() returns, so a client always sees it
  // ahead of any progress/terminal event of the same request.
  emit(sink, event_accepted(req.id));
  pool_->submit([this, req = std::move(req), session, sink = std::move(sink)] {
    run_session(req, session, sink);
  });
  return true;
}

void Server::run_session(const Request& req,
                         const std::shared_ptr<Session>& session,
                         const Sink& sink) {
  try {
    const ExecResult result = execute(req, *session, sink);
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

Server::ExecResult Server::execute(const Request& req, Session& session,
                                   const Sink& sink) {
  switch (req.kind) {
    case RequestKind::Campaign: return exec_campaign(req, session, sink);
    case RequestKind::Soc: return exec_soc(req, session, sink);
    case RequestKind::Field: return exec_field(req, session, sink);
    case RequestKind::Memtest: return exec_memtest(req, session, sink);
    case RequestKind::Lint: return exec_lint(req);
    case RequestKind::Cancel:
    case RequestKind::Stats: break;  // handled synchronously in post()
  }
  throw std::logic_error("unreachable request kind");
}

Server::ExecResult Server::exec_campaign(const Request& req, Session& session,
                                         const Sink& sink) {
  const auto alg = resolve_algorithm(req.algorithm);
  std::vector<memsim::FaultClass> classes;
  if (req.fault_classes.empty()) {
    const auto& all = memsim::all_fault_classes();
    classes.assign(all.begin(), all.end());
  } else {
    for (const auto& name : req.fault_classes)
      classes.push_back(class_by_name(name));
  }

  const int total = static_cast<int>(classes.size());
  session.total.store(total, std::memory_order_relaxed);

  // Mirrors march::coverage_matrix over one algorithm, with the Server's
  // cross-request stream cache plugged in — identical cells, identical
  // table, plus a progress event per fault class.
  march::CoverageRow row;
  row.algorithm = alg.name();
  const march::CoverageOptions copts{.seed = req.seed,
                                     .max_instances_per_class = req.samples,
                                     .jobs = req.jobs,
                                     .kernel = req.kernel,
                                     .cache = &streams_,
                                     .cancel = &session.cancel};
  for (int i = 0; i < total; ++i) {
    common::throw_if_cancelled(&session.cancel);
    row.cells[classes[i]] =
        march::evaluate_coverage(alg, classes[i], req.geometry, copts);
    session.done.store(i + 1, std::memory_order_relaxed);
    emit(sink, event_progress(req.id, i + 1, total));
  }

  const std::vector<march::CoverageRow> rows{row};
  return {0, march::format_coverage_table(rows, classes)};
}

Server::ExecResult Server::exec_soc(const Request& req, Session& session,
                                    const Sink& sink) {
  soc::ChipFile chip = soc::parse_chip(req.chip);
  if (req.power_budget >= 0.0) chip.plan.set_power_budget(req.power_budget);

  const soc::SchedulerOptions opts{
      .jobs = req.jobs,
      .max_failures = req.max_failures,
      .cancel = &session.cancel,
      .progress = [this, &req, &session, &sink](int done, int total) {
        session.done.store(done, std::memory_order_relaxed);
        session.total.store(total, std::memory_order_relaxed);
        emit(sink, event_progress(req.id, done, total));
      }};
  const auto result = soc::run_soc(chip.description, chip.plan, opts);
  if (options_.certify)
    require_certified(
        lint::certify_soc(chip.description, chip.plan, result.schedule),
        "soc");
  return {result.all_healthy() ? 0 : 1,
          soc::format_soc_report(chip.description, chip.plan, result)};
}

Server::ExecResult Server::exec_field(const Request& req, Session& session,
                                      const Sink& sink) {
  const soc::ChipFile chip = soc::parse_chip(req.chip);
  const field::MissionProfile profile = field::parse_profile_text(req.profile);

  const field::FieldOptions opts{
      .jobs = req.jobs,
      .max_failures = req.max_failures,
      .cancel = &session.cancel,
      .progress = [this, &req, &session, &sink](int done, int total) {
        session.done.store(done, std::memory_order_relaxed);
        session.total.store(total, std::memory_order_relaxed);
        emit(sink, event_progress(req.id, done, total));
      }};
  const auto report = field::run_field(chip.description, chip.plan, profile,
                                       opts);
  if (options_.certify)
    require_certified(
        lint::certify_field(chip.description, chip.plan, profile, report),
        "field");
  return {report.all_healthy() ? 0 : 1, field::format_field_report(report)};
}

Server::ExecResult Server::exec_memtest(const Request& req, Session& session,
                                        const Sink& sink) {
  const auto alg = resolve_algorithm(req.algorithm);
  const backend::MemtestOptions opts{
      .size_bytes = req.size_mb << 20,
      .passes = req.passes,
      .backgrounds = req.backgrounds,
      .jobs = req.jobs,
      .backend = req.backend,
      .max_failures = req.max_failures,
      .cancel = &session.cancel,
      .progress = [this, &req, &session, &sink](std::uint64_t done,
                                                std::uint64_t total) {
        session.done.store(static_cast<int>(done), std::memory_order_relaxed);
        session.total.store(static_cast<int>(total), std::memory_order_relaxed);
        emit(sink, event_progress(req.id, static_cast<int>(done),
                                  static_cast<int>(total)));
      }};
  const auto report = backend::run_memtest(alg, opts);
  // The engine reports cancellation by returning early; serve's contract
  // is a `cancelled` terminal event, same as the other work kinds.
  if (!report.completed) throw common::Cancelled{};
  return {report.passed() ? 0 : 1, backend::format_memtest_report(report)};
}

Server::ExecResult Server::exec_lint(const Request& req) {
  const std::uint64_t key = lint_key(req);
  if (auto hit = lints_.get(key))
    return {hit->exit_code, std::move(hit->payload)};

  const lint::LintOptions lopts{.storage_depth = req.storage_depth,
                                .buffer_depth = req.buffer_depth,
                                .chip = req.chip,
                                .profile = req.profile,
                                .certify = req.certify,
                                .against = req.against,
                                // One worker per session: the verdict is
                                // jobs-invariant, so the cache key omits it.
                                .jobs = 1};
  const lint::Report report = lint::lint_text(req.input, req.unit, lopts);
  VerdictCache::Verdict verdict{lint::format_cli(report, req.unit,
                                                 req.lint_json),
                                report.has_errors() ? 1 : 0};
  lints_.put(key, verdict);
  return {verdict.exit_code, std::move(verdict.payload)};
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

march::StreamCache& Server::stream_cache() { return streams_; }

void Server::wait_finished(const std::string& id) {
  std::unique_lock lock{registry_mu_};
  registry_cv_.wait(lock, [&] { return !sessions_.contains(id); });
}

std::vector<std::string> Server::call(const std::string& line) {
  std::vector<std::string> events;
  // The emit mutex serializes sink invocations, so no extra locking here.
  Sink sink = [&events](const std::string& s) { events.push_back(s); };

  std::string id;
  try {
    id = parse_request(line).id;
  } catch (const ProtocolError&) {
    // post() re-parses and emits the error event.
  }
  const bool queued = post(line, std::move(sink));
  if (queued) wait_finished(id);
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
      // Mirror result payloads to files (see header).  Our own events
      // always re-parse; guard anyway so a write problem cannot take the
      // whole batch down.
      try {
        const json::Value doc = json::Value::parse(event);
        const json::Value* kind = doc.find("event");
        const json::Value* payload = doc.find("payload");
        const json::Value* id = doc.find("id");
        if (kind != nullptr && kind->is_string() &&
            kind->as_string() == "result" && payload != nullptr &&
            id != nullptr) {
          std::ofstream file{payload_dir + "/" + id->as_string() + ".out",
                             std::ios::binary | std::ios::trunc};
          file << payload->as_string();
        }
      } catch (const json::JsonError&) {
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
      std::string pending;
      char buf[4096];
      for (;;) {
        const ssize_t n = ::recv(cfd, buf, sizeof buf, 0);
        if (n <= 0) break;
        pending.append(buf, static_cast<std::size_t>(n));
        std::size_t nl;
        while ((nl = pending.find('\n')) != std::string::npos) {
          const std::string line = pending.substr(0, nl);
          pending.erase(0, nl + 1);
          if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
          std::string id;
          try {
            id = parse_request(line).id;
          } catch (const ProtocolError&) {
          }
          if (post(line, sink)) posted.push_back(id);
        }
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
