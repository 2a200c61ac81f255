#pragma once
// Fleet-scale BIST service: the engine behind `pmbist serve`.
//
// A Server turns the one-shot CLI commands into a long-running service:
// clients submit newline-delimited JSON requests (protocol.h) and receive
// streamed JSON events.  Three transports share one request path:
//
//   post()      in-process asynchronous submission (tests, benches);
//   run_pipe()  stdin/stdout batch mode, one request at a time — the
//               deterministic transport CI goldens pin;
//   serve_tcp() loopback TCP socket, one reader thread per connection,
//               requests from all connections interleaved on the pool.
//
// Concurrency model.  The Server owns a private common::ThreadPool of
// `sessions` workers; every work request becomes a session executed as
// one pool task.  A session is registered by id, with its cooperative
// cancel flag (the target of `cancel` requests, polled by the engines at
// shard boundaries through common/cancel.h), from `accepted` until its
// terminal event, so cancelling a finished session is an error.  The
// engines underneath parallelize each
// session across the process-wide shared_pool() via parallel_shards — the
// two layers never share a pool, so a session body blocking on its shards
// cannot starve the server (the no-nested-parallel_shards rule of
// thread_pool.h is respected by construction).
//
// Caching.  Two content-hash caches (FNV-1a over canonical inputs) are
// cross-request but per-Server: a march::StreamCache for reference op
// streams (byte-budgeted LRU) and a VerdictCache for rendered lint
// verdicts.  Two Servers in one process share nothing — pinned by
// tests/test_serve.cpp — which is what the reentrancy refactor of the
// engine layers (campaign.h) bought.
//
// Equivalence contract.  Every `result` payload is byte-identical to the
// stdout of the equivalent one-shot CLI invocation with the same
// jobs/kernel, because both run serve::execute (execute.h).  The Server
// adds its caches, the session's cancel flag and progress events, and
// three policies of its own: the lint verdict cache, failing a request
// whose schedule certificate has errors, and turning an unfinished
// memtest into `cancelled`.  docs/SERVE.md documents the protocol;
// bench/bench_serve.cpp measures throughput and cache effect.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "march/campaign.h"
#include "serve/cache.h"
#include "serve/protocol.h"

namespace pmbist::serve {

struct ServerOptions {
  /// Concurrent session workers (the Server's own pool).  Each session
  /// still fans out across the shared campaign pool per its `jobs` field.
  int sessions = 2;
  /// Byte budget of the cross-request op-stream cache (0 = unbounded).
  std::size_t stream_cache_bytes = 64u << 20;
  /// Entry budget of the lint-verdict cache (0 = unbounded).
  std::size_t lint_cache_entries = 256;
  /// Certify every soc/field schedule with the certificate checker
  /// (lint/certify.h) before replying; a violation fails the request with
  /// an `error` event instead of a `result`.  The debug/CI belt — result
  /// payloads are unchanged when the certificate holds.
  bool certify = false;
};

class Server {
 public:
  /// Receives one complete JSON event line (no trailing newline).  Called
  /// from session worker threads and from inside post(); invocations are
  /// serialized by the Server, so a sink needs no locking of its own.
  using Sink = std::function<void(const std::string& line)>;

  explicit Server(ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Submits one request line.  Emits `accepted` (and queues the session)
  /// or the complete response for control requests (cancel/stats) and
  /// parse errors synchronously, before returning.  Returns true when a
  /// session was queued (a terminal event will follow asynchronously); its
  /// id is then written to `queued_id` when given, so a transport can wait
  /// for the session without parsing the line again.
  bool post(const std::string& line, Sink sink,
            std::string* queued_id = nullptr);

  /// Synchronous convenience: post() and block until the terminal event;
  /// returns every event emitted for the request, in order.
  [[nodiscard]] std::vector<std::string> call(const std::string& line);

  /// Batch transport: reads request lines from `in` until EOF, writing
  /// events to `out`.  Requests run ONE AT A TIME (each drains before the
  /// next line is read), so the byte stream is deterministic — this is the
  /// mode CI pins against golden responses.  When `payload_dir` is
  /// non-empty, every `result` payload is additionally written verbatim to
  /// `payload_dir/<id>.out`, which is how CI diffs serve payloads against
  /// one-shot CLI stdout without parsing JSON in shell.
  void run_pipe(std::istream& in, std::ostream& out,
                const std::string& payload_dir = {});

  /// Longest request line serve_tcp() buffers, newline excluded.
  static constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

  /// Blocking TCP transport on 127.0.0.1:`port` (0 = ephemeral).  Invokes
  /// `ready` with the bound port once listening.  Returns after shutdown()
  /// (0) or a socket setup failure (-1, message on the `error` out-param
  /// when given).  One reader thread per connection; sessions from all
  /// connections share the pool.  A line longer than kMaxLineBytes gets
  /// one `error` event and closes its connection (requests already
  /// posted on it still finish).
  int serve_tcp(int port, const std::function<void(int bound_port)>& ready = {},
                std::string* error = nullptr);

  /// Unblocks serve_tcp(): stops accepting, closes client connections
  /// after their in-flight sessions drain.  Idempotent; safe from any
  /// thread.
  void shutdown();

  struct Stats {
    march::StreamCache::Stats streams;
    VerdictCache::Stats lints;
    int active = 0;               ///< sessions currently registered
    std::uint64_t completed = 0;  ///< sessions that reached a terminal event
  };
  [[nodiscard]] Stats stats() const;

 private:
  using CancelFlag = std::atomic<bool>;
  void run_session(const Request& req,
                   const std::shared_ptr<CancelFlag>& cancel, const Sink& sink);
  /// The (exit code, payload) of a work request.
  VerdictCache::Verdict run(const Request& req, const CancelFlag& cancel,
                            const Sink& sink);
  [[nodiscard]] std::string stats_payload() const;

  void emit(const Sink& sink, const std::string& line);
  void wait_finished(const std::string& id);

  ServerOptions options_;
  march::StreamCache streams_;
  VerdictCache lints_;

  mutable std::mutex registry_mu_;
  std::condition_variable registry_cv_;
  std::map<std::string, std::shared_ptr<CancelFlag>> sessions_;
  std::uint64_t completed_ = 0;

  std::mutex emit_mu_;

  struct TcpState;
  std::unique_ptr<TcpState> tcp_;

  /// Declared last so its destructor (which drains queued sessions) runs
  /// first, while every member the sessions touch is still alive.
  std::unique_ptr<common::ThreadPool> pool_;
};

}  // namespace pmbist::serve
