#pragma once
// The executor of the five work kinds, shared by `pmbist serve` sessions
// and the one-shot CLI commands (coverage, soc, field, memtest, lint): the
// serve/CLI equivalence contract holds because both print its payload.
// A server passes its stream cache, the session's cancel flag and a
// progress callback; the CLI passes none.  Policies stay with the callers
// (server.h for the server's; the CLI prints the certificate report and
// the notes on stderr and writes the schedule file).

#include <atomic>
#include <functional>
#include <string>

#include "lint/diagnostics.h"
#include "march/campaign.h"
#include "serve/protocol.h"

namespace pmbist::serve {

struct ExecContext {
  march::StreamCache* streams = nullptr;  ///< campaign reference streams
  const std::atomic<bool>* cancel = nullptr;  ///< polled by the engines
  /// (done, total) after each unit of work: fault classes, memories,
  /// participants or march elements.
  std::function<void(int done, int total)> progress{};
  bool certify = false;  ///< soc/field: run the certificate checker
};

struct ExecResult {
  int exit_code = 0;    ///< 0 ok, 1 check failed
  std::string payload{};  ///< the deterministic report (CLI stdout)
  /// soc/field: the schedule-file text when the request names an
  /// emit_schedule path.
  std::string schedule{};
  lint::Report certificate{};  ///< soc/field under ExecContext::certify
  /// Host-dependent lines (wall time, memtest throughput); never part of
  /// the payload.
  std::string notes{};
  bool completed = true;  ///< false when a memtest stopped on `cancel`
};

/// Runs a campaign, soc, field, memtest or lint request.  Throws on
/// malformed payloads and common::Cancelled when a campaign, soc or field
/// run is cancelled.
[[nodiscard]] ExecResult execute(const Request& req, const ExecContext& ctx);

}  // namespace pmbist::serve
