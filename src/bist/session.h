#pragma once
// BistSession: drives a controller against a memory under test, applying
// each issued operation, comparing read data, and logging failures — the
// role of the BIST unit's comparator and fail-capture logic.

#include "bist/controller.h"
#include "march/coverage.h"
#include "memsim/memory.h"

namespace pmbist::bist {

/// How a BIST run ended.  A session that hits the cycle bound — or is
/// preempted by the in-field manager before the controller terminates — is
/// Interrupted: its counters are valid but it carries no verdict (and no
/// signature; see MisrSessionResult / field::PassResult).
enum class SessionState : std::uint8_t {
  Interrupted,  ///< controller did not terminate; no verdict
  Completed,    ///< controller terminated within the cycle bound
};

/// Outcome of one BIST run.
struct SessionResult {
  SessionState state = SessionState::Interrupted;
  std::uint64_t cycles = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t pauses = 0;
  /// Every read mismatch, counted even after the failure log fills up.
  std::uint64_t mismatches = 0;
  /// Captured failures; capacity-bound by SessionOptions::max_failures, so
  /// failures.size() <= mismatches.
  std::vector<march::Failure> failures;

  [[nodiscard]] bool completed() const noexcept {
    return state == SessionState::Completed;
  }
  [[nodiscard]] bool passed() const noexcept {
    return completed() && mismatches == 0;
  }

  friend bool operator==(const SessionResult&, const SessionResult&) = default;
};

struct SessionOptions {
  std::uint64_t max_cycles = 1'000'000'000;
  std::size_t max_failures = 64;  ///< failure-log capacity (run continues)
};

/// Runs `controller` to completion against `memory` — the behavioral
/// simulator or host RAM (backend/hostram_backend.h).
SessionResult run_session(Controller& controller, memsim::Memory& memory,
                          const SessionOptions& options = {});

}  // namespace pmbist::bist
