#pragma once
// Host-RAM memtest engine: march algorithms against real memory.
//
// The engine expands a march algorithm over a large buffer — a
// HostRamBackend mapping or a zero-filled SramModel — and reports
// per-phase sustained throughput plus a MISR signature of every read
// response.  Semantics mirror the BIST controllers
// with one deliberate deviation, chosen for parallel speed and
// jobs-invariance:
//
//   The buffer is partitioned into `shards` equal contiguous sub-memories
//   and each shard is marched as an independent memory.  Within a shard,
//   Up walks ascending, Down descending, Any ascends (matching the
//   controllers).  The shard count is a pure function of the buffer size —
//   never of --jobs — so signatures, failure logs and verdicts are
//   bit-identical for every worker count and both backends.
//
// March elements are barriers: all shards finish element k (with a
// seq-cst fence) before any shard starts element k+1.  Per-element wall
// time across those barriers is what the GB/s report measures.
//
// docs/BACKEND.md documents the engine; ```memtest-check fences there are
// executed by test_docs.

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "backend/backend.h"
#include "march/coverage.h"
#include "march/march.h"

namespace pmbist::backend {

struct MemtestOptions {
  /// Requested buffer size; rounded down to a power-of-two word count
  /// (min 512 B, max 16 GiB).  The report shows the actual size.
  std::uint64_t size_bytes = 256ull << 20;
  int passes = 1;
  /// Number of data backgrounds to sweep (0 = all 7 standard 64-bit
  /// backgrounds; 1 = all-zeros only).
  int backgrounds = 0;
  /// Worker threads (0 = process default, 1 = serial).  Results are
  /// identical for every value.
  int jobs = 0;
  BackendKind backend = BackendKind::HostRam;
  /// Ask the hostram backend for huge pages (graceful fallback).
  bool huge_pages = false;
  int misr_width = 32;
  std::size_t max_failures = 64;
  /// Flip one bit after the first march element of the first pass; the
  /// run must then FAIL (self-test of the mismatch path).
  bool inject_error = false;
  /// Cooperative cancellation, polled between march elements.
  const std::atomic<bool>* cancel = nullptr;
  /// Progress callback: done/total (pass x background) units.
  std::function<void(std::uint64_t, std::uint64_t)> progress;
};

/// Per-march-element statistics, summed over all passes and backgrounds.
struct MemtestPhase {
  std::string element;  ///< canonical element text (march syntax)
  bool is_pause = false;
  std::uint64_t reads = 0;   ///< read ops executed in this phase
  std::uint64_t writes = 0;  ///< write ops executed in this phase
  double seconds = 0.0;      ///< wall time across the shard barriers
};

struct MemtestReport {
  std::string algorithm;
  std::string backend_name;
  MemoryGeometry geometry;
  std::uint64_t buffer_bytes = 0;  ///< actual marched bytes
  int shards = 0;
  int passes = 0;
  int backgrounds = 0;
  bool huge_pages = false;  ///< hostram backing actually used huge pages
  bool injected = false;    ///< an error was deliberately injected
  bool completed = true;    ///< false when cancelled mid-run

  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t pauses = 0;
  std::uint64_t mismatches = 0;
  std::vector<march::Failure> failures;  ///< capped at max_failures

  Word signature = 0;  ///< shard MISRs folded in shard order
  int misr_width = 0;

  std::vector<MemtestPhase> phases;  ///< one per march element
  double wall_seconds = 0.0;

  [[nodiscard]] bool passed() const noexcept {
    return completed && mismatches == 0;
  }
};

/// Geometry the engine derives for a requested byte size: 64-bit words,
/// one port, power-of-two word count.
[[nodiscard]] MemoryGeometry memtest_geometry(std::uint64_t size_bytes);

/// Shard count for a geometry: a power of two, >= 4096 words per shard,
/// capped at 64.  Pure function of the geometry (jobs-invariant).
[[nodiscard]] int memtest_shards(const MemoryGeometry& geometry);

/// Parses a human byte size: plain digits plus optional K/M/G suffix
/// (binary units; "64M" = 64 MiB, trailing "B"/"iB" accepted).
[[nodiscard]] std::optional<std::uint64_t> parse_size_bytes(
    std::string_view text);

/// Runs `alg` against a fresh backend per `options`.  Throws BackendError
/// for invalid algorithms/options; mmap failure also surfaces as
/// BackendError.
[[nodiscard]] MemtestReport run_memtest(const march::MarchAlgorithm& alg,
                                        const MemtestOptions& options);

/// Deterministic report (stdout, serve payloads): identical for every
/// --jobs value and, fault-free, for both backends.  No timing data.
[[nodiscard]] std::string format_memtest_report(const MemtestReport& report);

/// Timing view (stderr): per-phase and sustained read/write GB/s.
[[nodiscard]] std::string format_memtest_throughput(
    const MemtestReport& report);

}  // namespace pmbist::backend
