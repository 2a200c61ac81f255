#pragma once
// Fault-simulation campaign engine.
//
// For each (algorithm, fault class) pair, a deterministic universe of fault
// instances is generated, each instance is injected into a fresh behavioral
// memory, the algorithm's reference op stream is applied, and detection
// (any read mismatch) is recorded.  This substantiates the coverage claims
// behind the paper's algorithm family: the + variants add DRF detection,
// the ++ variants add deceptive-read (disconnected pull-up/down) detection.
//
// The evaluate_* front ends below run on the parallel campaign engine
// (campaign.h): streams are expanded once per (algorithm x geometry) and
// fault instances are sharded across workers, with results guaranteed
// identical to the serial path for any worker count.

#include <atomic>
#include <functional>
#include <map>
#include <span>

#include "march/expand.h"
#include "march/kernel.h"
#include "memsim/faulty_memory.h"

namespace pmbist::march {

class StreamCache;  // campaign.h

/// One observed read mismatch.
struct Failure {
  std::size_t op_index = 0;  ///< index into the applied stream
  MemOp op;                  ///< the read that failed (expected in op.data)
  Word actual = 0;

  friend bool operator==(const Failure&, const Failure&) = default;
};

/// Result of applying an op stream to a memory.
struct RunResult {
  std::vector<Failure> failures;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;

  [[nodiscard]] bool passed() const noexcept { return failures.empty(); }
};

/// Applies a stream to `memory`, recording up to `max_failures`
/// mismatches (the run always completes; capping only bounds the log).
RunResult run_stream(std::span<const MemOp> stream, memsim::Memory& memory,
                     std::size_t max_failures = 64);

/// Deterministically samples up to `max_instances` fault instances of one
/// class over the geometry.  Small geometries enumerate exhaustively where
/// feasible (SAF/TF/SOF/RDF/DRDF/DRF across all cells; coupling and AF
/// instances are sampled).  Throws std::invalid_argument for a coupling
/// class on a one-cell geometry and for AF on a one-word geometry: their
/// instances need two distinct cells or words.
[[nodiscard]] std::vector<memsim::Fault> make_fault_universe(
    memsim::FaultClass cls, const MemoryGeometry& geometry,
    std::uint64_t seed, int max_instances);

/// Deterministically samples *linked* idempotent-coupling fault pairs: two
/// CFids sharing a victim with opposite forced values, the classic masking
/// configuration (the second coupling can undo the first before any read
/// observes it).  March LR was designed for exactly these; March C-class
/// algorithms miss a fraction.  Each entry is injected as a pair.  Throws
/// std::invalid_argument on a geometry of fewer than three cells.
[[nodiscard]] std::vector<std::pair<memsim::Fault, memsim::Fault>>
make_linked_cfid_universe(const MemoryGeometry& geometry, std::uint64_t seed,
                          int count);

/// Deterministically samples *intra-word* coupling faults (aggressor and
/// victim bits inside the same word) — the population the data-background
/// sweep exists for.  Throws std::invalid_argument when word_bits < 2.
[[nodiscard]] std::vector<memsim::Fault> make_intra_word_cf_universe(
    const MemoryGeometry& geometry, std::uint64_t seed, int count);

/// detected/total for one (algorithm, class) cell.
struct CoverageCell {
  int detected = 0;
  int total = 0;
  [[nodiscard]] double ratio() const noexcept {
    return total == 0 ? 0.0 : static_cast<double>(detected) / total;
  }
};

struct CoverageRow {
  std::string algorithm;
  std::map<memsim::FaultClass, CoverageCell> cells;
};

struct CoverageOptions {
  std::uint64_t seed = 42;
  int max_instances_per_class = 64;
  /// Campaign worker count: 0 = hardware concurrency, 1 = serial.  Results
  /// are identical for every value — see campaign.h for the contract.
  int jobs = 0;
  /// Campaign inner loop (Auto resolves to Packed); results are identical
  /// for either kernel.
  CampaignKernel kernel = CampaignKernel::Auto;
  /// Optional expansion cache shared across evaluations; nullptr expands
  /// uncached.
  StreamCache* cache = nullptr;
  /// Optional cooperative cancellation flag — see campaign.h.
  const std::atomic<bool>* cancel = nullptr;
  /// Optional coverage_matrix progress callback, invoked as (done, total)
  /// cell counts: the first `done` cells in row-major order are complete.
  /// Called in that order at any jobs, one call at a time, possibly from
  /// campaign worker threads.
  std::function<void(int done, int total)> progress = nullptr;
};

/// Evaluates detection of `alg` against one fault class.
[[nodiscard]] CoverageCell evaluate_coverage(const MarchAlgorithm& alg,
                                             memsim::FaultClass cls,
                                             const MemoryGeometry& geometry,
                                             const CoverageOptions& opts = {});

/// Evaluates detection of `alg` against the linked-CFid universe.
[[nodiscard]] CoverageCell evaluate_linked_coverage(
    const MarchAlgorithm& alg, const MemoryGeometry& geometry,
    const CoverageOptions& opts = {});

/// Runs `alg` expanded with only the first `num_backgrounds` data
/// backgrounds (1 = all-zeros only) against each fault of `faults`;
/// returns the detection cell.  Ports are swept as usual.  `jobs` is the
/// campaign worker count (0 = process default).
[[nodiscard]] CoverageCell evaluate_with_backgrounds(
    const MarchAlgorithm& alg, const MemoryGeometry& geometry,
    std::span<const memsim::Fault> faults, int num_backgrounds,
    std::uint64_t powerup_seed = 1, int jobs = 0);

/// Full matrix over algorithms x fault classes.  Each row is one
/// CampaignRunner::run_row call over the classes' universes.
[[nodiscard]] std::vector<CoverageRow> coverage_matrix(
    std::span<const MarchAlgorithm> algorithms,
    std::span<const memsim::FaultClass> classes,
    const MemoryGeometry& geometry, const CoverageOptions& opts = {});

/// Renders a coverage matrix as a fixed-width text table.
[[nodiscard]] std::string format_coverage_table(
    std::span<const CoverageRow> rows,
    std::span<const memsim::FaultClass> classes);

}  // namespace pmbist::march
