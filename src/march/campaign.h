#pragma once
// Parallel fault-simulation campaign engine.
//
// A campaign replays one immutable reference op stream against thousands
// of independently injected fault instances — the hottest loop in the
// project (it dominates the coverage, qualifier, background-sweep and
// NPSF benches).  This engine makes that loop scale with cores while
// keeping results bit-identical to the serial path:
//
//   * the stream is expanded ONCE per (algorithm x geometry) and cached
//     (StreamCache); every worker replays the same shared, read-only
//     vector;
//   * the inner loop is the PPSFP bit-parallel kernel by default
//     (memsim/packed_memory.h): up to 64 fault instances ride one packed
//     memory, one bit-lane each, so a shard steps 64 simulations per op;
//     the scalar one-memory-per-fault path is kept as the pinned
//     reference (CampaignConfig::kernel / the --kernel flag);
//   * a lane-pack replays only the ops at the addresses its faults
//     involve, plus every pause: one serial pass per call gathers every
//     pack's kept ops, each with the latest read before it; packs holding
//     a port or NPSF fault, and all packs of a stream with a read that
//     fails in a fault-free memory, replay every op (docs/KERNEL.md,
//     "Sparse projection");
//   * the fault universe is sharded dynamically across workers — by
//     lane-pack for the packed kernel, by instance for the scalar one;
//     each worker owns one thread-local memory that is cheaply reset()
//     between shards instead of reconstructed;
//   * every fault writes its DetectionRecord into its own pre-sized slot,
//     so the merged result is ordered by fault index and independent of
//     the worker count AND the kernel — jobs=8/packed is byte-identical
//     to jobs=1/scalar by construction (each simulation depends only on
//     stream, geometry, power-up seed and the injected fault, never on
//     scheduling or lane placement).
//
// Reentrancy contract: the engine holds NO mutable process-wide state.
// Worker count, kernel, cancellation and the stream cache all arrive
// through CampaignConfig / explicit arguments, so independent callers
// (e.g. two serve::Server instances in one process) cannot observe each
// other.  docs/CAMPAIGNS.md documents the determinism contract and how to
// plug in a new fault universe; docs/KERNEL.md documents the packed
// kernel.

#include <atomic>
#include <memory>
#include <span>

#include "march/expand.h"
#include "march/kernel.h"
#include "memsim/faulty_memory.h"

namespace pmbist::march {

/// A set of faults injected together into one memory instance (size 1 for
/// plain universes; 2 for linked-fault pairs).
using FaultGroup = std::vector<memsim::Fault>;

/// Outcome of simulating one fault group against the stream.
struct DetectionRecord {
  static constexpr std::size_t kNoFailure = static_cast<std::size_t>(-1);

  std::uint32_t fault_index = 0;        ///< index into the input universe
  bool detected = false;                ///< any read mismatch observed
  std::size_t first_failure_op = kNoFailure;  ///< op index of first mismatch

  friend bool operator==(const DetectionRecord&,
                         const DetectionRecord&) = default;
};

/// Merged campaign outcome; `records` is always ordered by fault index and
/// invariant under the worker count.
struct CampaignResult {
  std::vector<DetectionRecord> records;

  [[nodiscard]] int total() const noexcept {
    return static_cast<int>(records.size());
  }
  [[nodiscard]] int detected() const noexcept;
};

struct CampaignConfig {
  /// Worker count; <= 0 means hardware concurrency, 1 forces the serial
  /// reference path.  Results are identical for every value.
  int jobs = 0;
  /// Power-up seed for every simulated memory instance (same convention as
  /// CoverageOptions::seed / the FaultyMemory constructor).
  std::uint64_t powerup_seed = 1;
  /// Inner-loop implementation; Auto resolves to the packed PPSFP kernel.
  /// Either kernel yields byte-identical records.
  CampaignKernel kernel = CampaignKernel::Auto;
  /// Optional cooperative cancellation flag (common/cancel.h).  Workers
  /// poll it before claiming each shard; when observed set, the campaign
  /// throws common::Cancelled after in-flight shards drain.
  const std::atomic<bool>* cancel = nullptr;
};

/// Replays `stream` against each fault (group) of a universe, one fresh
/// memory per instance, in parallel.
class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignConfig config = {}) : config_{config} {}

  /// Single-fault universe (the common case).
  [[nodiscard]] CampaignResult run(std::span<const MemOp> stream,
                                   const MemoryGeometry& geometry,
                                   std::span<const memsim::Fault> universe)
      const;

  /// Multi-fault-per-instance universe (linked faults and the like).
  [[nodiscard]] CampaignResult run_groups(
      std::span<const MemOp> stream, const MemoryGeometry& geometry,
      std::span<const FaultGroup> universe) const;

  [[nodiscard]] const CampaignConfig& config() const noexcept {
    return config_;
  }

 private:
  CampaignConfig config_;
};

/// Content-hash cache of reference expansions, keyed by FNV-1a of the
/// canonical algorithm text and the geometry, with LRU eviction under an
/// optional byte budget.  Thread-safe; entries are shared immutable
/// streams, so an evicted entry stays valid for whoever still holds it.
///
/// There is deliberately no process-wide instance: each owner (a CLI
/// command, a serve::Server, a bench) constructs its own, which is what
/// gives the serve layer cross-request reuse without cross-server
/// interference.
class StreamCache {
 public:
  /// `max_bytes` bounds the summed op-stream payload; 0 = unbounded.
  explicit StreamCache(std::size_t max_bytes = 0);
  ~StreamCache();
  StreamCache(const StreamCache&) = delete;
  StreamCache& operator=(const StreamCache&) = delete;

  /// Returns the cached expansion, expanding on first use; refreshes the
  /// entry's LRU position and evicts least-recently-used entries while the
  /// byte budget is exceeded.
  [[nodiscard]] std::shared_ptr<const OpStream> get(
      const MarchAlgorithm& alg, const MemoryGeometry& geometry);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t bytes = 0;  ///< currently cached op-stream payload
  };
  [[nodiscard]] Stats stats() const;

  /// Drops all entries (hit/miss counters are kept); exposed for tests.
  void clear();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// One-call front end: expands `alg` over `geometry` — through `cache`
/// when one is supplied, uncached otherwise — and runs the campaign under
/// `config`.
[[nodiscard]] CampaignResult run_campaign(
    const MarchAlgorithm& alg, const MemoryGeometry& geometry,
    std::span<const memsim::Fault> universe, const CampaignConfig& config = {},
    StreamCache* cache = nullptr);

}  // namespace pmbist::march
