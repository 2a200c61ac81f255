#include "march/campaign.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <list>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "common/cancel.h"
#include "common/hash.h"
#include "common/thread_pool.h"
#include "memsim/packed_memory.h"

namespace pmbist::march {
namespace {

// Replays the stream against one injected memory, stopping at the first
// mismatch: detection and first_failure_op are exactly what the serial
// run_stream(..., max_failures=1) path observes, and the memory is
// discarded afterwards, so nothing downstream sees the truncated state.
DetectionRecord replay(std::span<const MemOp> stream, memsim::Memory& memory,
                       std::uint32_t fault_index) {
  DetectionRecord record;
  record.fault_index = fault_index;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const MemOp& op = stream[i];
    switch (op.kind) {
      case MemOp::Kind::Pause:
        memory.advance_time_ns(op.pause_ns);
        break;
      case MemOp::Kind::Write:
        memory.write(op.port, op.addr, op.data);
        break;
      case MemOp::Kind::Read:
        if (memory.read(op.port, op.addr) != op.data) {
          record.detected = true;
          record.first_failure_op = i;
          return record;
        }
        break;
    }
  }
  return record;
}

// Address -> op-index table of one stream for the sparse projection
// (docs/KERNEL.md), built once per run()/run_groups() call and shared
// read-only by every worker.  Op indices are 32-bit.
struct StreamIndex {
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  std::vector<std::uint32_t> begin;  // CSR: the ops at address a are
  std::vector<std::uint32_t> ops;    //   ops[begin[a] .. begin[a + 1])
  std::vector<std::uint32_t> pauses;
  std::vector<std::uint32_t> last_read;  // latest read at or before op i
  bool fault_free_miss = false;  // some read fails in a fault-free memory
};

StreamIndex build_index(std::span<const MemOp> stream,
                        const MemoryGeometry& geometry, std::uint64_t seed) {
  if (stream.size() >= StreamIndex::kNone)
    throw std::length_error("op stream too long for the campaign index");
  StreamIndex index;
  index.begin.assign(geometry.num_words() + 1, 0);
  index.last_read.resize(stream.size());
  // The fault-free replay runs on a plain copy of the power-up contents:
  // one pass over the stream is most of the index's cost.
  std::vector<Word> fault_free(geometry.num_words());
  {
    const memsim::SramModel power_up{geometry, seed};
    for (Address a = 0; a < fault_free.size(); ++a)
      fault_free[a] = power_up.peek(a);
  }
  const Word mask = geometry.word_mask();
  std::uint32_t last_read = StreamIndex::kNone;
  for (std::uint32_t i = 0; i < stream.size(); ++i) {
    const MemOp& op = stream[i];
    switch (op.kind) {
      case MemOp::Kind::Pause:
        index.pauses.push_back(i);
        break;
      case MemOp::Kind::Write:
        ++index.begin[op.addr + 1];
        fault_free[op.addr] = op.data & mask;
        break;
      case MemOp::Kind::Read:
        ++index.begin[op.addr + 1];
        last_read = i;
        index.fault_free_miss |= fault_free[op.addr] != op.data;
        break;
    }
    index.last_read[i] = last_read;
  }
  std::partial_sum(index.begin.begin(), index.begin.end(),
                   index.begin.begin());
  index.ops.resize(index.begin.back());
  std::vector<std::uint32_t> fill(index.begin.begin(), index.begin.end() - 1);
  for (std::uint32_t i = 0; i < stream.size(); ++i)
    if (stream[i].kind != MemOp::Kind::Pause)
      index.ops[fill[stream[i].addr]++] = i;
  return index;
}

// Appends the addresses whose ops can sensitize or observe `fault`: the
// cell of a single-cell fault, aggressor and victim of a coupling fault,
// the logical address and every physical target of a decoder fault.
// Returns false for PF and NPSF, whose effects reach reads and writes at
// every address.
bool append_involved(const memsim::Fault& fault,
                     std::vector<Address>& addresses) {
  return std::visit(
      [&](const auto& f) {
        using T = std::decay_t<decltype(f)>;
        if constexpr (requires { f.cell; }) {
          addresses.push_back(f.cell.addr);
        } else if constexpr (requires { f.victim; }) {
          addresses.push_back(f.aggressor.addr);
          addresses.push_back(f.victim.addr);
        } else if constexpr (std::is_same_v<T, memsim::AddressDecoderFault>) {
          addresses.push_back(f.logical);
          addresses.insert(addresses.end(), f.physical.begin(),
                           f.physical.end());
        } else {
          return false;
        }
        return true;
      },
      fault);
}

// Per-worker scratch of the sparse projection.
class Projection {
 public:
  Projection(std::size_t words, std::size_t ops)
      : involved_(words, 0), kept_((ops + 63) / 64, 0), ops_{ops} {}

  // Marks the ops a lane-pack replays: every op at an address one of its
  // faults involves, and every pause.  Dense fallback, every op kept: a
  // pack holding a PF or NPSF fault, and every pack of a stream with a
  // read that fails in a fault-free memory (a skipped op must not fail).
  template <typename FaultsOf>
  void project(const StreamIndex& index, const FaultsOf& faults_of, int base,
               int lanes) {
    std::fill(kept_.begin(), kept_.end(), 0);
    addresses_.clear();
    bool dense = index.fault_free_miss;
    for (int l = 0; l < lanes && !dense; ++l)
      for (const memsim::Fault& fault : faults_of(base + l))
        dense = dense || !append_involved(fault, addresses_);
    if (dense) {
      std::fill(kept_.begin(), kept_.end(), ~std::uint64_t{0});
      if (ops_ % 64 != 0) kept_.back() = (std::uint64_t{1} << (ops_ % 64)) - 1;
      return;
    }
    for (const Address a : addresses_) {
      if (involved_[a] != 0) continue;
      involved_[a] = 1;
      for (std::uint32_t k = index.begin[a]; k < index.begin[a + 1]; ++k)
        keep(index.ops[k]);
    }
    for (const std::uint32_t i : index.pauses) keep(i);
    for (const Address a : addresses_) involved_[a] = 0;
  }

  [[nodiscard]] std::span<const std::uint64_t> kept() const { return kept_; }

 private:
  void keep(std::size_t i) { kept_[i / 64] |= std::uint64_t{1} << (i % 64); }

  std::vector<std::uint8_t> involved_;  // per address, clear between packs
  std::vector<Address> addresses_;
  std::vector<std::uint64_t> kept_;  // bitmap over op indices
  std::size_t ops_;
};

// Replays the kept ops of the stream against one lane-packed memory
// holding `lanes` live fault instances (base..base+lanes-1), filling the
// records of all of them in one pass.  Kept ops keep their stream index,
// so first_failure_op is the scalar one.  A lane that has detected stops
// being compared (its remaining mismatches are masked off), which matches
// the scalar replay's early return: lanes are independent, so dropping a
// detected lane's later results cannot affect any other lane.  The whole
// pack early-exits once every lane has detected.
void replay_pack(std::span<const MemOp> stream, const StreamIndex& index,
                 std::span<const std::uint64_t> kept,
                 memsim::PackedFaultyMemory& memory, std::uint32_t base,
                 int lanes, std::span<DetectionRecord> records) {
  for (int l = 0; l < lanes; ++l) {
    records[static_cast<std::size_t>(l)] = DetectionRecord{};
    records[static_cast<std::size_t>(l)].fault_index =
        base + static_cast<std::uint32_t>(l);
  }
  std::uint64_t undetected =
      lanes >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;
  const auto detect = [&](std::uint64_t hits, std::size_t i) {
    hits &= undetected;
    undetected &= ~hits;
    for (; hits != 0; hits &= hits - 1) {
      auto& record = records[static_cast<std::size_t>(std::countr_zero(hits))];
      record.detected = true;
      record.first_failure_op = i;
    }
  };
  std::size_t next = 0;  // the op after the previously replayed one
  for (std::size_t w = 0; w < kept.size() && undetected != 0; ++w) {
    for (std::uint64_t bits = kept[w]; bits != 0 && undetected != 0;
         bits &= bits - 1) {
      const std::size_t i =
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      if (i > next) {
        const std::uint32_t r = index.last_read[i - 1];
        memory.skip_fault_free(r != StreamIndex::kNone && r >= next
                                   ? std::optional<Word>{stream[r].data}
                                   : std::nullopt);
      }
      next = i + 1;
      const MemOp& op = stream[i];
      switch (op.kind) {
        case MemOp::Kind::Pause:
          memory.advance_time_ns(op.pause_ns);
          break;
        case MemOp::Kind::Write:
          memory.write(op.port, op.addr, op.data);
          break;
        case MemOp::Kind::Read:
          detect(memory.read(op.port, op.addr, op.data), i);
          break;
      }
    }
  }
}

// Shared scalar universe driver: one thread-local memory per worker, reset
// between instances; each instance writes only its own record slot, so
// the merged result is ordered by fault index and invariant under jobs.
// Cancellation is polled before each shard claim, so a cancelled campaign
// quiesces within one instance per worker.
template <typename FaultsOf>
CampaignResult run_scalar(const CampaignConfig& config,
                          std::span<const MemOp> stream,
                          const MemoryGeometry& geometry, int count,
                          const FaultsOf& faults_of) {
  CampaignResult result;
  result.records.resize(static_cast<std::size_t>(count));

  const int jobs = std::min(common::resolve_jobs(config.jobs), count);

  std::atomic<int> next{0};
  common::parallel_shards(jobs, jobs, [&](int) {
    memsim::FaultyMemory memory{geometry, config.powerup_seed};
    bool fresh = true;
    for (int i; (i = next.fetch_add(1)) < count;) {
      common::throw_if_cancelled(config.cancel);
      if (!fresh) memory.reset(config.powerup_seed);
      fresh = false;
      for (const memsim::Fault& fault : faults_of(i)) memory.add_fault(fault);
      result.records[static_cast<std::size_t>(i)] =
          replay(stream, memory, static_cast<std::uint32_t>(i));
    }
  });
  return result;
}

// Packed universe driver: the shard unit is a lane-pack of up to 64 fault
// instances, so each task replays (the pack's projection of) the stream
// once for 64 simulations.  Record slots are still disjoint and indexed by
// fault index, so the result is invariant under jobs AND identical to the
// scalar driver.
template <typename FaultsOf>
CampaignResult run_packed(const CampaignConfig& config,
                          std::span<const MemOp> stream,
                          const MemoryGeometry& geometry, int count,
                          const FaultsOf& faults_of) {
  CampaignResult result;
  result.records.resize(static_cast<std::size_t>(count));

  constexpr int kLanes = memsim::PackedFaultyMemory::kLanes;
  const int packs = (count + kLanes - 1) / kLanes;
  const int jobs = std::min(common::resolve_jobs(config.jobs), packs);
  const StreamIndex index = build_index(stream, geometry, config.powerup_seed);

  std::atomic<int> next{0};
  common::parallel_shards(jobs, jobs, [&](int) {
    memsim::PackedFaultyMemory memory{geometry, config.powerup_seed};
    Projection projection{geometry.num_words(), stream.size()};
    bool fresh = true;
    for (int p; (p = next.fetch_add(1)) < packs;) {
      common::throw_if_cancelled(config.cancel);
      if (!fresh) memory.reset(config.powerup_seed);
      fresh = false;
      const int base = p * kLanes;
      const int lanes = std::min(kLanes, count - base);
      for (int l = 0; l < lanes; ++l)
        for (const memsim::Fault& fault : faults_of(base + l))
          memory.add_fault(l, fault);
      projection.project(index, faults_of, base, lanes);
      replay_pack(stream, index, projection.kept(), memory,
                  static_cast<std::uint32_t>(base), lanes,
                  std::span<DetectionRecord>{result.records}.subspan(
                      static_cast<std::size_t>(base),
                      static_cast<std::size_t>(lanes)));
    }
  });
  return result;
}

// Kernel dispatch shared by run() / run_groups(): `faults_of(i)` is the
// fault group of instance i.
template <typename FaultsOf>
CampaignResult run_universe(const CampaignConfig& config,
                            std::span<const MemOp> stream,
                            const MemoryGeometry& geometry, int count,
                            const FaultsOf& faults_of) {
  if (count == 0) {
    return CampaignResult{};
  }
  if (resolve_kernel(config.kernel) == CampaignKernel::Scalar)
    return run_scalar(config, stream, geometry, count, faults_of);
  return run_packed(config, stream, geometry, count, faults_of);
}

}  // namespace

int CampaignResult::detected() const noexcept {
  int n = 0;
  for (const auto& r : records) n += r.detected ? 1 : 0;
  return n;
}

CampaignResult CampaignRunner::run(std::span<const MemOp> stream,
                                   const MemoryGeometry& geometry,
                                   std::span<const memsim::Fault> universe)
    const {
  return run_universe(config_, stream, geometry,
                      static_cast<int>(universe.size()), [&](int i) {
                        return universe.subspan(static_cast<std::size_t>(i), 1);
                      });
}

CampaignResult CampaignRunner::run_groups(
    std::span<const MemOp> stream, const MemoryGeometry& geometry,
    std::span<const FaultGroup> universe) const {
  return run_universe(config_, stream, geometry,
                      static_cast<int>(universe.size()), [&](int i) {
                        return std::span<const memsim::Fault>{
                            universe[static_cast<std::size_t>(i)]};
                      });
}

struct StreamCache::Impl {
  struct Entry {
    std::uint64_t key;
    std::shared_ptr<const OpStream> stream;
    std::uint64_t bytes;
  };

  mutable std::mutex mu;
  std::list<Entry> lru;  // front = most recently used
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index;
  std::size_t max_bytes;
  Stats counters;

  // Evicts from the LRU tail while over budget (never evicts the sole
  // entry: a stream larger than the whole budget still has to be served).
  void enforce_budget() {
    if (max_bytes == 0) return;
    while (counters.bytes > max_bytes && lru.size() > 1) {
      const Entry& victim = lru.back();
      counters.bytes -= victim.bytes;
      ++counters.evictions;
      index.erase(victim.key);
      lru.pop_back();
    }
  }
};

StreamCache::StreamCache(std::size_t max_bytes)
    : impl_{std::make_unique<Impl>()} {
  impl_->max_bytes = max_bytes;
}
StreamCache::~StreamCache() = default;

std::shared_ptr<const OpStream> StreamCache::get(
    const MarchAlgorithm& alg, const MemoryGeometry& geometry) {
  // Canonical text is the identity of an algorithm (name is presentation);
  // two differently named but textually equal algorithms share an entry.
  const std::string canonical = std::to_string(geometry.address_bits) + "x" +
                                std::to_string(geometry.word_bits) + "x" +
                                std::to_string(geometry.num_ports) + "|" +
                                alg.to_string();
  const std::uint64_t key = common::fnv1a64(canonical);
  {
    std::lock_guard lock{impl_->mu};
    if (auto it = impl_->index.find(key); it != impl_->index.end()) {
      ++impl_->counters.hits;
      impl_->lru.splice(impl_->lru.begin(), impl_->lru, it->second);
      return it->second->stream;
    }
  }
  // Expand outside the lock (expansion is the expensive part); a racing
  // duplicate expansion is harmless and the first insert wins.
  auto stream = std::make_shared<const OpStream>(expand(alg, geometry));
  const std::uint64_t bytes = stream->size() * sizeof(MemOp);
  std::lock_guard lock{impl_->mu};
  if (auto it = impl_->index.find(key); it != impl_->index.end()) {
    ++impl_->counters.hits;
    impl_->lru.splice(impl_->lru.begin(), impl_->lru, it->second);
    return it->second->stream;
  }
  ++impl_->counters.misses;
  impl_->counters.bytes += bytes;
  impl_->lru.push_front(Impl::Entry{key, stream, bytes});
  impl_->index.emplace(key, impl_->lru.begin());
  impl_->enforce_budget();
  return stream;
}

StreamCache::Stats StreamCache::stats() const {
  std::lock_guard lock{impl_->mu};
  return impl_->counters;
}

void StreamCache::clear() {
  std::lock_guard lock{impl_->mu};
  impl_->lru.clear();
  impl_->index.clear();
  impl_->counters.bytes = 0;
}

CampaignResult run_campaign(const MarchAlgorithm& alg,
                            const MemoryGeometry& geometry,
                            std::span<const memsim::Fault> universe,
                            const CampaignConfig& config, StreamCache* cache) {
  std::shared_ptr<const OpStream> stream =
      cache != nullptr
          ? cache->get(alg, geometry)
          : std::make_shared<const OpStream>(expand(alg, geometry));
  return CampaignRunner{config}.run(*stream, geometry, universe);
}

}  // namespace pmbist::march
