#include "march/campaign.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <list>
#include <mutex>
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

// A lane-pack's share of the stream (docs/KERNEL.md, "Sparse projection"):
// every op, or the kept ops in stream order, each with the latest read
// before it (kNone if none).  Op indices are 32-bit.
constexpr std::uint32_t kNone = ~std::uint32_t{0};

struct KeptOp {
  std::uint32_t op;
  std::uint32_t prev_read;
};

struct PackOps {
  bool dense = false;
  std::vector<KeptOp> kept;
};

// Projects the stream onto every lane-pack of one run()/run_groups() call
// in one serial pass.  A sparse pack keeps every pause and every op at an
// address its faults involve.  Dense: a pack with a PF or NPSF fault or
// an address outside the memory (add_fault() rejects it), and every pack
// if a read fails in a fault-free memory (a skipped op must not fail).
template <typename FaultsOf>
std::vector<PackOps> project(std::span<const MemOp> stream,
                             const MemoryGeometry& geometry,
                             std::uint64_t seed, int count,
                             const FaultsOf& faults_of) {
  constexpr int kLanes = memsim::PackedFaultyMemory::kLanes;
  if (stream.size() >= kNone)
    throw std::length_error("op stream too long for the campaign projection");
  const auto discard = static_cast<std::uint32_t>(count + kLanes - 1) / kLanes;
  std::vector<PackOps> packs(discard);
  // Lists fill through cursors, sized as if ops spread evenly over the
  // addresses and doubled when full.  Ops no pack keeps go to sink
  // `discard`, whose cursor never advances: the common cases take no branch.
  struct Sink {
    KeptOp* at = nullptr;
    KeptOp* end = nullptr;
  };
  KeptOp discarded{};
  std::vector<Sink> sinks(packs.size() + 1, Sink{&discarded, nullptr});
  const auto resize = [&](std::uint32_t p, std::size_t used, std::size_t n) {
    packs[p].kept.resize(n);
    sinks[p] = {packs[p].kept.data() + used, packs[p].kept.data() + n};
  };
  const auto push = [&](std::uint32_t s, KeptOp op) {
    *sinks[s].at = op;
    sinks[s].at += s != discard ? 1 : 0;
    if (sinks[s].at == sinks[s].end)
      resize(s, packs[s].kept.size(), 2 * packs[s].kept.size());
  };

  // Address -> its sink: `discard`, the one sparse pack involving it, or
  // `shared` when several do.  head[a] chains them all through `links`.
  const std::uint32_t shared = discard + 1;
  struct Link {
    std::uint32_t pack;
    std::uint32_t next;
  };
  const std::size_t words = geometry.num_words();
  std::vector<std::uint32_t> sink_of(words, discard);
  std::vector<std::uint32_t> head(words, kNone);
  std::vector<Link> links;
  std::vector<std::uint32_t> sparse;
  std::vector<Address> addresses;
  const auto outside = [&](Address a) { return a >= words; };
  for (std::uint32_t p = 0; p < discard; ++p) {
    addresses.clear();
    const int base = static_cast<int>(p) * kLanes;
    for (int i = base; i < std::min(count, base + kLanes); ++i)
      for (const memsim::Fault& fault : faults_of(i))
        packs[p].dense = packs[p].dense || !append_involved(fault, addresses);
    if (packs[p].dense || std::ranges::any_of(addresses, outside)) {
      packs[p].dense = true;
      continue;
    }
    sparse.push_back(p);
    for (const Address a : addresses) {
      if (head[a] != kNone && links[head[a]].pack == p) continue;
      sink_of[a] = head[a] == kNone ? p : shared;
      links.push_back({p, head[a]});
      head[a] = static_cast<std::uint32_t>(links.size() - 1);
    }
    resize(p, 0, addresses.size() * (stream.size() / words + 1) + 16);
  }

  // The fault-free replay runs on a plain copy of the power-up contents.
  const memsim::SramModel power_up{geometry, seed};
  std::vector<Word> fault_free(words);
  for (Address a = 0; a < words; ++a) fault_free[a] = power_up.peek(a);
  bool fault_free_miss = false;
  std::uint32_t last_read = kNone;
  for (std::uint32_t i = 0; i < stream.size(); ++i) {
    const MemOp& op = stream[i];
    if (op.kind == MemOp::Kind::Pause) {
      for (const std::uint32_t p : sparse) push(p, {i, last_read});
      continue;
    }
    if (const std::uint32_t s = sink_of[op.addr]; s != shared)
      push(s, {i, last_read});
    else
      for (std::uint32_t k = head[op.addr]; k != kNone; k = links[k].next)
        push(links[k].pack, {i, last_read});
    if (op.kind == MemOp::Kind::Write) {
      fault_free[op.addr] = op.data & geometry.word_mask();
    } else {
      fault_free_miss |= fault_free[op.addr] != op.data;
      last_read = i;
    }
  }
  for (const std::uint32_t p : sparse)
    packs[p].kept.resize(
        static_cast<std::size_t>(sinks[p].at - packs[p].kept.data()));
  if (fault_free_miss)
    for (PackOps& pack : packs) pack = PackOps{.dense = true, .kept = {}};
  return packs;
}

// Replays a pack's ops against one lane-packed memory holding `lanes` live
// fault instances (base..base+lanes-1), filling all their records in one
// pass.  Kept ops keep their stream index, so first_failure_op is the
// scalar one.  A lane that has detected is no longer compared, as the
// scalar replay returns early (lanes are independent), and the pack stops
// once every lane has detected.  A dense pack's j-th op is op j: no skips.
void replay_pack(std::span<const MemOp> stream, const PackOps& pack,
                 memsim::PackedFaultyMemory& memory, std::uint32_t base,
                 int lanes, std::span<DetectionRecord> records) {
  for (int l = 0; l < lanes; ++l)
    records[static_cast<std::size_t>(l)] = {
        .fault_index = base + static_cast<std::uint32_t>(l)};
  std::uint64_t undetected =
      lanes >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;
  const std::size_t ops = pack.dense ? stream.size() : pack.kept.size();
  std::uint32_t next = 0;  // the op after the previously replayed one
  for (std::size_t j = 0; j < ops && undetected != 0; ++j) {
    const auto i = pack.dense ? static_cast<std::uint32_t>(j) : pack.kept[j].op;
    if (i > next) {
      const std::uint32_t r = pack.kept[j].prev_read;
      memory.skip_fault_free(r != kNone && r >= next
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
        std::uint64_t hits =
            memory.read(op.port, op.addr, op.data) & undetected;
        undetected &= ~hits;
        for (; hits != 0; hits &= hits - 1) {
          auto& record =
              records[static_cast<std::size_t>(std::countr_zero(hits))];
          record.detected = true;
          record.first_failure_op = i;
        }
        break;
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
  const std::vector<PackOps> projection =
      project(stream, geometry, config.powerup_seed, count, faults_of);

  std::atomic<int> next{0};
  common::parallel_shards(jobs, jobs, [&](int) {
    memsim::PackedFaultyMemory memory{geometry, config.powerup_seed};
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
      replay_pack(stream, projection[static_cast<std::size_t>(p)], memory,
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
  if (count == 0) return CampaignResult{};
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
