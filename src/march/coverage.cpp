#include "march/coverage.h"

#include <cassert>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "march/campaign.h"
#include "march/library.h"

namespace pmbist::march {
namespace {

using memsim::Address;
using memsim::BitRef;
using memsim::Fault;
using memsim::FaultClass;

// Deterministic sampling source for fault universes.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_{seed * 2 + 1} {}
  std::uint64_t next() {
    state_ += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>(next() % n);
  }
  bool flip() { return next() & 1; }

 private:
  std::uint64_t state_;
};

BitRef random_bit(Rng& rng, const MemoryGeometry& g) {
  return BitRef{rng.below(static_cast<std::uint32_t>(g.num_words())),
                static_cast<int>(rng.below(static_cast<std::uint32_t>(
                    g.word_bits)))};
}

// DRF hold time is half the default pause so retention variants see decay.
constexpr std::uint64_t kDrfHoldNs = kDefaultPauseNs / 2;

// The reference expansion, through `cache` when there is one.
std::shared_ptr<const OpStream> stream_for(const MarchAlgorithm& alg,
                                           const MemoryGeometry& geometry,
                                           StreamCache* cache) {
  return cache != nullptr
             ? cache->get(alg, geometry)
             : std::make_shared<const OpStream>(expand(alg, geometry));
}

}  // namespace

RunResult run_stream(std::span<const MemOp> stream, memsim::Memory& memory,
                     std::size_t max_failures) {
  RunResult result;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const MemOp& op = stream[i];
    switch (op.kind) {
      case MemOp::Kind::Pause:
        memory.advance_time_ns(op.pause_ns());
        break;
      case MemOp::Kind::Write:
        memory.write(op.port, op.addr, op.data);
        ++result.writes;
        break;
      case MemOp::Kind::Read: {
        const Word actual = memory.read(op.port, op.addr);
        ++result.reads;
        if (actual != op.data && result.failures.size() < max_failures)
          result.failures.push_back(Failure{i, op, actual});
        break;
      }
    }
  }
  return result;
}

std::vector<Fault> make_fault_universe(FaultClass cls,
                                       const MemoryGeometry& g,
                                       std::uint64_t seed,
                                       int max_instances) {
  assert(max_instances > 0);
  std::vector<Fault> out;
  Rng rng{seed ^ (static_cast<std::uint64_t>(cls) << 32)};
  const auto n = static_cast<std::uint32_t>(g.num_words());
  // The samplers below redraw until two cells (couplings) or two words
  // (AF) differ, which never happens in a smaller geometry.
  const bool coupling = cls == FaultClass::CFin || cls == FaultClass::CFid ||
                        cls == FaultClass::CFst;
  if ((coupling && g.num_words() * g.word_bits < 2) ||
      (cls == FaultClass::AF && n < 2))
    throw std::invalid_argument(
        std::string{memsim::fault_class_name(cls)} + " faults need two " +
        (coupling ? "cells" : "words") + "; the geometry has one");

  // Exhaustive per-cell enumeration when it fits, else deterministic
  // sampling.  `emit_per_cell` builds `variants` faults for a given bit.
  auto enumerate_cells = [&](int variants, auto&& make) {
    const std::uint64_t total =
        std::uint64_t{n} * static_cast<std::uint64_t>(g.word_bits) * variants;
    if (total <= static_cast<std::uint64_t>(max_instances)) {
      for (Address a = 0; a < n; ++a)
        for (int b = 0; b < g.word_bits; ++b)
          for (int v = 0; v < variants; ++v)
            out.push_back(make(BitRef{a, b}, v));
    } else {
      for (int i = 0; i < max_instances; ++i)
        out.push_back(
            make(random_bit(rng, g), static_cast<int>(rng.below(
                                         static_cast<std::uint32_t>(variants)))));
    }
  };

  auto distinct_pair = [&](BitRef& agg, BitRef& vic) {
    do {
      agg = random_bit(rng, g);
      vic = random_bit(rng, g);
    } while (agg == vic);
  };

  switch (cls) {
    case FaultClass::SAF:
      enumerate_cells(2, [](BitRef c, int v) {
        return Fault{memsim::StuckAtFault{c, v == 1}};
      });
      break;
    case FaultClass::TF:
      enumerate_cells(2, [](BitRef c, int v) {
        return Fault{memsim::TransitionFault{c, v == 1}};
      });
      break;
    case FaultClass::SOF:
      enumerate_cells(1, [](BitRef c, int) {
        return Fault{memsim::StuckOpenFault{c}};
      });
      break;
    case FaultClass::DRF:
      enumerate_cells(2, [](BitRef c, int v) {
        return Fault{memsim::DataRetentionFault{c, v == 1, kDrfHoldNs}};
      });
      break;
    case FaultClass::IRF:
      enumerate_cells(1, [](BitRef c, int) {
        return Fault{memsim::IncorrectReadFault{c}};
      });
      break;
    case FaultClass::WDF:
      enumerate_cells(1, [](BitRef c, int) {
        return Fault{memsim::WriteDisturbFault{c}};
      });
      break;
    case FaultClass::RDF:
      enumerate_cells(1, [](BitRef c, int) {
        return Fault{memsim::ReadDestructiveFault{c, false}};
      });
      break;
    case FaultClass::DRDF:
      enumerate_cells(1, [](BitRef c, int) {
        return Fault{memsim::ReadDestructiveFault{c, true}};
      });
      break;
    case FaultClass::CFin:
      for (int i = 0; i < max_instances; ++i) {
        BitRef agg, vic;
        distinct_pair(agg, vic);
        out.push_back(Fault{memsim::InversionCouplingFault{agg, vic,
                                                           rng.flip()}});
      }
      break;
    case FaultClass::CFid:
      for (int i = 0; i < max_instances; ++i) {
        BitRef agg, vic;
        distinct_pair(agg, vic);
        out.push_back(Fault{
            memsim::IdempotentCouplingFault{agg, vic, rng.flip(), rng.flip()}});
      }
      break;
    case FaultClass::CFst:
      for (int i = 0; i < max_instances; ++i) {
        BitRef agg, vic;
        distinct_pair(agg, vic);
        out.push_back(Fault{
            memsim::StateCouplingFault{agg, vic, rng.flip(), rng.flip()}});
      }
      break;
    case FaultClass::AF:
      for (int i = 0; i < max_instances; ++i) {
        const Address x = rng.below(n);
        Address y = rng.below(n);
        while (y == x) y = rng.below(n);
        switch (i % 4) {
          case 0:  // no cell accessed
            out.push_back(Fault{memsim::AddressDecoderFault{x, {}}});
            break;
          case 1:  // wrong cell accessed
            out.push_back(Fault{memsim::AddressDecoderFault{x, {y}}});
            break;
          case 2:  // two cells accessed
            out.push_back(Fault{memsim::AddressDecoderFault{x, {x, y}}});
            break;
          default:  // two addresses hit one cell (y's own cell orphaned)
            out.push_back(Fault{memsim::AddressDecoderFault{y, {x}}});
            break;
        }
      }
      break;
    case FaultClass::NPSF:
    case FaultClass::PF:
    case FaultClass::LF:
      // Topology-/port-specific and composite populations have dedicated
      // generators (memsim::npsf_faults, explicit PortReadFault
      // construction, make_linked_cfid_universe).
      break;
  }
  return out;
}

std::vector<std::pair<Fault, Fault>> make_linked_cfid_universe(
    const MemoryGeometry& g, std::uint64_t seed, int count) {
  std::vector<std::pair<Fault, Fault>> out;
  out.reserve(static_cast<std::size_t>(count));
  Rng rng{seed ^ 0x11CCDDull};
  const auto n = static_cast<std::uint32_t>(g.num_words());
  if (g.num_words() * g.word_bits < 3)
    throw std::invalid_argument("linked CFid pairs need three cells");
  while (static_cast<int>(out.size()) < count) {
    const BitRef victim = random_bit(rng, g);
    BitRef agg1 = random_bit(rng, g);
    BitRef agg2 = random_bit(rng, g);
    if (agg1 == victim || agg2 == victim || agg1 == agg2) continue;
    (void)n;
    out.emplace_back(
        memsim::IdempotentCouplingFault{agg1, victim, rng.flip(), true},
        memsim::IdempotentCouplingFault{agg2, victim, rng.flip(), false});
  }
  return out;
}

std::vector<Fault> make_intra_word_cf_universe(const MemoryGeometry& g,
                                               std::uint64_t seed,
                                               int count) {
  if (g.word_bits < 2)
    throw std::invalid_argument("intra-word couplings need two bits a word");
  std::vector<Fault> out;
  out.reserve(static_cast<std::size_t>(count));
  Rng rng{seed ^ 0xAB1DEull};
  while (static_cast<int>(out.size()) < count) {
    const Address addr = rng.below(static_cast<std::uint32_t>(g.num_words()));
    const int a = static_cast<int>(
        rng.below(static_cast<std::uint32_t>(g.word_bits)));
    int v = static_cast<int>(
        rng.below(static_cast<std::uint32_t>(g.word_bits)));
    while (v == a)
      v = static_cast<int>(
          rng.below(static_cast<std::uint32_t>(g.word_bits)));
    switch (rng.below(3)) {
      case 0:
        out.push_back(memsim::InversionCouplingFault{
            {addr, a}, {addr, v}, rng.flip()});
        break;
      case 1:
        out.push_back(memsim::IdempotentCouplingFault{
            {addr, a}, {addr, v}, rng.flip(), rng.flip()});
        break;
      default:
        out.push_back(memsim::StateCouplingFault{
            {addr, a}, {addr, v}, rng.flip(), rng.flip()});
        break;
    }
  }
  return out;
}

CoverageCell evaluate_with_backgrounds(const MarchAlgorithm& alg,
                                       const MemoryGeometry& geometry,
                                       std::span<const memsim::Fault> faults,
                                       int num_backgrounds,
                                       std::uint64_t powerup_seed, int jobs) {
  const auto all_bgs = standard_backgrounds(geometry.word_bits);
  assert(num_backgrounds >= 1 &&
         num_backgrounds <= static_cast<int>(all_bgs.size()));
  // Truncated-background expansions are not the canonical stream, so they
  // bypass the shared cache and feed the runner directly.
  OpStream stream;
  for (int port = 0; port < geometry.num_ports; ++port) {
    for (int b = 0; b < num_backgrounds; ++b) {
      const OpStream pass =
          expand_single_pass(alg, geometry, port,
                             all_bgs[static_cast<std::size_t>(b)]);
      stream.insert(stream.end(), pass.begin(), pass.end());
    }
  }
  const CampaignRunner runner{{.jobs = jobs, .powerup_seed = powerup_seed}};
  const auto result = runner.run(stream, geometry, faults);
  return CoverageCell{result.detected(), result.total()};
}

CoverageCell evaluate_linked_coverage(const MarchAlgorithm& alg,
                                      const MemoryGeometry& geometry,
                                      const CoverageOptions& opts) {
  const auto stream = stream_for(alg, geometry, opts.cache);
  const auto universe = make_linked_cfid_universe(
      geometry, opts.seed, opts.max_instances_per_class);
  std::vector<FaultGroup> groups;
  groups.reserve(universe.size());
  for (const auto& [first, second] : universe)
    groups.push_back(FaultGroup{first, second});
  const CampaignRunner runner{{.jobs = opts.jobs,
                               .powerup_seed = opts.seed,
                               .kernel = opts.kernel,
                               .cancel = opts.cancel}};
  const auto result = runner.run_groups(*stream, geometry, groups);
  return CoverageCell{result.detected(), result.total()};
}

CoverageCell evaluate_coverage(const MarchAlgorithm& alg, FaultClass cls,
                               const MemoryGeometry& geometry,
                               const CoverageOptions& opts) {
  const auto universe = make_fault_universe(cls, geometry, opts.seed,
                                            opts.max_instances_per_class);
  const auto result = run_campaign(alg, geometry, universe,
                                   {.jobs = opts.jobs,
                                    .powerup_seed = opts.seed,
                                    .kernel = opts.kernel,
                                    .cancel = opts.cancel},
                                   opts.cache);
  return CoverageCell{result.detected(), result.total()};
}

std::vector<CoverageRow> coverage_matrix(
    std::span<const MarchAlgorithm> algorithms,
    std::span<const FaultClass> classes, const MemoryGeometry& geometry,
    const CoverageOptions& opts) {
  // The universes depend on the class alone, so every row shares them.
  std::vector<std::vector<Fault>> universes;
  universes.reserve(classes.size());
  for (FaultClass cls : classes)
    universes.push_back(make_fault_universe(cls, geometry, opts.seed,
                                            opts.max_instances_per_class));
  const CampaignRunner runner{{.jobs = opts.jobs,
                               .powerup_seed = opts.seed,
                               .kernel = opts.kernel,
                               .cancel = opts.cancel}};
  const int total = static_cast<int>(algorithms.size() * classes.size());

  std::vector<CoverageRow> rows;
  rows.reserve(algorithms.size());
  for (const auto& alg : algorithms) {
    const auto stream = stream_for(alg, geometry, opts.cache);
    const int before = static_cast<int>(rows.size() * classes.size());
    std::function<void(int, int)> progress;
    if (opts.progress)
      progress = [&](int done, int) { opts.progress(before + done, total); };
    const std::vector<CampaignResult> results =
        runner.run_row(*stream, geometry, universes, progress);
    CoverageRow row;
    row.algorithm = alg.name();
    for (std::size_t c = 0; c < classes.size(); ++c)
      row.cells[classes[c]] =
          CoverageCell{results[c].detected(), results[c].total()};
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string format_coverage_table(std::span<const CoverageRow> rows,
                                  std::span<const FaultClass> classes) {
  std::ostringstream os;
  os << std::left << std::setw(14) << "algorithm";
  for (FaultClass c : classes)
    os << std::right << std::setw(7) << memsim::fault_class_name(c);
  os << "\n";
  os << std::fixed << std::setprecision(0);
  for (const auto& row : rows) {
    os << std::left << std::setw(14) << row.algorithm;
    for (FaultClass c : classes) {
      const auto it = row.cells.find(c);
      if (it == row.cells.end()) {
        os << std::right << std::setw(7) << "-";
      } else {
        os << std::right << std::setw(6) << it->second.ratio() * 100.0 << "%";
      }
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace pmbist::march
