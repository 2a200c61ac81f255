#include "backend/memtest.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>

#include "backend/hostram_backend.h"
#include "backend/sweep.h"
#include "bist/misr.h"
#include "common/thread_pool.h"
#include "march/expand.h"

namespace pmbist::backend {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Orders every shard's accesses in one march element before the next
/// element's: the barrier between elements.
void element_fence() {
#if defined(__SANITIZE_THREAD__)
  // TSan does not model free-standing fences (gcc -Wtsan); a seq-cst RMW
  // on a private atomic has the same ordering strength and is visible to
  // the race detector.
  static std::atomic<int> sync{0};
  sync.fetch_add(1, std::memory_order_seq_cst);
#else
  std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
}

}  // namespace

MemoryGeometry memtest_geometry(std::uint64_t size_bytes) {
  const std::uint64_t words = size_bytes / sizeof(Word);
  int bits = 6;  // >= 64 words (512 B) so every size yields a usable run
  while (bits < 31 && (std::uint64_t{2} << bits) <= words) ++bits;
  return MemoryGeometry{.address_bits = bits, .word_bits = 64, .num_ports = 1};
}

int memtest_shards(const MemoryGeometry& geometry) {
  const std::size_t words = geometry.num_words();
  int shards = 1;
  while (shards < 64 &&
         words / (static_cast<std::size_t>(shards) * 2) >= 4096) {
    shards *= 2;
  }
  return shards;
}

std::optional<std::uint64_t> parse_size_bytes(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  std::size_t i = 0;
  for (; i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]));
       ++i) {
    const std::uint64_t digit = static_cast<std::uint64_t>(text[i] - '0');
    if (value > (~std::uint64_t{0} - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
  }
  if (i == 0) return std::nullopt;
  std::uint64_t scale = 1;
  if (i < text.size()) {
    switch (text[i]) {
      case 'K': case 'k': scale = 1ull << 10; ++i; break;
      case 'M': case 'm': scale = 1ull << 20; ++i; break;
      case 'G': case 'g': scale = 1ull << 30; ++i; break;
      default: return std::nullopt;
    }
    // Accept "64M", "64MB", "64MiB".
    if (i < text.size() && (text[i] == 'i' || text[i] == 'I')) ++i;
    if (i < text.size() && (text[i] == 'b' || text[i] == 'B')) ++i;
  }
  if (i != text.size()) return std::nullopt;
  if (scale != 1 && value > ~std::uint64_t{0} / scale) return std::nullopt;
  return value * scale;
}

MemtestReport run_memtest(const march::MarchAlgorithm& alg,
                          const MemtestOptions& options) {
  if (const std::string err = alg.validate(); !err.empty()) {
    throw BackendError{"invalid algorithm: " + err};
  }
  if (options.passes < 1) throw BackendError{"passes must be >= 1"};
  if (options.misr_width < 1 || options.misr_width > 64) {
    throw BackendError{"misr width must be in [1, 64]"};
  }

  const MemoryGeometry geometry = memtest_geometry(options.size_bytes);
  MemtestReport report;
  // Host RAM exposes its mapping; the simulator is a zero-filled SramModel,
  // matching the kernel's zero-filled anonymous mapping, so both see
  // identical pre-test contents (the first element must write anyway).
  std::unique_ptr<memsim::Memory> memory;
  std::span<Word> direct;
  if (options.backend == BackendKind::HostRam) {
    auto ram = std::make_unique<HostRamBackend>(
        geometry, HostRamOptions{.request_huge_pages = options.huge_pages});
    direct = ram->words();
    report.huge_pages = ram->huge_pages();
    memory = std::move(ram);
  } else {
    memory = std::make_unique<memsim::SramModel>(geometry, Word{0}, true);
  }

  std::vector<Word> backgrounds = march::standard_backgrounds(64);
  if (options.backgrounds > 0 &&
      static_cast<std::size_t>(options.backgrounds) < backgrounds.size()) {
    backgrounds.resize(static_cast<std::size_t>(options.backgrounds));
  }

  const int shards = memtest_shards(geometry);
  const std::size_t words_per_shard =
      geometry.num_words() / static_cast<std::size_t>(shards);
  const Word mask = geometry.word_mask();

  std::vector<detail::ShardState> states(static_cast<std::size_t>(shards));

  report.algorithm = alg.name();
  report.backend_name = std::string{to_string(options.backend)};
  report.geometry = geometry;
  report.buffer_bytes = geometry.num_words() * sizeof(Word);
  report.shards = shards;
  report.passes = options.passes;
  report.backgrounds = static_cast<int>(backgrounds.size());
  report.misr_width = options.misr_width;
  for (const march::MarchElement& el : alg.elements()) {
    MemtestPhase phase;
    phase.element = el.to_string();
    phase.is_pause = el.is_pause;
    report.phases.push_back(std::move(phase));
  }

  // On host RAM each element runs as a compare-only sweep over the
  // shard's words (backend/sweep.h).  The simulator goes through the
  // virtual interface so it observes every access, and clocks a serial
  // MISR on every read: the reference the sweeps are tested against.
  // Both walk the same addresses in the same order, so reports agree.

  const auto simulate_element_on_shard = [&](int shard,
                                             const march::MarchElement& el,
                                             Word bg) {
    detail::ShardState& st = states[static_cast<std::size_t>(shard)];
    bist::Misr misr{options.misr_width, st.signature};
    const std::size_t base =
        static_cast<std::size_t>(shard) * words_per_shard;
    const bool descending = el.order == march::AddressOrder::Down;
    for (std::size_t i = 0; i < words_per_shard; ++i) {
      const auto addr = static_cast<Address>(
          base + (descending ? words_per_shard - 1 - i : i));
      for (const march::MarchOp& op : el.ops) {
        const Word value = march::apply_background(op.data, bg, mask);
        if (op.kind == march::MarchOp::Kind::Write) {
          memory->write(0, addr, value);
          ++st.writes;
        } else {
          const Word actual = memory->read(0, addr);
          misr.absorb(actual);
          ++st.reads;
          if (actual != value) {
            ++st.mismatches;
            if (st.failures.size() < options.max_failures) {
              st.failures.push_back(march::Failure{
                  st.op_index, march::MemOp::read(0, addr, value), actual});
            }
          }
        }
        ++st.op_index;
      }
    }
    st.signature = misr.signature();
  };

  // Injection flips a bit immediately before the first element whose
  // leading op is a read, so no intervening write can mask it and that
  // element's read sweep must report the mismatch.
  std::size_t inject_before = alg.elements().size();
  if (options.inject_error) {
    for (std::size_t e = 0; e < alg.elements().size(); ++e) {
      const march::MarchElement& el = alg.elements()[e];
      if (!el.is_pause && !el.ops.empty() && el.ops.front().is_read()) {
        inject_before = e;
        break;
      }
    }
    if (inject_before == alg.elements().size()) {
      throw BackendError{
          "error injection requires an algorithm with a read-led march "
          "element"};
    }
  }

  const auto wall_start = Clock::now();
  // One sweep per (background, element), shared by every shard.  No
  // element reads a shard more often than the whole algorithm reads it.
  std::vector<detail::ElementSweep> sweeps;
  if (!direct.empty()) {
    sweeps.reserve(backgrounds.size() * alg.elements().size());
    for (const Word bg : backgrounds)
      for (const march::MarchElement& el : alg.elements())
        sweeps.emplace_back(el, bg, mask, words_per_shard, options.misr_width);
  }
  const bist::MisrSkip skip{
      options.misr_width,
      words_per_shard * static_cast<std::size_t>(alg.reads_per_cell())};
  const std::uint64_t progress_total =
      static_cast<std::uint64_t>(options.passes) * backgrounds.size();
  std::uint64_t progress_done = 0;
  bool pending_inject = options.inject_error;

  for (int pass = 0; pass < options.passes && report.completed; ++pass) {
    for (std::size_t b = 0; b < backgrounds.size(); ++b) {
      for (std::size_t e = 0; e < alg.elements().size(); ++e) {
        if (options.cancel != nullptr &&
            options.cancel->load(std::memory_order_relaxed)) {
          report.completed = false;
          break;
        }
        const march::MarchElement& el = alg.elements()[e];
        MemtestPhase& phase = report.phases[e];
        if (el.is_pause) {
          memory->advance_time_ns(el.pause_ns);
          ++report.pauses;
          continue;
        }
        if (pending_inject && e == inject_before) {
          pending_inject = false;
          report.injected = true;
          const auto target = static_cast<Address>(words_per_shard / 2);
          const Word current = !direct.empty() ? direct[target]
                                               : memory->read(0, target);
          const Word flipped = (current ^ Word{1}) & mask;
          if (!direct.empty()) {
            direct[target] = flipped;
          } else {
            memory->write(0, target, flipped);
          }
        }
        const auto phase_start = Clock::now();
        if (direct.empty()) {
          common::parallel_shards(options.jobs, shards, [&](int shard) {
            simulate_element_on_shard(shard, el, backgrounds[b]);
          });
        } else {
          const detail::ElementSweep& sweep =
              sweeps[b * alg.elements().size() + e];
          common::parallel_shards(options.jobs, shards, [&](int shard) {
            const std::size_t base =
                static_cast<std::size_t>(shard) * words_per_shard;
            sweep.run(direct.subspan(base, words_per_shard),
                      static_cast<Address>(base), skip, options.max_failures,
                      states[static_cast<std::size_t>(shard)]);
          });
        }
        element_fence();
        phase.seconds += seconds_since(phase_start);
        std::uint64_t phase_reads = 0;
        std::uint64_t phase_writes = 0;
        for (const march::MarchOp& op : el.ops) {
          (op.is_read() ? phase_reads : phase_writes) += 1;
        }
        phase.reads += phase_reads * geometry.num_words();
        phase.writes += phase_writes * geometry.num_words();
      }
      if (!report.completed) break;
      ++progress_done;
      if (options.progress) options.progress(progress_done, progress_total);
    }
    if (!report.completed) break;
  }

  bist::Misr total{options.misr_width, 0};
  for (detail::ShardState& st : states) {
    total.absorb(st.signature);
    report.reads += st.reads;
    report.writes += st.writes;
    report.mismatches += st.mismatches;
    for (march::Failure& f : st.failures) {
      if (report.failures.size() < options.max_failures) {
        report.failures.push_back(std::move(f));
      }
    }
  }
  report.signature = total.signature();
  report.wall_seconds = seconds_since(wall_start);
  return report;
}

std::string format_memtest_report(const MemtestReport& report) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line, "memtest \"%s\" on %s\n",
                report.algorithm.c_str(), report.backend_name.c_str());
  out += line;
  std::snprintf(line, sizeof line,
                "buffer: %" PRIu64 " bytes (%zu words x %d bits), %d shards\n",
                report.buffer_bytes, report.geometry.num_words(),
                report.geometry.word_bits, report.shards);
  out += line;
  std::snprintf(line, sizeof line,
                "plan: passes %d, backgrounds %d, elements %zu%s\n",
                report.passes, report.backgrounds, report.phases.size(),
                report.injected ? ", injected error" : "");
  out += line;
  std::snprintf(line, sizeof line,
                "ops: reads %" PRIu64 " writes %" PRIu64 " pauses %" PRIu64
                " mismatches %" PRIu64 "\n",
                report.reads, report.writes, report.pauses,
                report.mismatches);
  out += line;
  std::snprintf(line, sizeof line, "signature: 0x%016llX (misr width %d)\n",
                static_cast<unsigned long long>(report.signature),
                report.misr_width);
  out += line;
  const std::size_t shown = std::min<std::size_t>(report.failures.size(), 8);
  for (std::size_t i = 0; i < shown; ++i) {
    const march::Failure& f = report.failures[i];
    std::snprintf(line, sizeof line,
                  "fail[%zu]: addr=0x%X expected=0x%llX actual=0x%llX\n", i,
                  f.op.addr, static_cast<unsigned long long>(f.op.data),
                  static_cast<unsigned long long>(f.actual));
    out += line;
  }
  if (report.failures.size() > shown) {
    std::snprintf(line, sizeof line, "... %zu more failures\n",
                  report.failures.size() - shown);
    out += line;
  }
  out += report.completed ? (report.passed() ? "PASS\n" : "FAIL\n")
                          : "INTERRUPTED\n";
  return out;
}

std::string format_memtest_throughput(const MemtestReport& report) {
  std::string out;
  char line[256];
  constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;
  double read_bytes_total = 0.0;
  double write_bytes_total = 0.0;
  double read_seconds = 0.0;
  double write_seconds = 0.0;
  for (std::size_t i = 0; i < report.phases.size(); ++i) {
    const MemtestPhase& p = report.phases[i];
    if (p.is_pause) {
      std::snprintf(line, sizeof line, "phase[%zu] %s: pause\n", i,
                    p.element.c_str());
      out += line;
      continue;
    }
    const double rb = static_cast<double>(p.reads) * sizeof(Word);
    const double wb = static_cast<double>(p.writes) * sizeof(Word);
    const double gbps =
        p.seconds > 0.0 ? (rb + wb) / kGiB / p.seconds : 0.0;
    std::snprintf(line, sizeof line,
                  "phase[%zu] %s: %.3f GiB touched, %.3f s, %.2f GB/s\n", i,
                  p.element.c_str(), (rb + wb) / kGiB, p.seconds, gbps);
    out += line;
    // Attribute a mixed phase's wall time to reads and writes in
    // proportion to bytes moved; pure phases attribute exactly.
    if (rb + wb > 0.0) {
      const double tr = p.seconds * rb / (rb + wb);
      read_seconds += tr;
      write_seconds += p.seconds - tr;
      read_bytes_total += rb;
      write_bytes_total += wb;
    }
  }
  const double sustained_read =
      read_seconds > 0.0 ? read_bytes_total / kGiB / read_seconds : 0.0;
  const double sustained_write =
      write_seconds > 0.0 ? write_bytes_total / kGiB / write_seconds : 0.0;
  std::snprintf(line, sizeof line,
                "sustained: read %.2f GB/s, write %.2f GB/s%s\n",
                sustained_read, sustained_write,
                report.huge_pages ? " (huge pages)" : "");
  out += line;
  std::snprintf(line, sizeof line, "wall %.3f s\n", report.wall_seconds);
  out += line;
  return out;
}

}  // namespace pmbist::backend
