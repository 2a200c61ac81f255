// `memtest`: backend::run_memtest, March C, 2 backgrounds, 1 pass, on
// fresh host-RAM mappings.  One round runs kThreads calls at once, each on
// its own 64 MiB mapping with jobs=1: 256 MiB in all, far larger than the
// last-level cache, so this is the workload bound by memory bandwidth and
// the MISR.  One operation is one call (the work of
// `pmbist memtest --size 64M --backgrounds 2 --jobs 1`).  The inputs are
// fixed: a march test's buffer contents are a function of the algorithm
// alone, so the seed does not enter.

#include <algorithm>

#include "backend/memtest.h"
#include "bist/misr.h"
#include "march/expand.h"
#include "march/library.h"
#include "perfbench.h"

namespace perfbench {
namespace {

namespace backend = pmbist::backend;
namespace bist = pmbist::bist;
namespace march = pmbist::march;
using pmbist::memsim::Word;

constexpr std::uint64_t kBytes = std::uint64_t{64} << 20;
constexpr int kBackgrounds = 2;
constexpr int kMisrWidth = 32;

struct Call {
  backend::MemtestReport report;
  double call_s = 0.0;
};

/// The kThreads calls that ran together.
struct Round {
  std::vector<Call> calls;
};

double gbps(std::uint64_t ops, double seconds) {
  return seconds > 0.0 ? static_cast<double>(ops) * sizeof(Word) / seconds / 1e9
                       : 0.0;
}

class Memtest final : public Workload {
 public:
  Memtest() : alg_{march::march_c()} {
    options_.size_bytes = kBytes;
    options_.passes = 1;
    options_.backgrounds = kBackgrounds;
    options_.jobs = 1;
    options_.misr_width = kMisrWidth;
  }

  void setup() override {
    oracle_ = oracle();
    // The first round in a process runs slower (the allocator and the
    // kernel warm up); it is paid before timing and not reported.
    Tracer off{false};
    (void)round(off);
  }

  double setup_s() const override { return median(map_s_); }

  Pass run(double seconds, Tracer& tracer) override {
    Pass pass;
    rounds_.clear();
    map_s_.clear();
    const auto start = Clock::now();
    while (pass.wall_s < seconds) {
      Round r = round(tracer);
      for (const Call& c : r.calls) {
        ++pass.attempted;
        pass.latency_ms.push_back(c.call_s * 1e3);
        map_s_.push_back(c.call_s - c.report.wall_seconds);
      }
      pass.wall_s = seconds_between(start, Clock::now());
      rounds_.push_back(std::move(r));
    }
    return pass;
  }

  void check(Pass& pass, Tracer&) override {
    const pmbist::memsim::MemoryGeometry g = backend::memtest_geometry(kBytes);
    const std::uint64_t cells = g.num_words() * kBackgrounds;
    const auto reads = cells * static_cast<std::uint64_t>(alg_.reads_per_cell());
    const auto writes = cells * static_cast<std::uint64_t>(
                                    alg_.ops_per_cell() - alg_.reads_per_cell());
    for (const Round& round : rounds_)
      for (const Call& c : round.calls) {
        const backend::MemtestReport& r = c.report;
        pass.fingerprint = pmbist::common::kFnvOffset;
        for (const std::uint64_t v : {r.signature, r.reads, r.writes,
                                      r.mismatches})
          pass.fingerprint = fold(pass.fingerprint, v);
        std::string why;
        if (r.signature != oracle_)
          why = "signature differs from the serial-MISR oracle";
        if (r.reads != reads || r.writes != writes)
          why = "read/write counts differ from the analytic counts";
        if (!r.passed()) why = "run did not pass";
        if (!why.empty()) {
          ++pass.failed;
          pass.errors.push_back("memtest: " + why);
        }
      }
    // The mismatch path: one injected bit flip must be seen exactly once.
    ++pass.attempted;
    backend::MemtestOptions opts;
    opts.size_bytes = std::uint64_t{1} << 20;
    opts.backgrounds = 1;
    opts.jobs = 1;
    opts.inject_error = true;
    const auto injected = backend::run_memtest(alg_, opts);
    if (injected.mismatches != 1 || injected.passed()) {
      ++pass.failed;
      pass.errors.push_back("memtest: injected error gave " +
                            std::to_string(injected.mismatches) +
                            " mismatches, expected exactly 1");
    }
  }

  std::vector<Metric> layer_metrics(const Pass&, const Tracer&) override {
    // A round's figure for a phase: the ops of all its calls over the
    // slowest call's time.
    std::vector<Metric> out;
    std::vector<double> march_gbps;
    for (const Round& r : rounds_) {
      std::uint64_t ops = 0;
      double slowest = 0.0;
      for (const Call& c : r.calls) {
        ops += c.report.reads + c.report.writes;
        slowest = std::max(slowest, c.report.wall_seconds);
      }
      march_gbps.push_back(gbps(ops, slowest));
    }
    out.push_back({"march_gbps", "GB/s", median(march_gbps)});
    out.push_back({"backend.map_s", "s", median(map_s_)});

    // Per element, then grouped as write-only, read+write and read-only.
    const std::size_t elements = alg_.elements().size();
    std::uint64_t group_ops[3] = {0, 0, 0};
    double group_s[3] = {0.0, 0.0, 0.0};
    for (std::size_t e = 0; e < elements; ++e) {
      std::vector<double> secs;
      for (const Round& r : rounds_) {
        double slowest = 0.0;
        for (const Call& c : r.calls)
          slowest = std::max(slowest, c.report.phases[e].seconds);
        secs.push_back(slowest);
      }
      const backend::MemtestPhase& p = rounds_.front().calls.front().report.phases[e];
      const std::uint64_t ops = (p.reads + p.writes) * kThreads;
      const double s = median(secs);
      const std::string i = std::to_string(e);
      out.push_back({"backend.element" + i + "_s", "s", s});
      out.push_back({"backend.element" + i + "_gbps", "GB/s", gbps(ops, s)});
      const int group = p.reads == 0 ? 0 : (p.writes == 0 ? 2 : 1);
      group_ops[group] += ops;
      group_s[group] += s;
    }
    out.push_back({"backend.fill_gbps", "GB/s", gbps(group_ops[0], group_s[0])});
    out.push_back({"backend.rw_gbps", "GB/s", gbps(group_ops[1], group_s[1])});
    out.push_back(
        {"backend.verify_gbps", "GB/s", gbps(group_ops[2], group_s[2])});
    out.push_back({"bist.misr_ns_per_word", "ns", misr_ns_per_word_});

    const backend::MemtestReport& r = rounds_.front().calls.front().report;
    out.push_back({"backend.reads", "count", static_cast<double>(r.reads)});
    out.push_back({"backend.writes", "count", static_cast<double>(r.writes)});
    out.push_back(
        {"backend.mismatches", "count", static_cast<double>(r.mismatches)});
    out.push_back({"backend.signature", "count",
                   static_cast<double>(r.signature)});
    return out;
  }

 private:
  Round round(Tracer& tracer) {
    Round r;
    r.calls.resize(kThreads);
    run_threads(kThreads, [&](int t) {
      Call& c = r.calls[static_cast<std::size_t>(t)];
      const auto c0 = Clock::now();
      {
        auto s = tracer.span("backend.run_memtest");
        c.report = backend::run_memtest(alg_, options_);
      }
      c.call_s = seconds_between(c0, Clock::now());
    });
    return r;
  }

  /// Independent signature: a serial bist::Misr per shard over the
  /// expected read values of that shard, in the order memtest.h
  /// documents (pass, background, element, address, op), folded over the
  /// shards in shard order.  It never calls run_memtest.
  Word oracle() {
    const pmbist::memsim::MemoryGeometry g = backend::memtest_geometry(kBytes);
    const int shards = backend::memtest_shards(g);
    const std::size_t words = g.num_words() / static_cast<std::size_t>(shards);
    std::vector<Word> bgs = march::standard_backgrounds(64);
    bgs.resize(kBackgrounds);
    std::vector<Word> shard_sig(static_cast<std::size_t>(shards));
    std::vector<double> shard_ns_per_word(static_cast<std::size_t>(shards));
    for_each_index(kThreads, shards, [&](int s) {
      const auto t0 = Clock::now();
      bist::Misr misr{kMisrWidth, 0};
      std::uint64_t reads = 0;
      for (const Word bg : bgs)
        for (const march::MarchElement& el : alg_.elements()) {
          if (el.is_pause) continue;
          // Expected values do not depend on the address, so walking the
          // shard in either order absorbs the same sequence.
          for (std::size_t i = 0; i < words; ++i)
            for (const march::MarchOp& op : el.ops)
              if (op.is_read()) {
                misr.absorb(march::apply_background(op.data, bg, g.word_mask()));
                ++reads;
              }
        }
      const auto i = static_cast<std::size_t>(s);
      shard_sig[i] = misr.signature();
      shard_ns_per_word[i] =
          seconds_between(t0, Clock::now()) * 1e9 / static_cast<double>(reads);
    });

    bist::Misr total{kMisrWidth, 0};
    for (const Word sig : shard_sig) total.absorb(sig);
    misr_ns_per_word_ = median(shard_ns_per_word);
    return total.signature();
  }

  march::MarchAlgorithm alg_;
  backend::MemtestOptions options_;
  std::vector<Round> rounds_;
  std::vector<double> map_s_;
  Word oracle_ = 0;
  double misr_ns_per_word_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_memtest(std::uint64_t) {
  return std::make_unique<Memtest>();
}

}  // namespace perfbench
