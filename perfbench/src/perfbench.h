#pragma once
// Shared types of the benchmark binary: what a workload hands back to
// main.cpp, and the small statistics helpers every workload uses.
//
// A workload performs user-visible operations (one coverage row, one
// memtest call, one serve request).  End-to-end metrics are computed by
// main.cpp from the whole pass; per-layer metrics are named by the
// workload itself and must be declared in BENCHMARK.json.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "trace.h"

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// One measured pass of a workload.
struct Pass {
  double wall_s = 0.0;              ///< first issue to last completion
  std::vector<double> latency_ms;   ///< one entry per completed operation
  std::uint64_t attempted = 0;      ///< operations issued
  std::uint64_t failed = 0;         ///< operations with a missing or wrong result
  std::uint64_t fingerprint = 0;    ///< hash of the simulated statistics
  std::vector<std::string> errors;  ///< named reasons for `failed`
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Program-side set-up paid before timing.
  virtual void setup() = 0;
  /// Median seconds of one set-up, read after run() and check(): a
  /// workload may time set-ups before, during or after its passes.
  [[nodiscard]] virtual double setup_s() const = 0;
  /// Runs operations for `seconds` of wall time.  Spans go to `tracer`
  /// (a disabled tracer records nothing).
  virtual Pass run(double seconds, Tracer& tracer) = 0;
  /// Correctness gates over the pass run() just returned, outside the
  /// timed region: sets the fingerprint and adds failures to `pass`.
  /// `tracer` times the direct engine calls the gates make.
  virtual void check(Pass& pass, Tracer& tracer) = 0;
  /// Per-layer metrics of the traced pass.
  virtual std::vector<Metric> layer_metrics(const Pass& pass,
                                            const Tracer& tracer) = 0;
};

/// Worker threads of every workload: the reference host's core count.
inline constexpr int kThreads = 4;

/// Runs fn(t) on `threads` new threads, t in [0, threads), and joins them;
/// the first exception a thread throws is rethrown on the caller.  The
/// workloads shard their work with this and call the libraries with
/// jobs=1 only: common::parallel_shards with more than one job can touch
/// its caller's stack after returning (README.md, "Known defect").
void run_threads(int threads, const std::function<void(int)>& fn);

/// Runs fn(i) for every i in [0, n) on `threads` threads that claim
/// indices in ascending order.
void for_each_index(int threads, int n, const std::function<void(int)>& fn);

[[nodiscard]] std::unique_ptr<Workload> make_campaign(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_memtest(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_serve(std::uint64_t seed);

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// splitmix64: the benchmark's only source of generated inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_{seed} {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Folds the 8 bytes of `value`, least significant first, into a running
/// FNV-1a fingerprint that starts at common::kFnvOffset.
[[nodiscard]] inline std::uint64_t fold(std::uint64_t hash,
                                        std::uint64_t value) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(value >> (8 * i));
  return pmbist::common::fnv1a64({bytes, sizeof bytes}, hash);
}

}  // namespace perfbench
