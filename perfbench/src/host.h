#pragma once
// Host context measured by the benchmark itself: the roofline block and
// the peak resident set of the workload phase.

#include <atomic>
#include <thread>

namespace perfbench {

/// Plain threaded memory bandwidth of this host, measured at start-up on a
/// buffer larger than the last-level cache.  It is context for
/// march_gbps, never an end-to-end metric.
struct Roofline {
  int cores = 0;
  double store_gbps = 0.0;        ///< warm buffer, best of several passes
  double load_gbps = 0.0;         ///< warm buffer, best of several passes
  double first_touch_gbps = 0.0;  ///< fill of a fresh mapping
};

/// Runs the roofline loops with min(nproc, max_threads) threads.
[[nodiscard]] Roofline measure_roofline(int max_threads);

/// Samples this process's resident set every 10 ms between
/// construction and stop().  Sampling starts after the roofline buffer is
/// gone, so the peak belongs to the workload alone.
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Stops sampling; returns the peak resident set in MiB.
  double stop();

 private:
  void loop();

  std::atomic<bool> stop_{false};
  std::atomic<long> peak_pages_{0};
  std::thread thread_;  // declared last: started after the atomics exist
};

}  // namespace perfbench
