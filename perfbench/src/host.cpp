#include "host.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "trace.h"

namespace perfbench {
namespace {

// Larger than the 105 MiB last-level cache of the reference host by more
// than 2x, so warm passes stream from DRAM.
constexpr std::size_t kRooflineBytes = std::size_t{256} << 20;
constexpr int kWarmPasses = 3;

/// Runs fn(t, begin, end) on `threads` threads over equal word ranges and
/// returns the wall seconds of the slowest.
template <typename Fn>
double timed_threads(int threads, std::uint64_t* words, std::size_t n,
                     Fn fn) {
  std::vector<std::thread> pool;
  const std::size_t chunk = n / static_cast<std::size_t>(threads);
  const auto start = Clock::now();
  for (int t = 0; t < threads; ++t) {
    std::uint64_t* begin = words + static_cast<std::size_t>(t) * chunk;
    std::uint64_t* end = t + 1 == threads ? words + n : begin + chunk;
    pool.emplace_back([=] { fn(t, begin, end); });
  }
  for (std::thread& th : pool) th.join();
  return seconds_between(start, Clock::now());
}

void store(int t, std::uint64_t* begin, std::uint64_t* end) {
  // A non-repeating byte pattern keeps the compiler from turning the loop
  // into memset (which may switch to non-temporal stores).
  const std::uint64_t v = 0x0123456789abcdefull + static_cast<std::uint64_t>(t);
  for (std::uint64_t* p = begin; p != end; ++p) *p = v;
}

std::atomic<std::uint64_t> load_sink{0};

void load(int, std::uint64_t* begin, std::uint64_t* end) {
  std::uint64_t a = 0, b = 0, c = 0, d = 0;
  std::uint64_t* p = begin;
  for (; p + 4 <= end; p += 4) {
    a ^= p[0];
    b ^= p[1];
    c ^= p[2];
    d ^= p[3];
  }
  for (; p != end; ++p) a ^= *p;
  load_sink.fetch_xor(a ^ b ^ c ^ d, std::memory_order_relaxed);
}

}  // namespace

Roofline measure_roofline(int max_threads) {
  Roofline r;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  r.cores = std::max(1, hw);
  const int threads = std::max(1, std::min(r.cores, max_threads));

  void* mapping = mmap(nullptr, kRooflineBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mapping == MAP_FAILED)
    throw std::runtime_error{"roofline: mmap of 256 MiB failed"};
  auto* words = static_cast<std::uint64_t*>(mapping);
  const std::size_t n = kRooflineBytes / sizeof(std::uint64_t);
  const double bytes = static_cast<double>(kRooflineBytes);

  r.first_touch_gbps = bytes / timed_threads(threads, words, n, store) / 1e9;
  double best_store = 1e300;
  double best_load = 1e300;
  for (int pass = 0; pass < kWarmPasses; ++pass) {
    best_store = std::min(best_store, timed_threads(threads, words, n, store));
    best_load = std::min(best_load, timed_threads(threads, words, n, load));
  }
  r.store_gbps = bytes / best_store / 1e9;
  r.load_gbps = bytes / best_load / 1e9;
  munmap(mapping, kRooflineBytes);
  return r;
}

namespace {

long resident_pages() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long size = 0;
  long resident = 0;
  if (std::fscanf(f, "%ld %ld", &size, &resident) != 2) resident = 0;
  std::fclose(f);
  return resident;
}

}  // namespace

RssSampler::RssSampler() : thread_{[this] { loop(); }} {}

RssSampler::~RssSampler() { stop(); }

void RssSampler::loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    const long now = resident_pages();
    if (now > peak_pages_.load(std::memory_order_relaxed))
      peak_pages_.store(now, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

double RssSampler::stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  const long now = resident_pages();
  const long peak = std::max(peak_pages_.load(), now);
  return static_cast<double>(peak) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

}  // namespace perfbench
