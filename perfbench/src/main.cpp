// Benchmark binary for pmbist: one process runs one named workload
// in-process (no sockets, no subprocesses) and prints every metric by name
// with its unit, then one JSON result line.
//
//   perfbench --workload campaign|memtest|serve --seed N --seconds S
//             --trace 0|1 [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics with tracing off.  --trace 1
// runs the workload twice for S/2 seconds each, untraced then traced,
// checks that both passes produced the same simulated-statistics
// fingerprint, and reports the per-layer metrics of the traced pass plus
// the tracing overhead between the two.  Correctness gates run after each
// timed pass on every run; a failed gate makes the exit code 1.
// README.md in this directory defines every workload and metric.

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/json.h"
#include "host.h"
#include "perfbench.h"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

void run_threads(int threads, const std::function<void(int)>& fn) {
  std::mutex mu;
  std::exception_ptr error;  // guarded by mu
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      try {
        fn(t);
      } catch (...) {
        std::lock_guard lock{mu};
        if (!error) error = std::current_exception();
      }
    });
  for (std::thread& th : pool) th.join();
  if (error) std::rethrow_exception(error);
}

void for_each_index(int threads, int n, const std::function<void(int)>& fn) {
  std::atomic<int> next{0};
  run_threads(threads, [&](int) {
    for (int i; (i = next.fetch_add(1)) < n;) fn(i);
  });
}

}  // namespace perfbench

namespace {

using namespace perfbench;
namespace json = pmbist::common::json;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "campaign|memtest|serve --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (flag == "--trace-out") {
        a.trace_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (a.seconds <= 0.0 || a.seconds > 600.0) usage("--seconds out of range");
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "campaign") return make_campaign(a.seed);
  if (a.workload == "memtest") return make_memtest(a.seed);
  if (a.workload == "serve") return make_serve(a.seed);
  usage("unknown workload '" + a.workload + "'");
}

/// Completed operations per second of wall time over the whole pass.
double throughput(const Pass& pass) {
  return static_cast<double>(pass.latency_ms.size()) / pass.wall_s;
}

void print_metric(const Metric& m) {
  std::printf("metric %-32s %.12g %s\n", m.name.c_str(), m.value,
              m.unit.c_str());
}

int run(const Args& args) {
  const Roofline host = measure_roofline(kThreads);
  std::printf(
      "host cores %d, store %.2f GB/s, load %.2f GB/s, first-touch %.2f "
      "GB/s\n",
      host.cores, host.store_gbps, host.load_gbps, host.first_touch_gbps);

  const std::unique_ptr<Workload> workload = make_workload(args);
  RssSampler rss;
  workload->setup();

  Tracer off{false};
  Tracer on{true};
  std::vector<Metric> metrics;
  Pass pass;
  if (!args.trace) {
    pass = workload->run(args.seconds, off);
    const double peak_mb = rss.stop();
    workload->check(pass, off);
    metrics = {
        {"setup_s", "s", workload->setup_s()},
        {"peak_rss_mb", "MiB", peak_mb},
        {"requests_per_s", "req/s", throughput(pass)},
        {"latency_p50_ms", "ms", quantile(pass.latency_ms, 0.5)},
        {"latency_p90_ms", "ms", quantile(pass.latency_ms, 0.9)},
    };
  } else {
    Pass plain = workload->run(args.seconds / 2, off);
    workload->check(plain, off);
    pass = workload->run(args.seconds / 2, on);
    rss.stop();
    workload->check(pass, on);
    pass.attempted += plain.attempted;
    pass.failed += plain.failed;
    pass.errors.insert(pass.errors.end(), plain.errors.begin(),
                       plain.errors.end());
    ++pass.attempted;
    if (plain.fingerprint != pass.fingerprint) {
      ++pass.failed;
      pass.errors.push_back("fingerprint: traced pass differs from untraced");
    }
    metrics = workload->layer_metrics(pass, on);
    metrics.push_back({"trace.overhead_pct", "%",
                       (throughput(plain) / throughput(pass) - 1.0) * 100.0});
    metrics.push_back({"host.cores", "count", static_cast<double>(host.cores)});
    metrics.push_back({"host.store_gbps", "GB/s", host.store_gbps});
    metrics.push_back({"host.load_gbps", "GB/s", host.load_gbps});
    metrics.push_back(
        {"host.first_touch_gbps", "GB/s", host.first_touch_gbps});
    if (!args.trace_out.empty() && !on.write_chrome(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
      return 2;
    }
  }

  std::printf("fingerprint %016" PRIx64 "\n", pass.fingerprint);
  std::printf("operations %" PRIu64 " attempted, %" PRIu64
              " failed, failed_ratio %.6g (latency samples %zu)\n",
              pass.attempted, pass.failed,
              pass.attempted == 0 ? 0.0
                                  : static_cast<double>(pass.failed) /
                                        static_cast<double>(pass.attempted),
              pass.latency_ms.size());
  std::printf("pass wall time %.6g s\n", pass.wall_s);
  for (const std::string& e : pass.errors)
    std::printf("gate FAILED: %s\n", e.c_str());
  for (const Metric& m : metrics) print_metric(m);

  json::Value out = json::Value::object();
  json::Value values = json::Value::object();
  for (const Metric& m : metrics) {
    json::Value v = json::Value::object();
    v.set("value", json::Value::number(m.value));
    v.set("unit", json::Value::string(m.unit));
    values.set(m.name, std::move(v));
  }
  const bool correct = pass.failed == 0 && pass.attempted > 0;
  out.set("correct", json::Value::boolean(correct));
  out.set("attempted", json::Value::number(pass.attempted));
  out.set("failed", json::Value::number(pass.failed));
  out.set("metrics", std::move(values));
  std::printf("%s\n", out.dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
