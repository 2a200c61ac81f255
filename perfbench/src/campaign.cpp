// `campaign`: the fault-simulation coverage matrix.  All 17 library
// algorithms x all 12 fault classes, 1024 instances per class, on a
// 4096 x 1-bit memory, packed kernel, through march::expand +
// march::CampaignRunner::run.  One operation is one algorithm's row (the
// work of `pmbist coverage <alg> --jobs 1`).  kRowsInFlight benchmark
// threads each run whole rows with jobs=1; a pass runs whole matrices so
// every pass sees the same mix of rows.

#include <algorithm>
#include <chrono>
#include <mutex>
#include <optional>
#include <span>
#include <thread>

#include "march/campaign.h"
#include "march/coverage.h"
#include "march/library.h"
#include "memsim/fault_model.h"
#include "perfbench.h"

namespace perfbench {
namespace {

namespace march = pmbist::march;
namespace memsim = pmbist::memsim;

constexpr int kInstances = 1024;
// One core fewer than the reference host has, so the RSS sampler, the
// set-up timer and other processes need not preempt a row.
constexpr int kRowsInFlight = kThreads - 1;
constexpr int kLanes = 64;
// Building the universes takes well under a millisecond, and the host's
// speed drifts over seconds: during each pass, a thread on the core the
// rows leave free times one build every kSetupInterval, and setup_s is
// the median of those builds.
constexpr auto kSetupInterval = std::chrono::milliseconds{100};

std::uint64_t hash_records(const march::CampaignResult& r) {
  std::uint64_t h = pmbist::common::kFnvOffset;
  for (const march::DetectionRecord& rec : r.records) {
    h = fold(h, rec.fault_index);
    h = fold(h, rec.detected ? 1 : 0);
    h = fold(h, rec.first_failure_op);
  }
  return h;
}

std::uint64_t memory_ops(const march::OpStream& stream) {
  std::uint64_t n = 0;
  for (const march::MemOp& op : stream)
    if (op.kind != march::MemOp::Kind::Pause) ++n;
  return n;
}

std::uint64_t lane_packs(std::size_t instances) {
  return (instances + kLanes - 1) / kLanes;
}

/// What one row of one matrix produced.
struct Row {
  std::size_t index = 0;  ///< position in the pass: matrix * algorithms + a
  Clock::time_point start;
  Clock::time_point end;
  std::vector<std::uint64_t> hashes;  ///< record hash per class
  /// The records per class, kept only for the first matrix of a process
  /// (the scalar gate re-simulates them).
  std::vector<std::vector<march::DetectionRecord>> records;
  std::uint64_t stream_ops = 0;  ///< memory ops of the expanded stream
};

class Campaign final : public Workload {
 public:
  explicit Campaign(std::uint64_t seed)
      : seed_{seed},
        algorithms_{march::all_algorithms()},
        classes_{memsim::all_fault_classes()},
        runner_{{.jobs = 1, .powerup_seed = seed}} {}

  void setup() override {
    for (memsim::FaultClass cls : classes_)
      universes_.push_back(
          march::make_fault_universe(cls, geometry_, seed_, kInstances));
  }

  double setup_s() const override { return median(setup_times_); }

  Pass run(double seconds, Tracer& tracer) override {
    const std::size_t per_matrix = algorithms_.size();
    std::mutex mu;
    std::size_t next = 0;  // guarded by mu
    bool stopped = false;  // guarded by mu
    std::vector<Row> rows;  // guarded by mu
    const bool keep_records = first_records_.empty();
    const auto start = Clock::now();
    // Rows are claimed in order; once the time is up no new matrix starts,
    // and the threads finish the rows of the current one.
    const auto claim = [&]() -> std::optional<std::size_t> {
      std::lock_guard lock{mu};
      if (!stopped && next % per_matrix == 0 &&
          seconds_between(start, Clock::now()) >= seconds)
        stopped = true;
      if (stopped) return std::nullopt;
      return next++;
    };
    run_threads(kRowsInFlight + 1, [&](int t) {
      if (t == kRowsInFlight) {  // the set-up timer
        while (seconds_between(start, Clock::now()) < seconds) {
          time_setup();
          std::this_thread::sleep_for(kSetupInterval);
        }
        return;
      }
      while (const std::optional<std::size_t> index = claim()) {
        Row row = run_row(*index, keep_records && *index < per_matrix, tracer);
        std::lock_guard lock{mu};
        rows.push_back(std::move(row));
      }
    });
    std::sort(rows.begin(), rows.end(),
              [](const Row& a, const Row& b) { return a.index < b.index; });
    return summarize(rows);
  }

  void check(Pass& pass, Tracer& tracer) override {
    // One lane-pack of every cell, re-simulated by the scalar reference
    // kernel; which pack is seeded.
    if (!scalar_checked_) {
      scalar_checked_ = true;
      const march::CampaignRunner scalar{
          {.jobs = 1,
           .powerup_seed = seed_,
           .kernel = march::CampaignKernel::Scalar}};
      const std::size_t pack = seed_ % (kInstances / kLanes);
      auto s = tracer.span("gate.scalar_kernel");
      std::mutex mu;
      for_each_index(kThreads, static_cast<int>(algorithms_.size()), [&](int i) {
        const auto a = static_cast<std::size_t>(i);
        const march::OpStream stream = march::expand(algorithms_[a], geometry_);
        for (std::size_t c = 0; c < classes_.size(); ++c) {
          const auto& universe = universes_[c];
          const std::size_t lo = std::min(pack * kLanes, universe.size());
          const std::size_t hi = std::min(lo + kLanes, universe.size());
          const std::span<const memsim::Fault> lanes{universe.data() + lo,
                                                      hi - lo};
          const auto ref = scalar.run(stream, geometry_, lanes);
          const auto& packed = first_records_[a][c];
          bool same = ref.records.size() == hi - lo;
          for (std::size_t k = 0; same && k < ref.records.size(); ++k)
            same = ref.records[k].detected == packed[lo + k].detected &&
                   ref.records[k].first_failure_op ==
                       packed[lo + k].first_failure_op;
          if (!same) {
            std::lock_guard lock{mu};
            scalar_failures_.push_back(
                "campaign: packed records of " + algorithms_[a].name() + " x " +
                std::string{memsim::fault_class_name(classes_[c])} +
                " differ from the scalar kernel");
          }
        }
      });
    }
    pass.attempted += 1;
    if (!scalar_failures_.empty()) {
      pass.failed += 1;
      pass.errors.insert(pass.errors.end(), scalar_failures_.begin(),
                         scalar_failures_.end());
    }
  }

  std::vector<Metric> layer_metrics(const Pass& pass,
                                    const Tracer& tracer) override {
    const double rows = static_cast<double>(pass.latency_ms.size());
    const double kernel_s = tracer.self_s("march.kernel");
    return {
        {"fault_ops_per_s", "op/s",
         static_cast<double>(stats_.fault_ops) / pass.wall_s},
        {"march.universe_s", "s", setup_s()},
        {"march.expand_s", "s",
         tracer.self_s("march.expand") /
             static_cast<double>(tracer.count("march.expand"))},
        {"march.kernel_s", "s", kernel_s / rows},
        // Every kernel call runs with jobs=1, so summed span time is
        // kernel thread time.
        {"march.kernel_ns_per_lane_op", "ns",
         kernel_s * 1e9 / static_cast<double>(stats_.lane_ops)},
        {"common.shard_speedup", "x", shard_speedup()},
        {"march.stream_ops", "count", static_cast<double>(stats_.stream_ops)},
        {"march.lane_packs", "count", static_cast<double>(stats_.lane_packs)},
        {"march.detected", "count", static_cast<double>(stats_.detected)},
    };
  }

 private:
  /// Times one build of the 12 fault universes, the same build setup()
  /// made (the universes are a function of the seed), and frees it.
  void time_setup() {
    std::vector<std::vector<memsim::Fault>> universes;
    const auto t0 = Clock::now();
    for (memsim::FaultClass cls : classes_)
      universes.push_back(
          march::make_fault_universe(cls, geometry_, seed_, kInstances));
    setup_times_.push_back(seconds_between(t0, Clock::now()));
  }

  Row run_row(std::size_t index, bool keep_records, Tracer& tracer) const {
    const march::MarchAlgorithm& alg = algorithms_[index % algorithms_.size()];
    Row row;
    row.index = index;
    row.start = Clock::now();
    {
      auto row_span = tracer.span("campaign.row");
      march::OpStream stream;
      {
        auto s = tracer.span("march.expand");
        stream = march::expand(alg, geometry_);
      }
      row.stream_ops = memory_ops(stream);
      for (const auto& universe : universes_) {
        march::CampaignResult result;
        {
          auto s = tracer.span("march.kernel");
          result = runner_.run(stream, geometry_, universe);
        }
        row.hashes.push_back(hash_records(result));
        if (keep_records) row.records.push_back(std::move(result.records));
      }
    }
    row.end = Clock::now();
    return row;
  }

  /// Turns the rows of a pass into its operations, checks every row
  /// against the first matrix this process ran, and counts the work.
  Pass summarize(std::vector<Row>& rows) {
    const std::size_t per_matrix = algorithms_.size();
    Pass pass;
    stats_ = {};
    if (reference_.empty()) {
      for (std::size_t a = 0; a < per_matrix; ++a) {
        reference_.push_back(rows[a].hashes);
        first_records_.push_back(std::move(rows[a].records));
      }
    }
    std::uint64_t fingerprint = pmbist::common::kFnvOffset;
    Clock::time_point first = rows.front().start;
    Clock::time_point last = rows.front().end;
    for (const Row& row : rows) {
      const std::size_t a = row.index % per_matrix;
      ++pass.attempted;
      pass.latency_ms.push_back(seconds_between(row.start, row.end) * 1e3);
      if (row.hashes != reference_[a]) {
        ++pass.failed;
        pass.errors.push_back("campaign: records of " + algorithms_[a].name() +
                              " differ between matrices");
      }
      for (std::size_t c = 0; c < classes_.size(); ++c) {
        const std::uint64_t instances = universes_[c].size();
        stats_.fault_ops += row.stream_ops * instances;
        stats_.lane_ops += row.stream_ops * lane_packs(instances);
        if (row.index < per_matrix) {
          fingerprint = fold(fingerprint, row.hashes[c]);
          stats_.stream_ops += row.stream_ops;
          stats_.lane_packs += lane_packs(instances);
          const auto& records = first_records_[a][c];
          stats_.detected += static_cast<std::uint64_t>(std::count_if(
              records.begin(), records.end(),
              [](const auto& r) { return r.detected; }));
        }
      }
      first = std::min(first, row.start);
      last = std::max(last, row.end);
    }
    pass.wall_s = seconds_between(first, last);
    pass.fingerprint = fingerprint;
    return pass;
  }

  /// Kernel time of a fixed subset of cells (the March C and March SS
  /// rows) on one thread over the same cells on kThreads threads, outside
  /// any timed pass.
  double shard_speedup() {
    std::vector<std::pair<march::OpStream, std::size_t>> cells;
    for (const char* name : {"March C", "March SS"}) {
      const march::OpStream stream =
          march::expand(march::by_name(name), geometry_);
      for (std::size_t c = 0; c < universes_.size(); ++c)
        cells.emplace_back(stream, c);
    }
    const auto time_on = [&](int threads) {
      const auto t0 = Clock::now();
      for_each_index(threads, static_cast<int>(cells.size()), [&](int i) {
        const auto& [stream, c] = cells[static_cast<std::size_t>(i)];
        (void)runner_.run(stream, geometry_, universes_[c]);
      });
      return seconds_between(t0, Clock::now());
    };
    return time_on(1) / time_on(kThreads);
  }

  struct Stats {
    std::uint64_t stream_ops = 0;  ///< per matrix: stream ops over every cell
    std::uint64_t lane_packs = 0;  ///< per matrix: lane-packs over every cell
    std::uint64_t detected = 0;    ///< per matrix: detected instances
    std::uint64_t fault_ops = 0;   ///< whole pass: stream ops x instances
    std::uint64_t lane_ops = 0;    ///< whole pass: stream ops x lane-packs
  };

  std::uint64_t seed_;
  const memsim::MemoryGeometry geometry_{
      .address_bits = 12, .word_bits = 1, .num_ports = 1};
  std::vector<march::MarchAlgorithm> algorithms_;
  std::vector<memsim::FaultClass> classes_;
  const march::CampaignRunner runner_;
  std::vector<std::vector<memsim::Fault>> universes_;
  std::vector<double> setup_times_;
  Stats stats_;
  /// Record hashes [algorithm][class] of the first matrix this process ran.
  std::vector<std::vector<std::uint64_t>> reference_;
  /// And its records, for the scalar gate.
  std::vector<std::vector<std::vector<march::DetectionRecord>>> first_records_;
  bool scalar_checked_ = false;
  std::vector<std::string> scalar_failures_;
};

}  // namespace

std::unique_ptr<Workload> make_campaign(std::uint64_t seed) {
  return std::make_unique<Campaign>(seed);
}

}  // namespace perfbench
