// `serve`: the resident service as a closed loop.  One generator thread
// keeps 4 requests in flight against an in-process serve::Server with 2
// session workers, through post().  A closed loop fits because
// `pmbist submit` waits for each reply.  Each block of 64 requests holds:
//
//   40 campaign  addr_bits 10, 64 samples, jobs 1; 20 name library
//                algorithms (shared expanded streams), 20 are seeded
//                unique DSL variants (stream-cache misses)
//   12 lint      10 repeat march inputs (verdict-cache hits), 2 chip +
//                certify inputs with seeded power budgets (misses)
//    8 soc       the demo chip with seeded power budgets
//    1 field     the demo chip with the demo profile
//    3 memtest   4 MiB, 1 background
//
// Every payload is checked byte-identical to the one-shot formatter on
// the same inputs after the timed region.

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <set>

#include "backend/memtest.h"
#include "common/hash.h"
#include "common/json.h"
#include "field/manager.h"
#include "field/profile.h"
#include "lint/certify.h"
#include "lint/diagnostics.h"
#include "lint/driver.h"
#include "march/campaign.h"
#include "march/coverage.h"
#include "march/library.h"
#include "march/parser.h"
#include "memsim/fault_model.h"
#include "perfbench.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "soc/chip.h"
#include "soc/description.h"
#include "soc/plan.h"
#include "soc/scheduler.h"

namespace perfbench {
namespace {

namespace json = pmbist::common::json;
namespace march = pmbist::march;
namespace memsim = pmbist::memsim;
namespace serve = pmbist::serve;
namespace soc = pmbist::soc;
namespace field = pmbist::field;
namespace lint = pmbist::lint;
namespace backend = pmbist::backend;

constexpr int kInFlight = 4;
constexpr int kSessions = 2;
constexpr int kBlock = 64;
constexpr int kAddrBits = 10;
constexpr int kSamples = 64;
constexpr int kSetupRepeats = 5;
/// Requests whose payloads enter the fingerprint; every pass completes
/// more than this many.
constexpr std::size_t kFingerprinted = 256;
constexpr const char* kKinds[] = {"campaign", "lint", "soc", "field",
                                  "memtest"};
constexpr const char* kLintMarch[] = {"March C", "MATS+", "March X",
                                      "March Y", "March SS"};

enum Slot : std::uint8_t {
  kLibraryCampaign, kUniqueCampaign, kLintRepeat, kLintCertify, kSoc,
  kField, kMemtest
};

/// The 64-slot mix of one block.  Each kind is spread evenly over the
/// block, the same way in every block and for every seed, so the queueing
/// pattern (a 300 ms field request among short ones) does not vary
/// between runs; the seed varies the requests' contents.
std::vector<Slot> block_mix() {
  const std::pair<Slot, int> counts[] = {
      {kLibraryCampaign, 20}, {kUniqueCampaign, 20}, {kLintRepeat, 10},
      {kLintCertify, 2},      {kSoc, 8},             {kField, 1},
      {kMemtest, 3}};
  std::vector<std::pair<double, Slot>> placed;
  for (const auto& [slot, n] : counts)
    for (int j = 0; j < n; ++j)
      placed.emplace_back((j + 0.5) / n + 1e-3 * static_cast<int>(slot), slot);
  std::sort(placed.begin(), placed.end());
  std::vector<Slot> mix;
  for (const auto& [pos, slot] : placed) mix.push_back(slot);
  return mix;
}

struct Request {
  int kind = 0;      ///< index into kKinds
  std::string body;  ///< request JSON without the id: the memo key
};

struct Expected {
  int exit_code = 0;
  std::string payload;
  double direct_s = 0.0;  ///< one-shot engine call, parse to format
  bool traced = false;    ///< computed with tracing on
};

struct Completion {
  Clock::time_point posted;
  Clock::time_point done;
  std::string event;  ///< the terminal event line
};

double ms(double s) { return s * 1e3; }

class Serve final : public Workload {
 public:
  explicit Serve(std::uint64_t seed)
      : seed_{seed},
        chip_text_{soc::to_chip_text(soc::demo_soc(), soc::demo_plan())},
        profile_text_{field::to_profile_text(field::demo_profile())} {
    for (const auto& alg : march::all_algorithms())
      library_.push_back(alg.name());
  }

  void setup() override { time_setups(); }

  double setup_s() const override { return median(setup_times_); }

  Pass run(double seconds, Tracer&) override {
    Generator gen{*this};
    serve::Server server{{.sessions = kSessions}};
    warm_up(server);
    const serve::Server::Stats before = server.stats();

    std::mutex mu;
    std::condition_variable cv;
    int in_flight = 0;  // guarded by mu
    std::deque<Completion> done;  // stable addresses for the sinks
    std::vector<Request> requests;

    const auto start = Clock::now();
    while (seconds_between(start, Clock::now()) < seconds) {
      {
        std::unique_lock lock{mu};
        cv.wait(lock, [&] { return in_flight < kInFlight; });
        ++in_flight;
      }
      const std::size_t index = requests.size();
      requests.push_back(gen.next());
      done.emplace_back();
      const std::string line = "{\"id\":\"r" + std::to_string(index) + "\"," +
                               requests.back().body.substr(1);
      // The sink runs on a session worker (or inside post() for a parse
      // error).  It keeps the raw terminal line; payloads are decoded
      // after the timed region.
      Completion* slot = &done[index];
      slot->posted = Clock::now();
      server.post(line, [&, slot](const std::string& event) {
        if (event.starts_with("{\"event\":\"accepted\"") ||
            event.starts_with("{\"event\":\"progress\""))
          return;
        slot->done = Clock::now();
        slot->event = event;
        // Notify under the lock: once in_flight reaches 0 the generator may
        // return and destroy cv.
        std::lock_guard lock{mu};
        --in_flight;
        cv.notify_one();
      });
    }
    {
      std::unique_lock lock{mu};
      cv.wait(lock, [&] { return in_flight == 0; });
    }

    Pass pass;
    Clock::time_point last = start;
    for (const Completion& c : done) last = std::max(last, c.done);
    pass.wall_s = seconds_between(start, last);
    const serve::Server::Stats after = server.stats();
    stream_hits_ = after.streams.hits - before.streams.hits;
    stream_misses_ = after.streams.misses - before.streams.misses;
    stream_evictions_ = after.streams.evictions - before.streams.evictions;
    lint_hits_ = after.lints.hits - before.lints.hits;
    lint_misses_ = after.lints.misses - before.lints.misses;

    requests_ = std::move(requests);
    done_ = std::move(done);
    return pass;
  }

  void check(Pass& pass, Tracer& tracer) override {
    time_setups();
    const std::vector<Request>& requests = requests_;
    const std::deque<Completion>& done = done_;
    for (auto& v : kind_latency_) v.clear();
    for (auto& v : direct_s_) v.clear();
    pass.fingerprint = pmbist::common::kFnvOffset;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      ++pass.attempted;
      const Request& req = requests[i];
      const Expected& want = expected(req, tracer);
      std::string why = "no result event";
      try {
        const json::Value doc = json::Value::parse(done[i].event);
        const json::Value* kind = doc.find("event");
        if (kind != nullptr && kind->as_string() == "result") {
          const std::string& payload = doc.find("payload")->as_string();
          const auto exit_code = doc.find("exit")->as_i64();
          why = payload != want.payload || exit_code != want.exit_code
                    ? "payload differs from the one-shot formatter"
                    : "";
          if (i < kFingerprinted)
            pass.fingerprint = fold(pass.fingerprint,
                                    pmbist::common::fnv1a64(payload));
        }
      } catch (const json::JsonError&) {
        why = "malformed event";
      }
      if (!why.empty()) {
        ++pass.failed;
        pass.errors.push_back("serve: r" + std::to_string(i) + " (" +
                              kKinds[req.kind] + "): " + why);
        continue;
      }
      const double lat = ms(seconds_between(done[i].posted, done[i].done));
      pass.latency_ms.push_back(lat);
      kind_latency_[req.kind].push_back(lat);
      tracer.record(std::string{"serve."} + kKinds[req.kind], done[i].posted,
                    done[i].done, static_cast<std::uint32_t>(i + 1));
    }
    if (requests.size() < kFingerprinted) {
      ++pass.failed;
      pass.errors.push_back("serve: fewer than 256 requests completed");
    }

    if (tracer.enabled()) {
      const auto t0 = Clock::now();
      for (const Request& req : requests)
        (void)serve::parse_request("{\"id\":\"x\"," + req.body.substr(1));
      parse_us_ = seconds_between(t0, Clock::now()) * 1e6 /
                  static_cast<double>(requests.size());
    }
  }

  std::vector<Metric> layer_metrics(const Pass& pass,
                                    const Tracer& tracer) override {
    std::vector<Metric> out;
    const auto ratio = [](std::uint64_t hits, std::uint64_t misses) {
      return hits + misses == 0
                 ? 0.0
                 : static_cast<double>(hits) / static_cast<double>(hits + misses);
    };
    out.push_back({"serve.parse_us", "us", parse_us_});
    for (int k = 0; k < 5; ++k) {
      const std::string prefix = std::string{"serve."} + kKinds[k];
      const double p50 = quantile(kind_latency_[k], 0.5);
      out.push_back({prefix + ".p50_ms", "ms", p50});
      out.push_back({prefix + ".p90_ms", "ms", quantile(kind_latency_[k], 0.9)});
      out.push_back({prefix + ".count", "count",
                     static_cast<double>(kind_latency_[k].size())});
      out.push_back({prefix + ".overhead_ms", "ms",
                     p50 - ms(median(direct_s_[k]))});
    }
    out.push_back({"serve.p99_ms", "ms", quantile(pass.latency_ms, 0.99)});
    out.push_back({"serve.stream_hit_ratio", "ratio",
                   ratio(stream_hits_, stream_misses_)});
    out.push_back({"serve.stream_evictions", "count",
                   static_cast<double>(stream_evictions_)});
    out.push_back(
        {"serve.lint_hit_ratio", "ratio", ratio(lint_hits_, lint_misses_)});

    const auto mean_ms = [&](const char* name) {
      const std::size_t n = tracer.count(name);
      return n == 0 ? 0.0 : ms(tracer.total_s(name)) / static_cast<double>(n);
    };
    const auto [cold, warm] = row_cold_warm();
    out.push_back({"march.row_cold_ms", "ms", cold});
    out.push_back({"march.row_warm_ms", "ms", warm});
    out.push_back({"march.universe_s", "s", universe_s()});
    out.push_back({"march.expand_s", "s", mean_ms("march.expand") / 1e3});
    for (const char* name :
         {"soc.parse", "soc.run", "soc.format", "field.parse", "field.run",
          "field.format", "lint.certify_soc", "lint.certify_field",
          "lint.march", "lint.chip_certify"})
      out.push_back({std::string{name} + "_ms", "ms", mean_ms(name)});
    out.push_back({"soc.makespan_cycles", "count",
                   static_cast<double>(makespan_cycles_)});
    return out;
  }

 private:
  /// Deterministic request stream: request i is a function of the seed
  /// and i alone, so every pass issues the same prefix.
  class Generator {
   public:
    explicit Generator(const Serve& s) : s_{s}, mix_{block_mix()} {
      for (const std::string& name : s_.library_)
        used_.insert(march::by_name(name).to_string());
    }

    Request next() {
      Rng rng{s_.seed_ * 0x9e3779b97f4a7c15ull + index_};
      const Slot slot = mix_[index_ % kBlock];
      ++index_;
      json::Value body = json::Value::object();
      const auto set = [&](const char* key, json::Value v) {
        body.set(key, std::move(v));
      };
      const auto integer = [](std::int64_t v) { return json::Value::number(v); };
      switch (slot) {
        case kLibraryCampaign:
        case kUniqueCampaign: {
          const std::string& base =
              s_.library_[(campaigns_++ + s_.seed_) % s_.library_.size()];
          set("kind", json::Value::string("campaign"));
          set("algorithm", json::Value::string(
                               slot == kLibraryCampaign ? base
                                                        : variant(base, rng)));
          set("addr_bits", integer(kAddrBits));
          set("samples", integer(kSamples));
          set("seed", json::Value::number(s_.seed_));
          set("jobs", integer(1));
          return {0, body.dump()};
        }
        case kLintRepeat:
          set("kind", json::Value::string("lint"));
          set("input", json::Value::string(kLintMarch[lints_++ % 5]));
          return {1, body.dump()};
        case kLintCertify:
          set("kind", json::Value::string("lint"));
          set("input", json::Value::string(s_.chip_with_budget(budget(rng))));
          set("certify", json::Value::boolean(true));
          return {1, body.dump()};
        case kSoc:
          set("kind", json::Value::string("soc"));
          set("chip", json::Value::string(s_.chip_text_));
          // A small set of budgets: the scheduler's work is the same for
          // each, and the gate's one-shot runs are memoized per budget.
          set("power_budget",
              json::Value::number(static_cast<double>(24 + 8 * rng.below(8))));
          set("jobs", integer(1));
          return {2, body.dump()};
        case kField:
          set("kind", json::Value::string("field"));
          set("chip", json::Value::string(s_.chip_text_));
          set("profile", json::Value::string(s_.profile_text_));
          set("jobs", integer(1));
          return {3, body.dump()};
        case kMemtest:
          set("kind", json::Value::string("memtest"));
          set("algorithm", json::Value::string("March C"));
          set("size_mb", integer(4));
          set("backgrounds", integer(1));
          set("jobs", integer(1));
          return {4, body.dump()};
      }
      throw std::logic_error{"unreachable slot"};
    }

   private:
    /// Budgets above the heaviest single session (23), drawn finely
    /// enough that chip+certify lint inputs miss the verdict cache.
    static double budget(Rng& rng) {
      return 24.0 + static_cast<double>(rng.below(5600)) / 100.0;
    }

    /// A seeded variant of a library algorithm with the same operations
    /// per cell (so its cost matches the base): each element's address
    /// order is redrawn and the data polarity may be complemented.  Short
    /// algorithms have few such variants, so once a draw repeats, a
    /// trailing pause of a growing length (no memory operation) makes the
    /// text new.  The canonical text is unique within the pass, so it
    /// misses the server's stream cache.
    std::string variant(const std::string& base, Rng& rng) {
      const march::MarchAlgorithm alg = march::by_name(base);
      std::vector<march::MarchElement> elements = alg.elements();
      const bool flip = rng.below(2) == 1;
      for (march::MarchElement& el : elements) {
        if (el.is_pause) continue;
        el.order = static_cast<march::AddressOrder>(rng.below(3));
        if (flip)
          for (march::MarchOp& op : el.ops) op.data = !op.data;
      }
      std::string text = march::MarchAlgorithm{"custom", elements}.to_string();
      elements.push_back(march::MarchElement::pause(0));
      for (std::uint64_t ns = 1; used_.contains(text); ++ns) {
        elements.back().pause_ns = ns;
        text = march::MarchAlgorithm{"custom", elements}.to_string();
      }
      // Validated through the same parser the server uses.
      if (const std::string err = march::parse(text).validate(); !err.empty())
        throw std::logic_error{"invalid variant " + text + ": " + err};
      used_.insert(text);
      return text;
    }

    const Serve& s_;
    std::set<std::string> used_;
    std::vector<Slot> mix_;
    std::uint64_t index_ = 0;
    std::uint64_t campaigns_ = 0;
    std::uint64_t lints_ = 0;
  };

  std::string chip_with_budget(double budget) const {
    soc::TestPlan plan = soc::demo_plan();
    plan.set_power_budget(budget);
    return soc::to_chip_text(soc::demo_soc(), plan);
  }

  /// Times kSetupRepeats set-ups: a Server constructed and warmed up.
  /// Called before and again after each pass, so the median spans the
  /// host's drift over the run.
  void time_setups() {
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      const auto t0 = Clock::now();
      serve::Server server{{.sessions = kSessions}};
      warm_up(server);
      setup_times_.push_back(seconds_between(t0, Clock::now()));
    }
  }

  /// One warm-up request per shared input: every library campaign, every
  /// repeated lint input, the field input and the memtest input.
  void warm_up(serve::Server& server) const {
    std::vector<std::string> bodies;
    for (const std::string& name : library_)
      bodies.push_back(
          R"({"kind":"campaign","algorithm":)" + json::quote(name) +
          R"(,"addr_bits":10,"samples":64,"seed":)" + std::to_string(seed_) +
          R"(,"jobs":1})");
    for (const char* input : kLintMarch)
      bodies.push_back(R"({"kind":"lint","input":)" + json::quote(input) + "}");
    bodies.push_back(R"({"kind":"field","chip":)" + json::quote(chip_text_) +
                     R"(,"profile":)" + json::quote(profile_text_) +
                     R"(,"jobs":1})");
    bodies.push_back(
        R"({"kind":"memtest","algorithm":"March C","size_mb":4,"backgrounds":1,"jobs":1})");
    int n = 0;
    for (const std::string& body : bodies)
      (void)server.call("{\"id\":\"warm" + std::to_string(n++) + "\"," +
                        body.substr(1));
  }

  /// The one-shot result for a request body, memoized; the first call per
  /// body times the direct engine path.  A traced pass recomputes bodies
  /// first seen untraced, so its layer spans cover every distinct input.
  const Expected& expected(const Request& req, Tracer& tracer) {
    auto it = expected_.find(req.body);
    if (it == expected_.end() || (tracer.enabled() && !it->second.traced)) {
      const json::Value doc = json::Value::parse(req.body);
      traced_only_s_ = 0.0;
      const auto t0 = Clock::now();
      Expected e = compute(req.kind, doc, tracer);
      e.direct_s = seconds_between(t0, Clock::now()) - traced_only_s_;
      e.traced = tracer.enabled();
      it = expected_.insert_or_assign(req.body, std::move(e)).first;
    }
    direct_s_[req.kind].push_back(it->second.direct_s);
    return it->second;
  }

  /// Runs fn in a span named `name`, only when tracing.  It times a layer
  /// the direct path does not call, so its time is kept out of
  /// Expected::direct_s.
  template <typename Fn>
  void traced_only(Tracer& tracer, const char* name, Fn fn) {
    if (!tracer.enabled()) return;
    const auto t0 = Clock::now();
    {
      auto s = tracer.span(name);
      fn();
    }
    traced_only_s_ += seconds_between(t0, Clock::now());
  }

  Expected compute(int kind, const json::Value& doc, Tracer& tracer) {
    const auto str = [&](const char* key) { return doc.find(key)->as_string(); };
    switch (kind) {
      case 0: {
        const std::string& text = str("algorithm");
        march::MarchAlgorithm alg;
        try {
          alg = march::by_name(text);
        } catch (const std::out_of_range&) {
          alg = march::parse(text, "custom");
        }
        const memsim::MemoryGeometry g{
            .address_bits = kAddrBits, .word_bits = 1, .num_ports = 1};
        const auto& classes = memsim::all_fault_classes();
        traced_only(tracer, "march.expand", [&] { (void)march::expand(alg, g); });
        const std::vector<march::MarchAlgorithm> algs{alg};
        const auto rows = march::coverage_matrix(
            algs, classes, g,
            {.seed = seed_, .max_instances_per_class = kSamples, .jobs = 1});
        return {0, march::format_coverage_table(rows, classes)};
      }
      case 1: {
        const bool certify = doc.find("certify") != nullptr;
        auto s = tracer.span(certify ? "lint.chip_certify" : "lint.march");
        lint::LintOptions opts;
        opts.certify = certify;
        const lint::Report report = lint::lint_text(str("input"), "input", opts);
        return {report.has_errors() ? 1 : 0,
                lint::format_cli(report, "input", false)};
      }
      case 2: {
        soc::ChipFile chip = [&] {
          auto s = tracer.span("soc.parse");
          return soc::parse_chip(str("chip"));
        }();
        chip.plan.set_power_budget(doc.find("power_budget")->as_double());
        const soc::SocResult result = [&] {
          auto s = tracer.span("soc.run");
          return soc::run_soc(chip.description, chip.plan, {.jobs = 1});
        }();
        if (makespan_cycles_ == 0) makespan_cycles_ = result.makespan_cycles;
        traced_only(tracer, "lint.certify_soc", [&] {
          (void)lint::certify_soc(chip.description, chip.plan, result.schedule);
        });
        auto s = tracer.span("soc.format");
        return {result.all_healthy() ? 0 : 1,
                soc::format_soc_report(chip.description, chip.plan, result)};
      }
      case 3: {
        auto [chip, profile] = [&] {
          auto s = tracer.span("field.parse");
          return std::make_pair(soc::parse_chip(str("chip")),
                                field::parse_profile_text(str("profile")));
        }();
        const field::FieldReport report = [&] {
          auto s = tracer.span("field.run");
          return field::run_field(chip.description, chip.plan, profile,
                                  {.jobs = 1});
        }();
        traced_only(tracer, "lint.certify_field", [&] {
          (void)lint::certify_field(chip.description, chip.plan, profile,
                                    report);
        });
        auto s = tracer.span("field.format");
        return {report.all_healthy() ? 0 : 1,
                field::format_field_report(report)};
      }
      default: {
        backend::MemtestOptions opts;
        opts.size_bytes = std::uint64_t{4} << 20;
        opts.backgrounds = 1;
        opts.jobs = 1;
        opts.max_failures = 1024;
        const auto report = backend::run_memtest(march::march_c(), opts);
        return {report.passed() ? 0 : 1, backend::format_memtest_report(report)};
      }
    }
  }

  /// One campaign request's coverage row with an empty, then a warm,
  /// stream cache (median of several).
  std::pair<double, double> row_cold_warm() const {
    const memsim::MemoryGeometry g{
        .address_bits = kAddrBits, .word_bits = 1, .num_ports = 1};
    const march::MarchAlgorithm alg = march::march_c();
    std::vector<double> cold, warm;
    for (int rep = 0; rep < 5; ++rep) {
      march::StreamCache cache;
      const march::CoverageOptions opts{.seed = seed_,
                                        .max_instances_per_class = kSamples,
                                        .jobs = 1,
                                        .cache = &cache};
      for (std::vector<double>* out : {&cold, &warm}) {
        const auto t0 = Clock::now();
        for (memsim::FaultClass cls : memsim::all_fault_classes())
          (void)march::evaluate_coverage(alg, cls, g, opts);
        out->push_back(ms(seconds_between(t0, Clock::now())));
      }
    }
    return {median(cold), median(warm)};
  }

  /// Building one campaign request's 12 fault universes.
  double universe_s() const {
    const memsim::MemoryGeometry g{
        .address_bits = kAddrBits, .word_bits = 1, .num_ports = 1};
    std::vector<double> times;
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = Clock::now();
      for (memsim::FaultClass cls : memsim::all_fault_classes())
        (void)march::make_fault_universe(cls, g, seed_, kSamples);
      times.push_back(seconds_between(t0, Clock::now()));
    }
    return median(times);
  }

  std::uint64_t seed_;
  std::string chip_text_;
  std::string profile_text_;
  std::vector<std::string> library_;
  std::vector<double> setup_times_;
  std::vector<Request> requests_;  ///< the last pass's requests
  std::deque<Completion> done_;    ///< and their terminal events
  std::map<std::string, Expected> expected_;
  std::vector<double> direct_s_[5];
  std::vector<double> kind_latency_[5];
  double parse_us_ = 0.0;
  double traced_only_s_ = 0.0;  ///< of the compute() call in progress
  std::uint64_t stream_hits_ = 0, stream_misses_ = 0, stream_evictions_ = 0;
  std::uint64_t lint_hits_ = 0, lint_misses_ = 0;
  std::uint64_t makespan_cycles_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve(std::uint64_t seed) {
  return std::make_unique<Serve>(seed);
}

}  // namespace perfbench
