#pragma once
// In-memory span recorder for the benchmark's traced runs.
//
// Spans are opened only by the benchmark's own files, around the calls it
// makes into each pmbist layer; nothing inside the libraries is
// instrumented.  A disabled Tracer records nothing, so the untraced runs
// that produce the end-to-end metrics pay one branch per call site.
// Spans are written out once, after the run, as Chrome trace-event JSON.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;   ///< 0 = no parent
  std::uint32_t request = 0;  ///< 0 = not tied to one request
  std::uint32_t thread = 0;   ///< recorder-assigned thread number
};

class Tracer {
 public:
  explicit Tracer(bool enabled = false);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// RAII span; its parent is the innermost open span of the same thread.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view name, std::uint32_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    Span span_;
  };

  [[nodiscard]] Scope span(std::string_view name, std::uint32_t request = 0) {
    return Scope{enabled_ ? this : nullptr, name, request};
  }

  /// Records a span whose end was observed on another thread (a serve
  /// request runs from post() to its terminal event).
  void record(std::string_view name, Clock::time_point start,
              Clock::time_point end, std::uint32_t request);

  /// Completed spans, in completion order.
  [[nodiscard]] std::vector<Span> spans() const;

  /// Sum of the durations of every span named `name`, in seconds.
  [[nodiscard]] double total_s(std::string_view name) const;
  /// Sum of self time (duration minus the union of its children's
  /// intervals) of every span named `name`, in seconds.
  [[nodiscard]] double self_s(std::string_view name) const;
  [[nodiscard]] std::size_t count(std::string_view name) const;

  /// Writes the spans as Chrome trace-event JSON ("X" events, µs).
  /// Returns false when the file cannot be written.
  [[nodiscard]] bool write_chrome(const std::string& path) const;

 private:
  std::uint32_t next_id();
  void finish(Span span);

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;  // guards spans_ and next_id_
  std::vector<Span> spans_;
  std::uint32_t next_id_ = 1;
};

}  // namespace perfbench
