#include "trace.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <map>

#include "common/json.h"

namespace perfbench {
namespace {

namespace json = pmbist::common::json;

/// Ids of the spans the current thread has open, innermost last.
thread_local std::vector<std::uint32_t> open_spans;

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t number = next.fetch_add(1);
  return number;
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_{enabled}, origin_{Clock::now()} {}

std::uint32_t Tracer::next_id() {
  std::lock_guard lock{mu_};
  return next_id_++;
}

void Tracer::finish(Span span) {
  std::lock_guard lock{mu_};
  spans_.push_back(std::move(span));
}

Tracer::Scope::Scope(Tracer* tracer, std::string_view name,
                     std::uint32_t request)
    : tracer_{tracer} {
  if (tracer_ == nullptr) return;
  span_.name = std::string{name};
  span_.id = tracer_->next_id();
  span_.parent = open_spans.empty() ? 0 : open_spans.back();
  span_.request = request;
  span_.thread = thread_number();
  open_spans.push_back(span_.id);
  span_.start = Clock::now();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end = Clock::now();
  open_spans.pop_back();
  tracer_->finish(std::move(span_));
}

void Tracer::record(std::string_view name, Clock::time_point start,
                    Clock::time_point end, std::uint32_t request) {
  if (!enabled_) return;
  Span span;
  span.name = std::string{name};
  span.id = next_id();
  span.parent = open_spans.empty() ? 0 : open_spans.back();
  span.request = request;
  span.thread = thread_number();
  span.start = start;
  span.end = end;
  finish(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock{mu_};
  return spans_;
}

double Tracer::total_s(std::string_view name) const {
  double total = 0.0;
  for (const Span& s : spans())
    if (s.name == name) total += seconds_between(s.start, s.end);
  return total;
}

std::size_t Tracer::count(std::string_view name) const {
  std::size_t n = 0;
  for (const Span& s : spans())
    if (s.name == name) ++n;
  return n;
}

double Tracer::self_s(std::string_view name) const {
  const std::vector<Span> all = spans();
  std::map<std::uint32_t, std::vector<const Span*>> children;
  for (const Span& s : all)
    if (s.parent != 0) children[s.parent].push_back(&s);

  double total = 0.0;
  for (const Span& s : all) {
    if (s.name != name) continue;
    double covered = 0.0;
    if (const auto it = children.find(s.id); it != children.end()) {
      // Union of the children's intervals, clipped to the parent.
      std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
      for (const Span* c : it->second)
        iv.emplace_back(std::max(c->start, s.start), std::min(c->end, s.end));
      std::sort(iv.begin(), iv.end());
      Clock::time_point reach = s.start;
      for (const auto& [a, b] : iv) {
        const Clock::time_point from = std::max(a, reach);
        if (b > from) {
          covered += seconds_between(from, b);
          reach = b;
        }
      }
    }
    total += seconds_between(s.start, s.end) - covered;
  }
  return total;
}

bool Tracer::write_chrome(const std::string& path) const {
  json::Value events = json::Value::array();
  for (const Span& s : spans()) {
    const auto us = [this](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin_).count();
    };
    json::Value e = json::Value::object();
    e.set("name", json::Value::string(s.name));
    e.set("ph", json::Value::string("X"));
    e.set("ts", json::Value::number(us(s.start)));
    e.set("dur", json::Value::number(us(s.end) - us(s.start)));
    e.set("pid", json::Value::number(std::int64_t{1}));
    e.set("tid", json::Value::number(std::uint64_t{s.thread}));
    json::Value args = json::Value::object();
    args.set("id", json::Value::number(std::uint64_t{s.id}));
    args.set("parent", json::Value::number(std::uint64_t{s.parent}));
    args.set("request", json::Value::number(std::uint64_t{s.request}));
    e.set("args", std::move(args));
    events.push(std::move(e));
  }
  json::Value doc = json::Value::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", json::Value::string("ms"));
  std::ofstream out{path, std::ios::trunc};
  out << doc.dump() << '\n';
  return static_cast<bool>(out);
}

}  // namespace perfbench
