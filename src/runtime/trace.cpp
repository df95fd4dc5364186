#include "runtime/trace.h"

#include <fstream>

#include "common/json.h"

namespace hetsim::runtime {

namespace {

constexpr double kMicros = 1e6;

const char* phase_letter(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kComplete:
      return "X";
    case TraceEventKind::kInstant:
      return "i";
    case TraceEventKind::kCounter:
      return "C";
  }
  return "X";
}

}  // namespace

void TraceRecorder::clear() {
  events_.clear();
  lane_names_.clear();
}

void TraceRecorder::name_lane(std::int64_t lane, std::string name) {
  for (auto& [id, existing] : lane_names_) {
    if (id == lane) {
      existing = std::move(name);
      return;
    }
  }
  lane_names_.emplace_back(lane, std::move(name));
}

void TraceRecorder::add_span(std::string name, std::string category,
                             std::int64_t lane, double start_s,
                             double duration_s,
                             std::vector<std::pair<std::string, double>> args) {
  events_.push_back({TraceEventKind::kComplete, std::move(name),
                     std::move(category), lane, start_s, duration_s,
                     std::move(args)});
}

void TraceRecorder::add_instant(
    std::string name, std::string category, std::int64_t lane, double at_s,
    std::vector<std::pair<std::string, double>> args) {
  events_.push_back({TraceEventKind::kInstant, std::move(name),
                     std::move(category), lane, at_s, 0.0, std::move(args)});
}

void TraceRecorder::add_counter(std::string name, std::int64_t lane,
                                double at_s, double value) {
  events_.push_back({TraceEventKind::kCounter, std::move(name), "counter",
                     lane, at_s, 0.0, {{"value", value}}});
}

std::vector<TraceEvent> TraceRecorder::events() const {
  return events_;
}

std::size_t TraceRecorder::count(std::string_view name) const {
  std::size_t n = 0;
  for (const auto& e : events_) n += e.name == name;
  return n;
}

std::string TraceRecorder::chrome_trace_json() const {
  common::JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  // Lane-name metadata first, so viewers label the lanes.
  for (const auto& [lane, name] : lane_names_) {
    w.begin_object();
    w.field("name", "thread_name");
    w.field("ph", "M");
    w.field("pid", std::int64_t{0});
    w.field("tid", lane);
    w.key("args");
    w.begin_object();
    w.field("name", name);
    w.end_object();
    w.end_object();
  }
  for (const auto& e : events_) {
    w.begin_object();
    w.field("name", e.name);
    w.field("cat", e.category);
    w.field("ph", phase_letter(e.kind));
    w.field("pid", std::int64_t{0});
    w.field("tid", e.lane);
    w.field("ts", e.start_s * kMicros);
    if (e.kind == TraceEventKind::kComplete) {
      w.field("dur", e.duration_s * kMicros);
    }
    if (e.kind == TraceEventKind::kInstant) w.field("s", "t");
    if (!e.args.empty()) {
      w.key("args");
      w.begin_object();
      for (const auto& [k, v] : e.args) w.field(k, v);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.field("displayTimeUnit", "ms");
  w.end_object();
  return w.str();
}

bool TraceRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  const std::string doc = chrome_trace_json();
  out.write(doc.data(), static_cast<std::streamsize>(doc.size()));
  return static_cast<bool>(out);
}

}  // namespace hetsim::runtime
