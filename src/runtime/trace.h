// Job observability: span recording and Chrome-trace export.
//
// TraceRecorder collects everything the runtime does — phases,
// per-chunk execution slices, checkpoints, straggler detections,
// re-plans, migrations — as timestamped spans in *virtual* time, and
// exports the Chrome trace event format (the JSON array consumed by
// chrome://tracing and Perfetto). Because every timestamp is virtual
// and every append happens in the deterministic scheduler order, two
// runs with the same seed produce byte-identical trace files. The
// recorder holds no lock: only the simulator's driving thread records.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hetsim::runtime {

/// Chrome trace event phases used by the recorder.
enum class TraceEventKind : std::uint8_t {
  kComplete,  // "X": span with start + duration
  kInstant,   // "i": point event
  kCounter,   // "C": time series sample
};

struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kComplete;
  std::string name;
  std::string category;
  /// Chrome "thread" lane. Node ids map to their own lanes; the
  /// runtime/coordinator gets a dedicated lane (see kRuntimeLane).
  std::int64_t lane = 0;
  double start_s = 0.0;
  double duration_s = 0.0;                              // kComplete only
  std::vector<std::pair<std::string, double>> args;     // numeric args
};

class TraceRecorder {
 public:
  /// Lane used for coordinator-side events (phase spans, re-plans).
  static constexpr std::int64_t kRuntimeLane = -1;

  /// Human-readable lane names, exported as thread_name metadata.
  void name_lane(std::int64_t lane, std::string name);

  /// Drop all events and lane names (reused across jobs).
  void clear();

  void add_span(std::string name, std::string category, std::int64_t lane,
                double start_s, double duration_s,
                std::vector<std::pair<std::string, double>> args = {});
  void add_instant(std::string name, std::string category, std::int64_t lane,
                   double at_s,
                   std::vector<std::pair<std::string, double>> args = {});
  void add_counter(std::string name, std::int64_t lane, double at_s,
                   double value);

  /// Snapshot (a copy) of all recorded events; prefer calling it after
  /// the run.
  [[nodiscard]] std::vector<TraceEvent> events() const;
  /// Number of events of a given name (test/bench helper).
  [[nodiscard]] std::size_t count(std::string_view name) const;

  /// The full Chrome trace document: {"traceEvents": [...]} with
  /// microsecond virtual timestamps and lane-name metadata.
  [[nodiscard]] std::string chrome_trace_json() const;

  /// Write chrome_trace_json() to `path`; returns false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::vector<TraceEvent> events_;
  std::vector<std::pair<std::int64_t, std::string>> lane_names_;
};

}  // namespace hetsim::runtime
