// The benchmark's own span recorder.
//
// A Span wraps one call into a layer's public function from benchmark
// code. While the log is enabled it records {name, start, end} in memory
// (read back when the run ends) and also feeds the program's Chrome-trace
// tracer when that is active, so benchmark spans and the program's own
// spans land in one trace file, nested by time. While the log is disabled a
// Span costs one branch, which is what the untraced passes pay.
//
// Spans are recorded only on the thread that drives a trial; the log is
// not synchronised.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/trace.hpp"

namespace fleetbench {

struct SpanRecord {
  const char* name = nullptr;  // string literal
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  [[nodiscard]] double ms() const {
    return static_cast<double>(end_ns - start_ns) * 1e-6;
  }
};

class SpanLog {
 public:
  static void set_enabled(bool on);
  [[nodiscard]] static bool enabled();
  static void clear();

  /// Durations in milliseconds of every recorded span named `name`.
  [[nodiscard]] static std::vector<double> durations_ms(const char* name);

  /// Sum of the durations in seconds of every span named `name`.
  [[nodiscard]] static double total_seconds(const char* name);

 private:
  friend class Span;
  static std::int64_t open(const char* name);
  static void close(std::int64_t index);
};

class Span {
 public:
  explicit Span(const char* name)
      : index_(SpanLog::enabled() ? SpanLog::open(name) : -1), scope_(name) {}
  ~Span() {
    if (index_ >= 0) SpanLog::close(index_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t index_;
  skiptrain::obs::SpanScope scope_;
};

}  // namespace fleetbench
