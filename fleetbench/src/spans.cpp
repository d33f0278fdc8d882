#include "spans.hpp"

#include <cstring>

#include "obs/stopwatch.hpp"

namespace fleetbench {

namespace {

bool g_enabled = false;
std::vector<SpanRecord> g_records;

}  // namespace

void SpanLog::set_enabled(bool on) { g_enabled = on; }
bool SpanLog::enabled() { return g_enabled; }

void SpanLog::clear() { g_records.clear(); }

std::vector<double> SpanLog::durations_ms(const char* name) {
  std::vector<double> out;
  for (const SpanRecord& record : g_records) {
    if (std::strcmp(record.name, name) == 0) out.push_back(record.ms());
  }
  return out;
}

double SpanLog::total_seconds(const char* name) {
  double total = 0.0;
  for (double ms : durations_ms(name)) total += ms * 1e-3;
  return total;
}

std::int64_t SpanLog::open(const char* name) {
  g_records.push_back({name, 0, 0});
  g_records.back().start_ns = skiptrain::obs::now_ns();
  return static_cast<std::int64_t>(g_records.size() - 1);
}

void SpanLog::close(std::int64_t index) {
  g_records[static_cast<std::size_t>(index)].end_ns = skiptrain::obs::now_ns();
}

}  // namespace fleetbench
