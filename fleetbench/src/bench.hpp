// Shared declarations of the fleet_bench executable: command-line
// arguments, the run report both modes produce, and small statistics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fleetbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string reference_path;  // committed reference rows (default seed)
  std::string out_dir = ".bench_out";
  std::string git_sha = "unknown";
  bool write_reference = false;  // print reference rows instead of a run
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  std::size_t attempted = 0;  // trials attempted
  std::size_t failed = 0;     // trials not ok or failing an output check
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // human-readable lines for the record
  std::size_t sweep_threads = 0;
  std::size_t pool_threads = 0;

  /// Counts one attempted trial; a non-empty `failure` marks it failed
  /// and is kept as a note.
  void count(const std::string& failure);
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

[[nodiscard]] RunReport run_end_to_end(const Args& args);
[[nodiscard]] RunReport run_traced(const Args& args);
[[nodiscard]] std::vector<std::string> write_reference_rows(const Args& args);

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank quantile, q in (0, 1].
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double peak_rss_mib();

/// A fresh directory under `out_dir` for checkpoint images, unique to
/// this process and `tag`. Removed by the caller.
[[nodiscard]] std::string scratch_dir(const Args& args,
                                      const std::string& tag);

}  // namespace fleetbench
