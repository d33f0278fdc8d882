// fleet_bench: the fleet benchmark's executable. See fleetbench/README.md.
//
//   fleet_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--reference <file>] [--out-dir <dir>] [--git-sha <sha>]
//   fleet_bench --workload <name> --seed <n> --write-reference
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A copy of it, with the build and host details, is written to
// <out-dir>/<workload>-seed<n>-trace<t>.json.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "workloads.hpp"

namespace fleetbench {

void RunReport::count(const std::string& failure) {
  ++attempted;
  if (!failure.empty()) {
    ++failed;
    correct = false;
    if (notes.size() < 64) notes.push_back("FAILED: " + failure);
    std::fprintf(stderr, "fleet_bench: check failed: %s\n", failure.c_str());
  }
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string scratch_dir(const Args& args, const std::string& tag) {
  static int counter = 0;
  const std::string dir = args.out_dir + "/work-" + args.workload + "-" +
                          std::to_string(getpid()) + "-" + tag + "-" +
                          std::to_string(counter++);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace fleetbench

namespace {

using fleetbench::Args;
using fleetbench::RunReport;

std::string json_escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string format_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string result_line(const RunReport& report) {
  std::ostringstream out;
  out << "{\"correct\": " << (report.correct ? "true" : "false")
      << ", \"attempted\": " << report.attempted
      << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& metric = report.metrics[i];
    out << (i == 0 ? "" : ", ") << "\"" << metric.name
        << "\": {\"value\": " << format_number(metric.value)
        << ", \"unit\": \"" << metric.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

void write_record(const Args& args, const RunReport& report,
                  const std::string& line) {
  std::filesystem::create_directories(args.out_dir);
  const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0") + ".json";
  std::ofstream out(path);
  out << "{\n  \"workload\": \"" << args.workload << "\",\n"
      << "  \"seed\": " << args.seed << ",\n"
      << "  \"trace\": " << (args.trace ? 1 : 0) << ",\n"
      << "  \"seconds\": " << format_number(args.seconds) << ",\n"
      << "  \"git_sha\": \"" << json_escape(args.git_sha) << "\",\n"
      << "  \"compiler\": \"" << json_escape(FLEETBENCH_COMPILER) << "\",\n"
      << "  \"flags\": \"" << json_escape(FLEETBENCH_FLAGS) << "\",\n"
      << "  \"nproc\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"sweep_threads\": " << report.sweep_threads << ",\n"
      << "  \"pool_threads\": " << report.pool_threads << ",\n"
      << "  \"notes\": [";
  for (std::size_t i = 0; i < report.notes.size(); ++i) {
    out << (i == 0 ? "\n    \"" : ",\n    \"") << json_escape(report.notes[i])
        << "\"";
  }
  out << "\n  ],\n  \"result\": " << line << "\n}\n";
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      const std::string trace = value();
      if (trace != "0" && trace != "1") {
        throw std::invalid_argument("--trace expects 0 or 1");
      }
      args.trace = trace == "1";
    } else if (flag == "--reference") {
      args.reference_path = value();
    } else if (flag == "--out-dir") {
      args.out_dir = value();
    } else if (flag == "--git-sha") {
      args.git_sha = value();
    } else if (flag == "--write-reference") {
      args.write_reference = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed) {
    throw std::invalid_argument("--workload and --seed are required");
  }
  const auto& names = fleetbench::workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    throw std::invalid_argument("unknown workload " + args.workload);
  }
  if (!(args.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.write_reference) {
      for (const std::string& line : fleetbench::write_reference_rows(args)) {
        std::printf("%s\n", line.c_str());
      }
      return 0;
    }
    const RunReport report = args.trace ? fleetbench::run_traced(args)
                                        : fleetbench::run_end_to_end(args);
    const std::string line = result_line(report);
    write_record(args, report, line);
    std::printf("%s\n", line.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet_bench: %s\n", e.what());
    return 1;
  }
}
