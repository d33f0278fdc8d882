#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "fault/fault.hpp"

namespace fleetbench {

namespace {

bool fail(std::string* why, const std::string& text) {
  if (why != nullptr) *why = text;
  return false;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool close(double expected, double actual) {
  const double scale = std::max(std::fabs(expected), 1e-300);
  return std::fabs(expected - actual) <= 1e-12 * scale;
}

}  // namespace

bool same_outputs(const skiptrain::sim::ExperimentResult& a,
                  const skiptrain::sim::ExperimentResult& b,
                  std::string* why) {
  const std::pair<const char*, std::pair<double, double>> scalars[] = {
      {"final_mean_accuracy", {a.final_mean_accuracy, b.final_mean_accuracy}},
      {"final_std_accuracy", {a.final_std_accuracy, b.final_std_accuracy}},
      {"best_mean_accuracy", {a.best_mean_accuracy, b.best_mean_accuracy}},
      {"total_training_wh", {a.total_training_wh, b.total_training_wh}},
      {"total_comm_wh", {a.total_comm_wh, b.total_comm_wh}},
      {"fleet_budget_wh", {a.fleet_budget_wh, b.fleet_budget_wh}},
      {"mean_availability", {a.mean_availability, b.mean_availability}},
      {"harvested_wh", {a.harvested_wh, b.harvested_wh}},
      {"delivery_rate", {a.delivery_rate, b.delivery_rate}},
  };
  for (const auto& [name, values] : scalars) {
    if (!same_bits(values.first, values.second)) return fail(why, name);
  }
  const std::pair<const char*, std::pair<std::size_t, std::size_t>> counts[] =
      {{"coordinated_training_rounds",
        {a.coordinated_training_rounds, b.coordinated_training_rounds}},
       {"down_node_rounds", {a.down_node_rounds, b.down_node_rounds}},
       {"dropped_messages", {a.dropped_messages, b.dropped_messages}},
       {"corrupt_messages", {a.corrupt_messages, b.corrupt_messages}},
       {"duplicated_messages", {a.duplicated_messages, b.duplicated_messages}},
       {"crash_down_rounds", {a.crash_down_rounds, b.crash_down_rounds}},
       {"nodes", {a.nodes, b.nodes}}};
  for (const auto& [name, values] : counts) {
    if (values.first != values.second) return fail(why, name);
  }
  if (a.algorithm != b.algorithm) return fail(why, "algorithm");
  if (a.final_per_node_accuracy.size() != b.final_per_node_accuracy.size() ||
      !std::equal(a.final_per_node_accuracy.begin(),
                  a.final_per_node_accuracy.end(),
                  b.final_per_node_accuracy.begin(), same_bits)) {
    return fail(why, "final_per_node_accuracy");
  }
  const auto& ra = a.recorder.records();
  const auto& rb = b.recorder.records();
  if (ra.size() != rb.size()) return fail(why, "recorder row count");
  for (std::size_t r = 0; r < ra.size(); ++r) {
    const auto& x = ra[r];
    const auto& y = rb[r];
    if (x.round != y.round || x.training_round != y.training_round ||
        x.nodes_trained != y.nodes_trained ||
        !same_bits(x.mean_accuracy, y.mean_accuracy) ||
        !same_bits(x.std_accuracy, y.std_accuracy) ||
        !same_bits(x.mean_loss, y.mean_loss) ||
        !same_bits(x.allreduce_accuracy, y.allreduce_accuracy) ||
        !same_bits(x.train_energy_wh, y.train_energy_wh) ||
        !same_bits(x.comm_energy_wh, y.comm_energy_wh) ||
        !same_bits(x.consensus, y.consensus)) {
      return fail(why, "recorder row " + std::to_string(r));
    }
  }
  return true;
}

bool plausible_outputs(const skiptrain::sim::ExperimentResult& result,
                       const skiptrain::sim::RunOptions& options,
                       std::string* why) {
  const auto unit = [](double v) { return std::isfinite(v) && v >= 0.0 &&
                                          v <= 1.0; };
  if (!unit(result.final_mean_accuracy)) return fail(why, "accuracy range");
  for (double acc : result.final_per_node_accuracy) {
    if (!unit(acc)) return fail(why, "per-node accuracy range");
  }
  if (result.final_per_node_accuracy.size() != result.nodes) {
    return fail(why, "per-node accuracy count");
  }
  if (!(std::isfinite(result.total_training_wh) &&
        result.total_training_wh > 0.0)) {
    return fail(why, "training energy");
  }
  if (!(std::isfinite(result.total_comm_wh) && result.total_comm_wh > 0.0)) {
    return fail(why, "communication energy");
  }
  if (!unit(result.delivery_rate)) return fail(why, "delivery rate range");
  const bool lossy = skiptrain::fault::make_plan(options.faults).link_faults();
  if (!lossy && result.delivery_rate != 1.0) {
    return fail(why, "delivery rate without link faults");
  }
  if (result.recorder.records().empty() ||
      result.recorder.last().round != options.total_rounds) {
    return fail(why, "no recorder row at the final round");
  }
  return true;
}

ReferenceTable load_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference " + path);
  ReferenceTable table;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload;
    std::size_t trial = 0;
    ReferenceRow row;
    if (!(fields >> workload >> trial >> row.final_mean_accuracy >>
          row.total_training_wh >> row.total_comm_wh >> row.delivery_rate)) {
      throw std::runtime_error("malformed reference line: " + line);
    }
    table[{workload, trial}] = row;
  }
  return table;
}

ReferenceRow reference_row(const skiptrain::sim::ExperimentResult& result) {
  return {result.final_mean_accuracy, result.total_training_wh,
          result.total_comm_wh, result.delivery_rate};
}

bool matches_reference(const ReferenceRow& expected,
                       const skiptrain::sim::ExperimentResult& result,
                       std::string* why) {
  const ReferenceRow actual = reference_row(result);
  if (!close(expected.final_mean_accuracy, actual.final_mean_accuracy)) {
    return fail(why, "reference accuracy");
  }
  if (!close(expected.total_training_wh, actual.total_training_wh)) {
    return fail(why, "reference training Wh");
  }
  if (!close(expected.total_comm_wh, actual.total_comm_wh)) {
    return fail(why, "reference communication Wh");
  }
  if (!close(expected.delivery_rate, actual.delivery_rate)) {
    return fail(why, "reference delivery rate");
  }
  return true;
}

std::string format_reference_line(const std::string& workload,
                                  std::size_t trial,
                                  const ReferenceRow& row) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), "%s %zu %.17g %.17g %.17g %.17g",
                workload.c_str(), trial, row.final_mean_accuracy,
                row.total_training_wh, row.total_comm_wh, row.delivery_rate);
  return buffer;
}

}  // namespace fleetbench
