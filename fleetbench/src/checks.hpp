// Output checks shared by the end-to-end run, the traced run and the
// tests. A trial whose status is not ok or whose output fails a check
// counts as a failed operation; simulated link drops and crashes are
// results of the simulation, not failures.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/runner.hpp"

namespace fleetbench {

/// True when every simulation output of `a` and `b` is bit-identical:
/// summary scalars, fault and scenario tallies, per-node accuracies and
/// every recorder row. Runtime telemetry is not compared. On a mismatch
/// `why` names the first differing field.
[[nodiscard]] bool same_outputs(const skiptrain::sim::ExperimentResult& a,
                                const skiptrain::sim::ExperimentResult& b,
                                std::string* why = nullptr);

/// Range checks any seed must pass: accuracies in [0, 1], energies finite
/// and positive, delivery rate in [0, 1] and exactly 1 without link
/// faults, a recorder row at the final round.
[[nodiscard]] bool plausible_outputs(
    const skiptrain::sim::ExperimentResult& result,
    const skiptrain::sim::RunOptions& options, std::string* why = nullptr);

/// One trial's summary row as stored in the reference file.
struct ReferenceRow {
  double final_mean_accuracy = 0.0;
  double total_training_wh = 0.0;
  double total_comm_wh = 0.0;
  double delivery_rate = 0.0;
};

/// Reference rows keyed by (workload, trial index). Lines are
/// `<workload> <trial> <accuracy> <train_wh> <comm_wh> <delivery_rate>`;
/// '#' starts a comment. Throws std::runtime_error when unreadable.
using ReferenceTable = std::map<std::pair<std::string, std::size_t>,
                                ReferenceRow>;
[[nodiscard]] ReferenceTable load_reference(const std::string& path);

[[nodiscard]] ReferenceRow reference_row(
    const skiptrain::sim::ExperimentResult& result);

/// Reference rows are written with 17 significant digits; the match is
/// relative to 1e-12.
[[nodiscard]] bool matches_reference(const ReferenceRow& expected,
                                     const skiptrain::sim::ExperimentResult&
                                         result,
                                     std::string* why = nullptr);

[[nodiscard]] std::string format_reference_line(const std::string& workload,
                                                std::size_t trial,
                                                const ReferenceRow& row);

}  // namespace fleetbench
