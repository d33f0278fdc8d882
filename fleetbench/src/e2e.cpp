// End-to-end run: the workload's sweep through sweep::SweepRunner ->
// sim::run_experiment, tracing off, repeated for the requested seconds
// after an in-process warm-up. One operation is one trial; every trial's
// outputs are checked.
#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>

#include "bench.hpp"
#include "checks.hpp"
#include "obs/stopwatch.hpp"
#include "sweep/runner.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace fleetbench {

namespace sweep = skiptrain::sweep;

namespace {

/// Warm-up runs at least one repetition and at least this long, so caches,
/// page tables and the clock governor settle before timing starts.
constexpr double kWarmupSeconds = 2.0;
/// Timed repetitions run for the requested seconds and at least this many.
constexpr std::size_t kMinTimedReps = 3;

struct LegTiming {
  double wall_s = 0.0;
  double setup_s = 0.0;  // slowest trial's set-up: start to its first round
  std::uint64_t node_rounds = 0;
};

LegTiming time_leg(const sweep::SweepReport& report) {
  LegTiming timing;
  timing.wall_s = report.wall_seconds;
  for (const sweep::TrialResult& trial : report.trials) {
    if (!trial.ok()) continue;
    const auto& telemetry = trial.result.telemetry;
    timing.setup_s = std::max(
        timing.setup_s,
        telemetry.phases.seconds[static_cast<std::size_t>(
            skiptrain::obs::Phase::kSetup)]);
    timing.node_rounds += trial.result.nodes * telemetry.rounds;
  }
  return timing;
}

/// Checks every leg-A trial of one repetition; records one operation per
/// trial. `baseline` holds the first repetition's outputs, against which
/// later repetitions must be bit-identical.
void check_uninterrupted(const sweep::SweepReport& report,
                         const Workload& workload,
                         const ReferenceTable* reference,
                         std::map<std::size_t, skiptrain::sim::ExperimentResult>&
                             baseline,
                         RunReport& run) {
  for (const sweep::TrialResult& trial : report.trials) {
    const std::string tag =
        workload.name + " trial " + std::to_string(trial.spec.index) + ": ";
    std::string why;
    if (!trial.ok()) {
      run.count(tag + "status failed: " + trial.error);
      continue;
    }
    if (!plausible_outputs(trial.result, trial.spec.options, &why)) {
      run.count(tag + why);
      continue;
    }
    if (trial.result.telemetry.rounds != trial.spec.options.total_rounds) {
      run.count(tag + "rounds executed != total rounds");
      continue;
    }
    if (reference != nullptr) {
      const auto it = reference->find({workload.name, trial.spec.index});
      if (it == reference->end()) {
        run.count(tag + "no reference row");
        continue;
      }
      if (!matches_reference(it->second, trial.result, &why)) {
        run.count(tag + why);
        continue;
      }
    }
    const auto [it, inserted] =
        baseline.try_emplace(trial.spec.index, trial.result);
    if (!inserted && !same_outputs(it->second, trial.result, &why)) {
      run.count(tag + "differs from the first repetition: " + why);
      continue;
    }
    run.count("");
  }
}

/// Checks the resume leg: each trial restarted from its newest in-flight
/// image, ran only the rounds after it, and ended bit-identical to its
/// uninterrupted run.
void check_resumed(const sweep::SweepReport& resumed,
                   const sweep::SweepReport& uninterrupted,
                   const Workload& workload, RunReport& run) {
  for (std::size_t i = 0; i < resumed.trials.size(); ++i) {
    const sweep::TrialResult& trial = resumed.trials[i];
    const std::string tag = workload.name + " resumed trial " +
                            std::to_string(trial.spec.index) + ": ";
    std::string why;
    const std::size_t total = trial.spec.options.total_rounds;
    if (!trial.ok()) {
      run.count(tag + "status failed: " + trial.error);
    } else if (trial.result.telemetry.rounds !=
               total - newest_image_round(total)) {
      run.count(tag + "did not resume from its newest image");
    } else if (i >= uninterrupted.trials.size() ||
               !uninterrupted.trials[i].ok() ||
               !same_outputs(uninterrupted.trials[i].result, trial.result,
                             &why)) {
      run.count(tag + "differs from the uninterrupted run: " + why);
    } else {
      run.count("");
    }
  }
}

struct Repetition {
  double setup_s = 0.0;
  double node_rounds_per_s = 0.0;
};

}  // namespace

RunReport run_end_to_end(const Args& args) {
  const Workload workload = make_workload(args.workload, args.seed);
  std::optional<ReferenceTable> reference;
  if (args.seed == kDefaultSeed) {
    reference = load_reference(args.reference_path);
  }
  RunReport run;
  run.sweep_threads = workload.sweep_threads;
  run.pool_threads = skiptrain::util::ThreadPool::global().size();
  std::map<std::size_t, skiptrain::sim::ExperimentResult> baseline;
  sweep::SweepOptions sweep_options;
  sweep_options.threads = workload.sweep_threads;

  const auto repetition = [&]() -> Repetition {
    // A fresh runner per repetition: its dataset cache starts empty, so
    // every repetition pays dataset synthesis in its set-up.
    std::string dir;
    sweep::SweepGrid grid = workload.grid;
    if (workload.checkpointed) {
      dir = scratch_dir(args, "e2e");
      grid = checkpointed_grid(workload.grid, dir, /*resume=*/false);
    }
    const sweep::SweepReport uninterrupted =
        sweep::SweepRunner(sweep_options).run(grid);
    check_uninterrupted(uninterrupted, workload,
                        reference ? &*reference : nullptr, baseline, run);
    const LegTiming first = time_leg(uninterrupted);
    double rounds_s = first.wall_s - first.setup_s;
    std::uint64_t node_rounds = first.node_rounds;
    if (workload.checkpointed) {
      const sweep::SweepReport resumed = sweep::SweepRunner(sweep_options)
          .run(checkpointed_grid(workload.grid, dir, /*resume=*/true));
      check_resumed(resumed, uninterrupted, workload, run);
      const LegTiming second = time_leg(resumed);
      rounds_s += second.wall_s - second.setup_s;
      node_rounds += second.node_rounds;
      std::filesystem::remove_all(dir);
    }
    return {first.setup_s,
            static_cast<double>(node_rounds) / std::max(rounds_s, 1e-9)};
  };

  const skiptrain::obs::StopWatch warmup;
  std::size_t warmup_reps = 0;
  do {
    (void)repetition();
    ++warmup_reps;
  } while (warmup.seconds() < kWarmupSeconds);

  std::vector<double> setup;
  std::vector<double> throughput;
  const skiptrain::obs::StopWatch timed;
  while (setup.size() < kMinTimedReps || timed.seconds() < args.seconds) {
    const Repetition rep = repetition();
    setup.push_back(rep.setup_s);
    throughput.push_back(rep.node_rounds_per_s);
  }

  run.add("setup_s", median(setup), "s");
  run.add("node_rounds_per_s", median(throughput), "1/s");
  run.add("peak_rss_mb", peak_rss_mib(), "MiB");
  run.notes.push_back("warm-up repetitions: " + std::to_string(warmup_reps));
  run.notes.push_back("timed repetitions: " + std::to_string(setup.size()));
  std::string reps = "node_rounds_per_s by repetition:";
  for (double v : throughput) reps += " " + std::to_string(v);
  run.notes.push_back(reps);
  run.notes.push_back("node_rounds_per_s p25/p75: " +
                      std::to_string(quantile(throughput, 0.25)) + " / " +
                      std::to_string(quantile(throughput, 0.75)));
  return run;
}

std::vector<std::string> write_reference_rows(const Args& args) {
  const Workload workload = make_workload(args.workload, args.seed);
  sweep::SweepOptions sweep_options;
  sweep_options.threads = workload.sweep_threads;
  std::string dir;
  sweep::SweepGrid grid = workload.grid;
  if (workload.checkpointed) {
    dir = scratch_dir(args, "reference");
    grid = checkpointed_grid(workload.grid, dir, /*resume=*/false);
  }
  const sweep::SweepReport report = sweep::SweepRunner(sweep_options).run(grid);
  if (!dir.empty()) std::filesystem::remove_all(dir);
  std::vector<std::string> lines;
  for (const sweep::TrialResult& trial : report.trials) {
    if (!trial.ok()) {
      throw std::runtime_error("trial " + std::to_string(trial.spec.index) +
                               " failed: " + trial.error);
    }
    lines.push_back(format_reference_line(workload.name, trial.spec.index,
                                          reference_row(trial.result)));
  }
  return lines;
}

}  // namespace fleetbench
