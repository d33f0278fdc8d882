#include "driver.hpp"

#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>

#include "ckpt/fleet_image.hpp"
#include "ckpt/io.hpp"
#include "energy/fleet.hpp"
#include "graph/sparse.hpp"
#include "graph/topology.hpp"
#include "metrics/evaluator.hpp"
#include "obs/registry.hpp"
#include "spans.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fleetbench {

namespace sim = skiptrain::sim;
namespace ckpt = skiptrain::ckpt;
namespace core = skiptrain::core;
namespace energy = skiptrain::energy;
namespace graph = skiptrain::graph;
namespace obs = skiptrain::obs;
namespace util = skiptrain::util;

namespace {

std::unique_ptr<core::RoundScheduler> make_scheduler(
    const sim::RunOptions& options, const energy::Fleet& fleet) {
  switch (options.algorithm) {
    case sim::Algorithm::kSkipTrain:
      return std::make_unique<core::SkipTrainScheduler>(options.gamma_train,
                                                        options.gamma_sync);
    case sim::Algorithm::kSkipTrainConstrained: {
      std::vector<std::size_t> budgets(fleet.num_nodes());
      for (std::size_t i = 0; i < fleet.num_nodes(); ++i) {
        budgets[i] = fleet.budget_rounds(i);
      }
      return std::make_unique<core::SkipTrainConstrainedScheduler>(
          options.gamma_train, options.gamma_sync, options.total_rounds,
          std::move(budgets), options.seed);
    }
    default:
      throw std::invalid_argument(
          "drive_trial: only SkipTrain schedulers are driven by hand");
  }
}

struct GemmCounts {
  std::uint64_t calls = 0;
  std::uint64_t macs = 0;
};

GemmCounts read_gemm_counts() {
  const obs::Snapshot snap = obs::snapshot();
  return {snap.counter_value("gemm.calls"), snap.counter_value("gemm.macs")};
}

}  // namespace

void build_mixing(const sim::RunOptions& options, std::size_t n,
                  TrialMixing& out) {
  if (options.algorithm == sim::Algorithm::kDpsgdAllReduce) {
    throw std::invalid_argument("build_mixing: all-reduce is not driven");
  }
  const graph::TopologySpec topo_spec =
      graph::TopologySpec::parse(options.topology);
  out.degrees.assign(n, 0);
  if (topo_spec.kind == graph::TopologySpec::Kind::kDense) {
    util::Rng topo_rng(util::hash_combine(options.seed, 0x70700000ULL));
    const graph::Topology topology =
        graph::make_random_regular(n, options.degree, topo_rng);
    out.dense = graph::MixingMatrix::metropolis_hastings(topology);
    out.ref = out.dense;
    for (std::size_t i = 0; i < n; ++i) out.degrees[i] = topology.degree(i);
  } else if (topo_spec.kind == graph::TopologySpec::Kind::kKRegular) {
    const graph::ImplicitKRegular implicit(
        n, topo_spec.k, util::hash_combine(options.seed, 0x6b726700ULL));
    out.sparse = graph::SparseMixing::metropolis_hastings(implicit);
    out.topology_hash = implicit.config_hash();
    out.ref = out.sparse;
    for (std::size_t i = 0; i < n; ++i) out.degrees[i] = out.sparse.degree(i);
  } else {
    throw std::invalid_argument("build_mixing: csr topologies unsupported");
  }
}

std::uint64_t plane_digest(skiptrain::plane::ConstMatrixView view) {
  const auto flat = view.flat();
  const auto* bytes = reinterpret_cast<const unsigned char*>(flat.data());
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < flat.size_bytes(); ++i) {
    hash = (hash ^ bytes[i]) * 0x100000001b3ULL;
  }
  return hash;
}

DriveOutput drive_trial(const skiptrain::sweep::TrialSpec& spec,
                        const skiptrain::sweep::SharedWorkload& workload,
                        const DriveOptions& drive) {
  const sim::RunOptions& options = spec.options;
  if (options.evaluate_allreduce || options.track_consensus) {
    throw std::invalid_argument(
        "drive_trial: allreduce/consensus evaluation is not driven by hand");
  }
  const skiptrain::data::FederatedData& data = workload.data;
  const skiptrain::nn::Sequential& prototype = workload.prototype;
  std::optional<util::ThreadPool::ScopedForceSerial> serial_scope;
  if (drive.serial_nodes) serial_scope.emplace();

  const std::size_t n = data.num_nodes();
  const std::uint64_t setup_start = obs::now_ns();
  DriveOutput out;
  sim::ExperimentResult& result = out.result;

  // --- Topology & mixing (graph layer) ----------------------------------
  TrialMixing mixing;
  {
    Span span("graph.build");
    build_mixing(options, n, mixing);
  }
  if (drive.on_mixing) drive.on_mixing(mixing);
  std::vector<std::size_t> degrees = mixing.degrees;

  // --- Energy, scheduler, engine (energy/core/sim layers) ----------------
  const energy::Fleet fleet = energy::Fleet::even(n, options.workload)
                                  .with_budget_scale(options.budget_scale);
  const energy::WorkloadSpec& workload_spec =
      energy::workload_spec(options.workload);
  const energy::EnergyAccountant accountant(
      fleet, skiptrain::quant::comm_model_for(options.exchange_codec),
      workload_spec.model_params, std::move(degrees));
  const std::unique_ptr<core::RoundScheduler> scheduler =
      make_scheduler(options, fleet);
  sim::EngineConfig engine_config;
  engine_config.local_steps = options.local_steps;
  engine_config.batch_size = options.batch_size;
  engine_config.learning_rate = options.learning_rate;
  engine_config.seed = options.seed;
  engine_config.sparse_exchange_k = options.sparse_exchange_k;
  engine_config.exchange_codec = options.exchange_codec;
  engine_config.scenario = skiptrain::scenario::make_config(options.scenario);
  engine_config.topology_hash = mixing.topology_hash;
  const skiptrain::fault::FaultPlan fault_plan =
      skiptrain::fault::make_plan(options.faults);
  engine_config.faults = fault_plan;
  const ckpt::IoFaultPolicy io_policy{fault_plan, options.seed};
  const ckpt::IoFaultPolicy* io_faults =
      fault_plan.io_faults() ? &io_policy : nullptr;
  std::optional<sim::RoundEngine> engine_slot;
  const auto build_engine = [&] {
    Span span("sim.engine_build");
    engine_slot.emplace(prototype, data, mixing.ref, *scheduler, accountant,
                        engine_config);
  };
  build_engine();
  obs::note_phase(result.telemetry.phases, obs::Phase::kSetup, setup_start);

  // --- Resume: newest generation that validates (ckpt layer) -------------
  std::vector<skiptrain::metrics::RoundRecord> restored_records;
  const std::size_t keep_generations =
      std::max<std::size_t>(options.keep_generations, 1);
  if (options.resume && !options.checkpoint_path.empty()) {
    obs::PhaseScope restore_scope(result.telemetry.phases,
                                  obs::Phase::kCheckpoint);
    for (const std::string& candidate :
         ckpt::generation_paths(options.checkpoint_path, keep_generations)) {
      if (!std::filesystem::exists(candidate)) continue;
      try {
        Span span("ckpt.restore");
        const ckpt::FleetImageInfo info = ckpt::probe_fleet_image(candidate);
        ckpt::ExperimentState state;
        if (info.round < options.total_rounds &&
            ckpt::restore_experiment_image(*engine_slot, state, candidate,
                                           options.checkpoint_fingerprint)) {
          out.start_round = engine_slot->rounds_executed();
          restored_records = std::move(state.records);
          result.coordinated_training_rounds =
              static_cast<std::size_t>(state.coordinated_training_rounds);
        }
        break;
      } catch (const std::exception&) {
        out.start_round = 0;
        restored_records.clear();
        result.coordinated_training_rounds = 0;
        build_engine();
      }
    }
  }
  sim::RoundEngine& engine = *engine_slot;

  // --- Evaluation (metrics layer) ----------------------------------------
  const skiptrain::data::Dataset* eval_split =
      options.eval_on_validation ? &data.validation : &data.test;
  const skiptrain::metrics::Evaluator evaluator(eval_split,
                                                options.eval_max_samples);
  std::vector<skiptrain::nn::Sequential*> model_ptrs(n);
  for (std::size_t i = 0; i < n; ++i) model_ptrs[i] = &engine.model(i);
  const std::size_t eval_every =
      options.eval_every != 0 ? options.eval_every
                              : options.gamma_train + options.gamma_sync;

  result.algorithm = scheduler->name();
  result.dataset = data.name;
  result.nodes = n;
  result.degree = options.degree;
  result.fleet_budget_wh = fleet.total_budget_wh();
  result.recorder = skiptrain::metrics::Recorder(
      std::string(sim::algorithm_name(options.algorithm)) + " on " +
      data.name);
  for (const auto& record : restored_records) result.recorder.add(record);

  std::vector<double> last_per_node;
  const auto evaluate_now = [&](std::size_t round, core::RoundKind kind,
                                std::size_t trained) {
    obs::PhaseScope eval_scope(result.telemetry.phases, obs::Phase::kEval);
    skiptrain::metrics::RoundRecord record;
    record.round = round;
    record.training_round = kind == core::RoundKind::kTraining;
    {
      Span span("metrics.eval");
      const auto fleet_eval = evaluator.evaluate_fleet(model_ptrs);
      record.mean_accuracy = fleet_eval.accuracy.mean;
      record.std_accuracy = fleet_eval.accuracy.stddev;
      last_per_node = fleet_eval.per_node;
    }
    record.train_energy_wh = engine.accountant().total_training_wh();
    record.comm_energy_wh = engine.accountant().total_comm_wh();
    record.nodes_trained = trained;
    result.recorder.add(record);
  };

  // --- Main loop ---------------------------------------------------------
  for (std::size_t t = out.start_round + 1; t <= options.total_rounds; ++t) {
    if (drive.round_hook) drive.round_hook(engine, t, nullptr);
    const bool train_round =
        scheduler->round_kind(t) == core::RoundKind::kTraining;
    // Sync rounds run no GEMM, so only training rounds pay the snapshot.
    const bool count_gemm = drive.count_gemm && train_round;
    GemmCounts before;
    if (count_gemm) before = read_gemm_counts();
    sim::RoundEngine::RoundOutcome outcome;
    {
      Span span(train_round ? "sim.round.train" : "sim.round.sync");
      outcome = engine.run_round();
    }
    if (count_gemm) {
      const GemmCounts after = read_gemm_counts();
      out.gemm_calls += after.calls - before.calls;
      out.gemm_macs += after.macs - before.macs;
    }
    if (drive.round_hook) drive.round_hook(engine, t, &outcome);
    out.sgd_steps += outcome.nodes_trained * options.local_steps;
    if (outcome.kind == core::RoundKind::kTraining) {
      ++result.coordinated_training_rounds;
      ++out.train_rounds_run;
    } else {
      ++out.sync_rounds_run;
    }
    if (t % eval_every == 0 || t == options.total_rounds) {
      evaluate_now(t, outcome.kind, outcome.nodes_trained);
    }
    if (!options.checkpoint_path.empty() && options.checkpoint_every != 0 &&
        t % options.checkpoint_every == 0 && t < options.total_rounds) {
      obs::PhaseScope ckpt_scope(result.telemetry.phases,
                                 obs::Phase::kCheckpoint);
      Span span("ckpt.write");
      const ckpt::ExperimentState state{
          result.recorder.records(),
          static_cast<std::uint64_t>(result.coordinated_training_rounds),
          options.checkpoint_fingerprint};
      ckpt::rotate_generations(options.checkpoint_path, keep_generations);
      ckpt::save_experiment_image(engine, state, options.checkpoint_path,
                                  io_faults);
      ++out.images_written;
      out.image_bytes = ckpt::file_size_bytes(options.checkpoint_path);
    }
  }

  // --- Summary, exactly as run_experiment fills it -----------------------
  const skiptrain::metrics::RoundRecord& last = result.recorder.last();
  result.final_mean_accuracy = last.mean_accuracy;
  result.final_std_accuracy = last.std_accuracy;
  result.final_allreduce_accuracy = last.allreduce_accuracy;
  result.best_mean_accuracy = result.recorder.best_mean_accuracy();
  result.total_training_wh = engine.accountant().total_training_wh();
  result.total_comm_wh = engine.accountant().total_comm_wh();
  if (const skiptrain::scenario::FleetScenario* scn = engine.scenario()) {
    result.mean_availability = scn->mean_availability();
    result.down_node_rounds = scn->down_steps_total();
    result.harvested_wh = scn->harvested_mwh_total() / 1000.0;
  }
  out.fault_stats = engine.fault_stats();
  const skiptrain::fault::FaultStats& fs = out.fault_stats;
  result.dropped_messages = static_cast<std::size_t>(fs.dropped);
  result.corrupt_messages = static_cast<std::size_t>(fs.corrupt);
  result.duplicated_messages = static_cast<std::size_t>(fs.duplicated);
  result.crash_down_rounds = static_cast<std::size_t>(fs.crash_down_rounds);
  if (fs.attempted_deliveries != 0) {
    result.delivery_rate =
        static_cast<double>(fs.attempted_deliveries - fs.dropped -
                            fs.corrupt) /
        static_cast<double>(fs.attempted_deliveries);
  }
  result.final_per_node_accuracy = std::move(last_per_node);
  result.telemetry.phases.merge(engine.phase_stats());
  result.telemetry.wire_bytes = engine.wire_bytes_sent();
  result.telemetry.rounds = engine.rounds_executed() - out.start_round;
  out.plane_digest = plane_digest(engine.node_parameters());
  return out;
}

}  // namespace fleetbench
