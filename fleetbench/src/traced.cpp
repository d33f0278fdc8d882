// Traced run: the per-layer numbers.
//
// 1. The workload's sweep runs once through SweepRunner, untraced; its
//    outputs are the reference every hand-driven trial must reproduce.
// 2. A checked pass drives every trial by hand (driver.hpp) with
//    invariant hooks: fleet-mean preservation on fault-free, all-alive
//    sync rounds, and per-round link accounting recomputed from
//    fault::link_draw.
// 3. Timed passes alternate untraced and traced (benchmark spans plus the
//    program's Chrome trace) for the requested seconds. Their wall-time
//    difference is the tracing overhead; every pass must reproduce the
//    reference outputs.
// 4. Isolated calls into each layer at the workload's shapes (nn, data,
//    plane, quant, fault, ckpt) give per-call times, which the
//    reconciliation view multiplies by in-situ call counts and compares
//    against the engine's phase times.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "checks.hpp"
#include "ckpt/io.hpp"
#include "driver.hpp"
#include "fault/crc32c.hpp"
#include "fault/frame.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "plane/plane.hpp"
#include "quant/codec.hpp"
#include "spans.hpp"
#include "sweep/runner.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace fleetbench {

namespace sweep = skiptrain::sweep;
namespace sim = skiptrain::sim;
namespace obs = skiptrain::obs;
namespace util = skiptrain::util;

namespace {

/// Time box of each isolated layer measurement.
constexpr double kIsolatedSeconds = 0.25;
constexpr std::size_t kIsolatedMinCalls = 200;

constexpr obs::Phase kPhases[] = {obs::Phase::kLiveness, obs::Phase::kTrain,
                                  obs::Phase::kEncode,   obs::Phase::kGossip,
                                  obs::Phase::kEval,     obs::Phase::kCheckpoint};

double phase_seconds(const obs::PhaseStats& stats, obs::Phase phase) {
  return stats.seconds[static_cast<std::size_t>(phase)];
}

struct Pass {
  std::vector<DriveOutput> trials;  // uninterrupted leg, then resume leg
  std::size_t uninterrupted = 0;    // how many of `trials` are leg A
  double wall_s = 0.0;
  double global_pool_busy_share = 0.0;
  std::uint64_t io_injected = 0;
  std::uint64_t io_retries = 0;
};

/// Invariant hooks for one hand-driven trial. A violation is remembered
/// in `failure` and the trial is counted as failed.
class InvariantHooks {
 public:
  explicit InvariantHooks(const sim::RunOptions& options)
      : plan_(skiptrain::fault::make_plan(options.faults)),
        seed_(options.seed),
        mean_checked_(!plan_.link_faults() && !plan_.crash_faults() &&
                      !skiptrain::scenario::make_config(options.scenario)
                           .enabled) {}

  void install(DriveOptions& drive) {
    drive.on_mixing = [this](const TrialMixing& mixing) {
      mixing_ = &mixing;
      total_degree_ = 0;
      for (std::size_t d : mixing.degrees) total_degree_ += d;
    };
    drive.round_hook = [this](const sim::RoundEngine& engine, std::size_t t,
                              const sim::RoundEngine::RoundOutcome* outcome) {
      if (outcome == nullptr) {
        before(engine, t);
      } else {
        after(engine, t, *outcome);
      }
    };
  }

  [[nodiscard]] const std::string& failure() const { return failure_; }
  [[nodiscard]] std::size_t mean_checks() const { return mean_checks_; }
  [[nodiscard]] std::size_t link_checks() const { return link_checks_; }

 private:
  void fail(const std::string& text) {
    if (failure_.empty()) failure_ = text;
  }

  static std::vector<double> column_means(skiptrain::plane::ConstMatrixView v,
                                          double* max_abs) {
    std::vector<double> sums(v.dim, 0.0);
    double biggest = 0.0;
    for (std::size_t i = 0; i < v.rows; ++i) {
      const auto row = v.row(i);
      for (std::size_t k = 0; k < v.dim; ++k) {
        sums[k] += row[k];
        biggest = std::max(biggest, static_cast<double>(std::fabs(row[k])));
      }
    }
    for (double& s : sums) s /= static_cast<double>(v.rows);
    if (max_abs != nullptr) *max_abs = biggest;
    return sums;
  }

  void before(const sim::RoundEngine& engine, std::size_t t) {
    stats_before_ = engine.fault_stats();
    mean_round_ = mean_checked_ && engine.scheduler().round_kind(t) ==
                                       skiptrain::core::RoundKind::kSynchronization;
    if (mean_round_) means_ = column_means(engine.node_parameters(), &max_abs_);
  }

  void after(const sim::RoundEngine& engine, std::size_t t,
             const sim::RoundEngine::RoundOutcome& outcome) {
    if (mean_round_ && outcome.nodes_trained == 0) {
      // W is doubly stochastic, so a sync round preserves the fleet mean.
      const std::vector<double> after =
          column_means(engine.node_parameters(), nullptr);
      const double tolerance = 1e-5 * (1.0 + max_abs_);
      for (std::size_t k = 0; k < after.size(); ++k) {
        if (std::fabs(after[k] - means_[k]) > tolerance) {
          fail("round " + std::to_string(t) +
               ": sync round moved the fleet mean");
          break;
        }
      }
      ++mean_checks_;
    }
    if (!plan_.link_faults()) return;
    const skiptrain::fault::FaultStats& now = engine.fault_stats();
    const std::uint64_t attempted =
        now.attempted_deliveries - stats_before_.attempted_deliveries;
    const std::uint64_t dropped = now.dropped - stats_before_.dropped;
    const std::uint64_t corrupt = now.corrupt - stats_before_.corrupt;
    if (dropped + corrupt > attempted || attempted > total_degree_) {
      fail("round " + std::to_string(t) + ": link tallies out of range");
      return;
    }
    if (attempted != total_degree_ || mixing_ == nullptr) return;
    // Every node was up: recompute each directed link's fate from the
    // public draw and require attempted = delivered + dropped + corrupt.
    std::uint64_t drops = 0;
    std::uint64_t corrupts = 0;
    std::uint64_t delivered = 0;
    for (std::size_t i = 0; i < mixing_->degrees.size(); ++i) {
      for (const auto& entry : mixing_->ref.neighbor_weights(i)) {
        const skiptrain::fault::LinkDraw draw =
            skiptrain::fault::link_draw(plan_, seed_, t, entry.neighbor, i);
        if (draw.drop) {
          ++drops;
        } else if (draw.corrupt) {
          ++corrupts;
        } else {
          ++delivered;
        }
      }
    }
    if (drops != dropped || corrupts != corrupt ||
        attempted != delivered + dropped + corrupt) {
      fail("round " + std::to_string(t) +
           ": attempted != delivered + dropped + corrupt");
    }
    ++link_checks_;
  }

  skiptrain::fault::FaultPlan plan_;
  std::uint64_t seed_;
  bool mean_checked_;
  const TrialMixing* mixing_ = nullptr;
  std::size_t total_degree_ = 0;
  skiptrain::fault::FaultStats stats_before_{};
  bool mean_round_ = false;
  std::vector<double> means_;
  double max_abs_ = 0.0;
  std::string failure_;
  std::size_t mean_checks_ = 0;
  std::size_t link_checks_ = 0;
};

class TracedRun {
 public:
  explicit TracedRun(const Args& args)
      : args_(args),
        workload_(make_workload(args.workload, args.seed)),
        serial_(sweep_pins_trials_serial(workload_)),
        node_threads_(serial_ ? 1 : util::ThreadPool::global().size()) {
    run_.sweep_threads = workload_.sweep_threads;
    run_.pool_threads = util::ThreadPool::global().size();
  }

  RunReport execute();

 private:
  void run_reference();
  Pass drive_pass(bool traced, bool checked);
  void check_pass(const Pass& pass, const std::vector<std::string>* hook_failures);
  void collect_traced(const Pass& pass);
  void measure_isolated();
  void report();

  const Args& args_;
  Workload workload_;
  bool serial_;
  std::size_t node_threads_;
  RunReport run_;

  // Reference outputs from the user path, in pass order (leg A, leg B).
  std::vector<sim::ExperimentResult> reference_;
  double trial_pool_utilization_ = 0.0;

  // Timed passes.
  std::vector<double> untraced_wall_;
  std::vector<double> traced_wall_;
  std::vector<double> global_busy_;
  // Traced-pass spans and per-pass sums.
  std::vector<double> round_train_ms_, round_sync_ms_, eval_ms_;
  std::vector<double> ckpt_write_ms_, ckpt_restore_ms_;
  std::vector<double> graph_build_s_, data_synth_s_;
  std::map<obs::Phase, std::vector<double>> phase_s_;
  std::vector<double> train_step_us_, gemm_calls_per_step_,
      gemm_macs_per_step_, gmac_per_s_, dense_gossip_rounds_;
  std::vector<double> eval_span_s_, ckpt_span_s_;  // per traced pass
  std::uint64_t io_injected_ = 0, io_retries_ = 0;
  std::uint64_t image_bytes_ = 0;
  std::uint64_t sgd_steps_ = 0;

  // Deterministic outputs of the checked pass.
  skiptrain::fault::FaultStats link_{};
  double alive_fraction_ = 0.0;
  double wire_bytes_per_round_ = 0.0;

  // Isolated per-call medians.
  std::map<std::string, double> isolated_us_;
  double mix_ms_ = 0.0, mix_gbps_ = 0.0, crc_gbps_ = 0.0;
};

void TracedRun::run_reference() {
  sweep::SweepOptions sweep_options;
  sweep_options.threads = workload_.sweep_threads;
  std::optional<ReferenceTable> table;
  if (args_.seed == kDefaultSeed) table = load_reference(args_.reference_path);
  std::string dir;
  sweep::SweepGrid grid = workload_.grid;
  if (workload_.checkpointed) {
    dir = scratch_dir(args_, "reference");
    grid = checkpointed_grid(workload_.grid, dir, /*resume=*/false);
  }
  const sweep::SweepReport report = sweep::SweepRunner(sweep_options).run(grid);
  if (report.trial_pool.workers != 0 && report.wall_seconds > 0.0) {
    trial_pool_utilization_ =
        static_cast<double>(report.trial_pool.busy_ns) * 1e-9 /
        (static_cast<double>(report.trial_pool.workers) * report.wall_seconds);
  }
  for (const sweep::TrialResult& trial : report.trials) {
    const std::string tag = workload_.name + " reference trial " +
                            std::to_string(trial.spec.index) + ": ";
    std::string why;
    if (!trial.ok()) {
      run_.count(tag + "status failed: " + trial.error);
    } else if (!plausible_outputs(trial.result, trial.spec.options, &why)) {
      run_.count(tag + why);
    } else if (table && !table->contains({workload_.name, trial.spec.index})) {
      run_.count(tag + "no reference row");
    } else if (table &&
               !matches_reference(table->at({workload_.name, trial.spec.index}),
                                  trial.result, &why)) {
      run_.count(tag + why);
    } else {
      run_.count("");
    }
    reference_.push_back(trial.result);
  }
  if (workload_.checkpointed) {
    const sweep::SweepReport resumed = sweep::SweepRunner(sweep_options).run(
        checkpointed_grid(workload_.grid, dir, /*resume=*/true));
    for (const sweep::TrialResult& trial : resumed.trials) {
      run_.count(trial.ok() ? "" : workload_.name + " reference resume: " +
                                       trial.error);
      reference_.push_back(trial.result);
    }
    std::filesystem::remove_all(dir);
  }
}

Pass TracedRun::drive_pass(bool traced, bool checked) {
  std::string dir;
  sweep::SweepGrid grid = workload_.grid;
  if (workload_.checkpointed) {
    dir = scratch_dir(args_, "pass");
    grid = checkpointed_grid(workload_.grid, dir, /*resume=*/false);
  }
  std::vector<sweep::TrialSpec> specs = grid.expand();
  std::size_t uninterrupted = specs.size();
  if (workload_.checkpointed) {
    for (sweep::TrialSpec& spec :
         checkpointed_grid(workload_.grid, dir, /*resume=*/true).expand()) {
      specs.push_back(std::move(spec));
    }
  }

  std::vector<std::string> hook_failures;
  std::map<std::string, std::shared_ptr<const sweep::SharedWorkload>> data;
  const util::ThreadPool::PoolStats pool_before =
      util::ThreadPool::global().stats();
  const obs::Snapshot counters_before = obs::snapshot();
  if (traced) {
    SpanLog::clear();
    SpanLog::set_enabled(true);
    obs::start_tracing(args_.out_dir + "/trace-" + workload_.name + "-seed" +
                       std::to_string(args_.seed) + ".json");
  }
  Pass pass;
  pass.uninterrupted = uninterrupted;
  const obs::StopWatch watch;
  for (const sweep::TrialSpec& spec : specs) {
    const std::string key = spec.data.key();
    if (!data.contains(key)) {
      Span span("data.synth");
      data[key] = sweep::build_workload(spec.data);
    }
    DriveOptions drive;
    drive.serial_nodes = serial_;
    drive.count_gemm = traced;
    std::optional<InvariantHooks> hooks;
    if (checked) {
      hooks.emplace(spec.options);
      hooks->install(drive);
    }
    pass.trials.push_back(drive_trial(spec, *data.at(key), drive));
    if (hooks) {
      hook_failures.push_back(hooks->failure());
      if (hook_failures.size() == 1) {
        run_.notes.push_back("invariant checks on trial 0: " +
                             std::to_string(hooks->mean_checks()) +
                             " fleet-mean rounds, " +
                             std::to_string(hooks->link_checks()) +
                             " all-alive link-accounting rounds");
      }
    }
  }
  pass.wall_s = watch.seconds();
  if (traced) {
    obs::stop_tracing();
    SpanLog::set_enabled(false);
  }
  const util::ThreadPool::PoolStats pool_after =
      util::ThreadPool::global().stats();
  if (pool_after.workers != 0) {
    pass.global_pool_busy_share =
        static_cast<double>(pool_after.busy_ns - pool_before.busy_ns) * 1e-9 /
        (static_cast<double>(pool_after.workers) * pass.wall_s);
  }
  const obs::Snapshot counters_after = obs::snapshot();
  pass.io_injected = counters_after.counter_value("fault.io.injected") -
                     counters_before.counter_value("fault.io.injected");
  pass.io_retries = counters_after.counter_value("fault.io.retries") -
                    counters_before.counter_value("fault.io.retries");
  if (!dir.empty()) std::filesystem::remove_all(dir);
  check_pass(pass, checked ? &hook_failures : nullptr);
  return pass;
}

void TracedRun::check_pass(const Pass& pass,
                           const std::vector<std::string>* hook_failures) {
  for (std::size_t i = 0; i < pass.trials.size(); ++i) {
    const std::string tag =
        workload_.name + " hand-driven trial " + std::to_string(i) + ": ";
    std::string why;
    if (i >= reference_.size() ||
        !same_outputs(reference_[i], pass.trials[i].result, &why)) {
      run_.count(tag + "differs from sim::run_experiment: " + why);
    } else if (hook_failures != nullptr && !(*hook_failures)[i].empty()) {
      run_.count(tag + (*hook_failures)[i]);
    } else {
      run_.count("");
    }
  }
}

void TracedRun::collect_traced(const Pass& pass) {
  const auto append = [](std::vector<double>& into, const char* name,
                         double scale) {
    for (double ms : SpanLog::durations_ms(name)) into.push_back(ms * scale);
  };
  append(round_train_ms_, "sim.round.train", 1.0);
  append(round_sync_ms_, "sim.round.sync", 1.0);
  append(eval_ms_, "metrics.eval", 1.0);
  append(ckpt_write_ms_, "ckpt.write", 1.0);
  append(ckpt_restore_ms_, "ckpt.restore", 1.0);
  append(graph_build_s_, "graph.build", 1e-3);
  append(data_synth_s_, "data.synth", 1e-3);
  eval_span_s_.push_back(SpanLog::total_seconds("metrics.eval"));
  ckpt_span_s_.push_back(SpanLog::total_seconds("ckpt.write") +
                         SpanLog::total_seconds("ckpt.restore"));

  obs::PhaseStats phases;
  std::uint64_t steps = 0, calls = 0, macs = 0;
  double dense_rounds = 0.0;
  for (const DriveOutput& trial : pass.trials) {
    phases.merge(trial.result.telemetry.phases);
    steps += trial.sgd_steps;
    calls += trial.gemm_calls;
    macs += trial.gemm_macs;
    if (trial.fault_stats.attempted_deliveries == 0 &&
        trial.result.down_node_rounds == 0) {
      dense_rounds += static_cast<double>(trial.train_rounds_run +
                                          trial.sync_rounds_run);
    }
    image_bytes_ = std::max(image_bytes_, trial.image_bytes);
  }
  for (obs::Phase phase : kPhases) {
    phase_s_[phase].push_back(phase_seconds(phases, phase));
  }
  sgd_steps_ = steps;
  if (steps != 0) {
    const double train_s = phase_seconds(phases, obs::Phase::kTrain);
    train_step_us_.push_back(train_s * static_cast<double>(node_threads_) /
                             static_cast<double>(steps) * 1e6);
    gemm_calls_per_step_.push_back(static_cast<double>(calls) /
                                   static_cast<double>(steps));
    gemm_macs_per_step_.push_back(static_cast<double>(macs) /
                                  static_cast<double>(steps));
    gmac_per_s_.push_back(static_cast<double>(macs) * 1e-9 /
                          (train_s * static_cast<double>(node_threads_)));
  }
  dense_gossip_rounds_.push_back(dense_rounds);
  io_injected_ = pass.io_injected;
  io_retries_ = pass.io_retries;
}

void TracedRun::measure_isolated() {
  const sweep::TrialSpec spec = workload_.grid.expand().front();
  const std::shared_ptr<const sweep::SharedWorkload> shared =
      sweep::build_workload(spec.data);
  const std::size_t n = shared->data.num_nodes();
  const std::span<const float> row = shared->prototype.parameter_arena();
  const std::size_t dim = row.size();
  std::optional<util::ThreadPool::ScopedForceSerial> serial_scope;
  if (serial_) serial_scope.emplace();
  SpanLog::clear();
  SpanLog::set_enabled(true);
  const auto time_box = [](auto&& body) {
    const obs::StopWatch watch;
    for (std::size_t calls = 0;
         calls < kIsolatedMinCalls || watch.seconds() < kIsolatedSeconds;
         ++calls) {
      body();
    }
  };
  const auto median_us = [](const char* name) {
    return median(SpanLog::durations_ms(name)) * 1e3;
  };

  // nn + data: one local SGD step at the workload's batch size, split
  // into the calls Node::train_local makes.
  {
    skiptrain::nn::Sequential model = shared->prototype.clone();
    skiptrain::nn::SgdOptimizer optimizer(
        {spec.options.learning_rate, 0.0f, 0.0f});
    const skiptrain::data::DatasetView view = shared->data.node_view(0);
    util::Rng rng(args_.seed);
    skiptrain::tensor::Tensor features;
    skiptrain::tensor::Tensor grad;
    std::vector<std::int32_t> labels;
    double loss_sink = 0.0;
    std::size_t step = 0;
    time_box([&] {
      // Each node trains E steps from a freshly mixed model; restarting
      // from the prototype every E steps keeps the activations (and so
      // the GEMM kernels' zero-skipping paths) near in-situ values.
      if (step++ % std::max<std::size_t>(spec.options.local_steps, 1) == 0) {
        model.set_parameters(shared->prototype.parameter_arena());
      }
      {
        Span span("data.sample_batch");
        view.sample_batch(rng, spec.options.batch_size, features, labels);
      }
      {
        Span span("nn.zero_grad");
        model.zero_grad();
      }
      const skiptrain::tensor::Tensor* logits = nullptr;
      {
        Span span("nn.forward");
        logits = &model.forward(features);
      }
      if (grad.shape() != logits->shape()) {
        grad = skiptrain::tensor::Tensor(logits->shape());
      }
      {
        Span span("nn.loss");
        loss_sink +=
            skiptrain::nn::softmax_cross_entropy(*logits, labels, grad).loss;
      }
      {
        Span span("nn.backward");
        model.backward(features, grad);
      }
      {
        Span span("nn.optimizer");
        optimizer.step(model);
      }
    });
    if (!std::isfinite(loss_sink)) run_.notes.push_back("isolated loss NaN");
    for (const char* name : {"data.sample_batch", "nn.zero_grad", "nn.forward",
                             "nn.loss", "nn.backward", "nn.optimizer"}) {
      isolated_us_[name] = median_us(name);
    }
  }

  // quant: int8 encode/decode of one model row.
  {
    const auto codec = skiptrain::quant::make_codec(
        skiptrain::quant::Codec::kInt8, spec.options.seed);
    skiptrain::quant::QuantizedRow encoded;
    std::vector<float> decoded(dim);
    time_box([&] {
      {
        Span span("quant.encode");
        codec->encode(row, encoded);
      }
      {
        Span span("quant.decode");
        codec->decode(encoded, decoded);
      }
    });
    isolated_us_["quant.encode"] = median_us("quant.encode");
    isolated_us_["quant.decode"] = median_us("quant.decode");
  }

  // fault: CRC32C and frame encode+verify of one identity-coded row.
  {
    const auto codec =
        skiptrain::quant::make_codec(skiptrain::quant::Codec::kIdentity);
    skiptrain::quant::QuantizedRow encoded;
    codec->encode(row, encoded);
    std::vector<std::uint8_t> frame;
    skiptrain::fault::encode_frame(encoded, frame);
    std::uint32_t crc_sink = 0;
    bool all_valid = true;
    time_box([&] {
      {
        Span span("fault.crc32c");
        crc_sink ^= skiptrain::fault::crc32c(frame.data(), frame.size());
      }
      {
        Span span("fault.frame_verify");
        skiptrain::fault::encode_frame(encoded, frame);
        all_valid = skiptrain::fault::verify_frame(frame) && all_valid;
      }
    });
    run_.count(all_valid ? "" : "isolated frame failed verification");
    (void)crc_sink;
    const double crc_us = median_us("fault.crc32c");
    crc_gbps_ = static_cast<double>(frame.size()) / (crc_us * 1e3);
    isolated_us_["fault.frame_verify"] = median_us("fault.frame_verify");
  }

  // plane: the mixing kernel over an n × dim plane with the trial's graph.
  {
    TrialMixing mixing;
    build_mixing(spec.options, n, mixing);
    skiptrain::plane::ParameterPlane plane(n, dim);
    for (std::size_t i = 0; i < n; ++i) {
      std::copy(row.begin(), row.end(), plane.current().row(i).begin());
    }
    const obs::StopWatch watch;
    for (std::size_t calls = 0; calls < 5 || watch.seconds() < 0.5; ++calls) {
      Span span("plane.apply_mixing");
      skiptrain::plane::apply_mixing(mixing.ref, plane);
    }
    mix_ms_ = median(SpanLog::durations_ms("plane.apply_mixing"));
    std::size_t links = 0;
    for (std::size_t d : mixing.degrees) links += d;
    const double bytes = static_cast<double>((2 * n + links) * dim) * 4.0;
    mix_gbps_ = bytes / (mix_ms_ * 1e6);
  }
  SpanLog::set_enabled(false);
  serial_scope.reset();

  // ckpt: workloads that do not checkpoint get a short probe trial at
  // their own shapes that writes an image every round and resumes once.
  if (!workload_.checkpointed) {
    const std::string dir = scratch_dir(args_, "ckpt-probe");
    sweep::TrialSpec probe = spec;
    probe.options.total_rounds = 5;
    probe.options.checkpoint_path = dir + "/probe.ckpt";
    probe.options.checkpoint_every = 1;
    probe.options.keep_generations = 1;
    DriveOptions drive;
    drive.serial_nodes = serial_;
    SpanLog::clear();
    SpanLog::set_enabled(true);
    const DriveOutput written = drive_trial(probe, *shared, drive);
    probe.options.resume = true;
    const DriveOutput resumed = drive_trial(probe, *shared, drive);
    SpanLog::set_enabled(false);
    ckpt_write_ms_ = SpanLog::durations_ms("ckpt.write");
    ckpt_restore_ms_ = SpanLog::durations_ms("ckpt.restore");
    image_bytes_ = written.image_bytes;
    std::string why;
    run_.count(resumed.start_round == 4 &&
                       same_outputs(written.result, resumed.result, &why)
                   ? ""
                   : "checkpoint probe did not resume identically " + why);
    std::filesystem::remove_all(dir);
  }
}

void TracedRun::report() {
  const double untraced = median(untraced_wall_);
  const double traced = median(traced_wall_);
  const auto p = [](const std::vector<double>& v, double q) {
    return quantile(v, q);
  };
  run_.add("sim.train_round_ms_p50", p(round_train_ms_, 0.5), "ms");
  run_.add("sim.train_round_ms_p90", p(round_train_ms_, 0.9), "ms");
  run_.add("sim.sync_round_ms_p50", p(round_sync_ms_, 0.5), "ms");
  run_.add("sim.sync_round_ms_p90", p(round_sync_ms_, 0.9), "ms");
  for (obs::Phase phase : kPhases) {
    run_.add(std::string("sim.phase.") + obs::phase_name(phase) + "_s",
             median(phase_s_[phase]), "s");
  }
  const double step_us = median(train_step_us_);
  run_.add("sim.train_step_us", step_us, "us");
  const double fwd = isolated_us_["nn.forward"];
  const double loss = isolated_us_["nn.loss"];
  const double bwd = isolated_us_["nn.backward"];
  const double opt = isolated_us_["nn.optimizer"];
  run_.add("nn.forward_us", fwd, "us");
  run_.add("nn.loss_us", loss, "us");
  run_.add("nn.backward_us", bwd, "us");
  run_.add("nn.optimizer_us", opt, "us");
  run_.add("nn.step_gap_ratio", step_us / (fwd + loss + bwd + opt), "ratio");
  run_.add("data.sample_batch_us", isolated_us_["data.sample_batch"], "us");
  run_.add("data.synth_s", median(data_synth_s_), "s");
  run_.add("tensor.gemm_calls_per_step", median(gemm_calls_per_step_),
           "count");
  run_.add("tensor.gemm_macs_per_step", median(gemm_macs_per_step_), "count");
  run_.add("tensor.gmac_per_s", median(gmac_per_s_), "GMAC/s");
  run_.add("graph.build_s", median(graph_build_s_), "s");
  run_.add("plane.mix_ms", mix_ms_, "ms");
  run_.add("plane.mix_gbps_computed", mix_gbps_, "GB/s");
  run_.add("quant.encode_us_per_row", isolated_us_["quant.encode"], "us");
  run_.add("quant.decode_us_per_row", isolated_us_["quant.decode"], "us");
  run_.add("quant.wire_bytes_per_round", wire_bytes_per_round_, "bytes");
  run_.add("fault.crc_gbps", crc_gbps_, "GB/s");
  run_.add("fault.frame_verify_us", isolated_us_["fault.frame_verify"], "us");
  run_.add("fault.link.attempted",
           static_cast<double>(link_.attempted_deliveries), "count");
  run_.add("fault.link.dropped", static_cast<double>(link_.dropped), "count");
  run_.add("fault.link.corrupt", static_cast<double>(link_.corrupt), "count");
  run_.add("fault.link.duplicated", static_cast<double>(link_.duplicated),
           "count");
  run_.add("fault.delivery_ratio",
           link_.attempted_deliveries == 0
               ? 1.0
               : static_cast<double>(link_.attempted_deliveries -
                                     link_.dropped - link_.corrupt) /
                     static_cast<double>(link_.attempted_deliveries),
           "ratio");
  run_.add("ckpt.write_ms_p50", p(ckpt_write_ms_, 0.5), "ms");
  run_.add("ckpt.write_ms_p90", p(ckpt_write_ms_, 0.9), "ms");
  run_.add("ckpt.restore_ms", median(ckpt_restore_ms_), "ms");
  run_.add("ckpt.bytes_per_image", static_cast<double>(image_bytes_), "bytes");
  run_.add("ckpt.io_injected", static_cast<double>(io_injected_), "count");
  run_.add("ckpt.io_retries", static_cast<double>(io_retries_), "count");
  run_.add("scenario.alive_fraction", alive_fraction_, "ratio");
  run_.add("metrics.eval_ms", median(eval_ms_), "ms");
  run_.add("util.trial_pool_utilization", trial_pool_utilization_, "ratio");
  run_.add("util.global_pool_utilization", median(global_busy_), "ratio");
  run_.add("obs.trace_overhead_pct", (traced - untraced) / untraced * 100.0,
           "%");

  // Reconciliation: per-call times × in-situ call counts against the
  // engine's phase times, per traced pass. Node-parallel training is
  // scaled by the node threads so both sides are thread-seconds.
  const double threads = static_cast<double>(node_threads_);
  const double step_attr_us = isolated_us_["data.sample_batch"] +
                              isolated_us_["nn.zero_grad"] + fwd + loss + bwd +
                              opt;
  struct Row {
    obs::Phase phase;
    double scale;
    double attributed_s;
    const char* calls;
  };
  const Row rows[] = {
      {obs::Phase::kLiveness, 1.0, 0.0, "no per-call time measured"},
      {obs::Phase::kTrain, threads,
       static_cast<double>(sgd_steps_) * step_attr_us * 1e-6,
       "SGD steps x isolated (sample_batch + zero_grad + forward + loss + "
       "backward + optimizer)"},
      {obs::Phase::kEncode, 1.0, 0.0, "no per-call time measured"},
      {obs::Phase::kGossip, 1.0,
       median(dense_gossip_rounds_) * mix_ms_ * 1e-3,
       "fault-free all-alive rounds x isolated plane.apply_mixing (the "
       "difference-form path is not attributed)"},
      {obs::Phase::kEval, 1.0, median(eval_span_s_),
       "sum of in-situ metrics.eval spans"},
      {obs::Phase::kCheckpoint, 1.0, median(ckpt_span_s_),
       "sum of in-situ ckpt.write and ckpt.restore spans"},
  };
  std::fprintf(stderr, "\nreconciliation (%s, seconds per traced pass)\n",
               workload_.name.c_str());
  std::fprintf(stderr, "  %-10s %12s %12s %12s %8s\n", "phase", "phase_s",
               "attributed", "unattributed", "share");
  for (const Row& row : rows) {
    const double phase_s = median(phase_s_[row.phase]) * row.scale;
    const double rest = phase_s - row.attributed_s;
    const double share = phase_s > 0.0 ? rest / phase_s * 100.0 : 0.0;
    char line[256];
    std::snprintf(line, sizeof(line), "%-10s %12.6f %12.6f %12.6f %7.1f%%",
                  obs::phase_name(row.phase), phase_s, row.attributed_s, rest,
                  share);
    std::fprintf(stderr, "  %s\n      attributed = %s\n", line, row.calls);
    run_.notes.push_back(std::string("reconciliation ") + line + " [" +
                         row.calls + "]");
    if (row.phase == obs::Phase::kTrain || row.phase == obs::Phase::kGossip) {
      run_.add(std::string("recon.") + obs::phase_name(row.phase) +
                   ".unattributed_pct",
               share, "%");
    }
  }
  std::fprintf(stderr,
               "  in-situ SGD step %.2f us vs isolated sum %.2f us "
               "(forward %.2f, loss %.2f, backward %.2f, optimizer %.2f, "
               "sample_batch %.2f, zero_grad %.2f)\n",
               step_us, step_attr_us, fwd, loss, bwd, opt,
               isolated_us_["data.sample_batch"], isolated_us_["nn.zero_grad"]);
  std::fprintf(stderr, "  ckpt.io_injected = %llu (io faults are keyed on "
               "(seed, path, attempt) with no round)\n",
               static_cast<unsigned long long>(io_injected_));
  run_.notes.push_back("untraced pass median " + std::to_string(untraced) +
                       " s over " + std::to_string(untraced_wall_.size()) +
                       " passes; traced " + std::to_string(traced) +
                       " s over " + std::to_string(traced_wall_.size()));
}

RunReport TracedRun::execute() {
  run_reference();
  {
    // Checked pass: invariants plus the deterministic tallies.
    const Pass checked = drive_pass(/*traced=*/false, /*checked=*/true);
    std::uint64_t wire = 0, rounds = 0;
    double alive = 0.0;
    for (std::size_t i = 0; i < checked.uninterrupted; ++i) {
      const DriveOutput& trial = checked.trials[i];
      link_.attempted_deliveries += trial.fault_stats.attempted_deliveries;
      link_.dropped += trial.fault_stats.dropped;
      link_.corrupt += trial.fault_stats.corrupt;
      link_.duplicated += trial.fault_stats.duplicated;
      wire += trial.result.telemetry.wire_bytes;
      rounds += trial.result.telemetry.rounds;
      alive += trial.result.mean_availability;
    }
    alive_fraction_ = alive / static_cast<double>(checked.uninterrupted);
    wire_bytes_per_round_ =
        static_cast<double>(wire) / static_cast<double>(rounds);
  }
  const obs::StopWatch timed;
  // Pairs of passes, alternating which side runs first.
  for (std::size_t pair = 0;
       traced_wall_.empty() || timed.seconds() < args_.seconds; ++pair) {
    for (const bool traced : {pair % 2 == 1, pair % 2 == 0}) {
      const Pass pass = drive_pass(traced, /*checked=*/false);
      (traced ? traced_wall_ : untraced_wall_).push_back(pass.wall_s);
      global_busy_.push_back(pass.global_pool_busy_share);
      if (traced) collect_traced(pass);
    }
  }
  measure_isolated();
  report();
  return run_;
}

}  // namespace

RunReport run_traced(const Args& args) { return TracedRun(args).execute(); }

}  // namespace fleetbench
