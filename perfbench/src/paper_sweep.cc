// paper-sweep: the paper's train -> quantize -> evaluate -> energy flow,
// exp::run_precision_sweep on LeNet / MNIST-like (scale 0.5) over the
// seven paper precisions, with a small fault campaign (one bit-error
// rate, unprotected and retry+clamp) at every point.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "exp/sweep.h"
#include "harness.h"
#include "nn/zoo.h"
#include "obs/trace.h"
#include "quant/qconfig.h"

namespace perfbench {
namespace {

namespace exp = qnn::exp;
namespace quant = qnn::quant;

// The sweep builds, trains and quantizes inside the timed call; the
// benchmark's only set-up is the energy table the checks use. It is
// timed this many times before every sweep, so that setup_s samples the
// whole run, as the sweep times do, and not only its first moments.
constexpr int kSetupsPerSweep = 40;
constexpr std::int64_t kTrain = 400;
constexpr std::int64_t kTest = 100;
constexpr int kFloatEpochs = 5;
constexpr int kQatEpochs = 1;
constexpr int kTrials = 2;
constexpr double kBitErrorRate = 1e-3;
// fixed (32,32) and (16,16) may fall at most this many points below
// float. They may score above it: QAT fine-tunes them for an extra epoch.
constexpr double kHighPrecisionMargin = 3.0;
// Modeled savings must stay within this many points of Table IV.
constexpr double kSavingTolerance = 6.5;

exp::ExperimentSpec sweep_spec(std::uint64_t seed) {
  exp::ExperimentSpec spec;
  spec.network = "lenet";
  spec.dataset = "mnist";
  spec.channel_scale = 0.5;
  spec.data.num_train = kTrain;
  spec.data.num_test = kTest;
  spec.data.seed = seed;
  spec.float_train.epochs = kFloatEpochs;
  spec.float_train.sgd.learning_rate = 0.02;
  spec.float_train.sgd.step_epochs = 2;
  spec.float_train.shuffle_seed = seed;
  spec.qat_train.epochs = kQatEpochs;
  spec.qat_train.sgd.learning_rate = 0.005;
  spec.qat_train.shuffle_seed = seed + 1;
  spec.seed = seed;
  return spec;
}

exp::SweepOptions sweep_options() {
  exp::SweepOptions o;
  o.faults.trials = kTrials;
  o.faults.bit_error_rates = {kBitErrorRate};
  o.faults.policies = {qnn::protect::ProtectionPolicy::kOff,
                       qnn::protect::ProtectionPolicy::kRetryClamp};
  return o;
}

// Images the sweep's schedule feeds through a network: float training
// and evaluation, per quantized point one QAT pass and one evaluation,
// per point one clean evaluation before its campaigns, and every trial.
double nominal_images(std::size_t points) {
  const double quantized = static_cast<double>(points - 1);
  const double campaigns = static_cast<double>(points) * 2.0 * kTrials;
  return kFloatEpochs * kTrain + kTest +
         quantized * (kQatEpochs * kTrain + kTest) +
         static_cast<double>(points) * kTest + campaigns * kTest;
}

// Modeled per-image energy of the full-scale LeNet at every paper
// precision, in paper_precisions() order.
std::vector<double> full_scale_energy(
    const std::vector<quant::PrecisionConfig>& precisions) {
  const auto net = qnn::nn::make_lenet();
  std::vector<double> e;
  for (const quant::PrecisionConfig& p : precisions)
    e.push_back(
        exp::inference_energy_uj(*net, qnn::nn::input_shape_for("lenet"), p));
  return e;
}

void check_energy(const std::vector<quant::PrecisionConfig>& precisions,
                  std::vector<double> energy, const Options& opt,
                  Result& result) {
  auto at = [&](const std::string& id) {
    for (std::size_t i = 0; i < precisions.size(); ++i)
      if (precisions[i].id() == id) return energy[i];
    result.check(false, "paper precision " + id + " missing");
    return 0.0;
  };
  if (opt.inject == "energy-order") std::swap(energy[2], energy[3]);
  const std::vector<std::string> order = {
      "float_32_32", "fixed_32_32", "fixed_16_16", "fixed_8_8",
      "pow2_6_16",   "fixed_4_4",   "binary_1_16"};
  std::vector<double> ordered;
  for (const std::string& id : order) ordered.push_back(at(id));
  result.check(strictly_decreasing(ordered),
               "full-scale LeNet modeled energy not ordered float > fixed32 "
               "> fixed16 > fixed8 > pow2 > fixed4 > binary");
  const double base = at("float_32_32");
  for (const PublishedSaving& p : table4_lenet_savings()) {
    const double saving = 100.0 * (1.0 - at(p.id) / base);
    std::fprintf(stderr, "paper-sweep: %-12s modeled saving %5.1f%% "
                 "(Table IV %4.1f%%), %.3f uJ/img full-scale\n",
                 p.id, saving, p.percent, at(p.id));
    result.check(std::fabs(saving - p.percent) <= kSavingTolerance,
                 std::string(p.id) + ": modeled saving too far from Table IV");
  }
}

void check_sweep(const exp::SweepResult& r, std::size_t points,
                 Result& result) {
  result.check(r.points.size() == points, "sweep returned too few points");
  const exp::PrecisionResult* fp = r.find("float_32_32");
  result.check(fp != nullptr, "sweep has no float point");
  if (!fp) return;
  // Retry+clamp against no protection is gated on the mean over the
  // precisions; per precision it is printed only, because a retried
  // layer draws fresh faults and a single point can lose by a trial's
  // noise (see CHANGES.md).
  double off_sum = 0.0, protect_sum = 0.0;
  for (const exp::PrecisionResult& p : r.points) {
    const std::string id = p.precision.id();
    std::fprintf(stderr, "paper-sweep: %-12s acc %6.2f%%", id.c_str(),
                 p.accuracy);
    result.check(p.converged && !p.degraded,
                 id + ": did not converge or degraded");
    if (id == "fixed_32_32" || id == "fixed_16_16")
      result.check(p.accuracy >= fp->accuracy - kHighPrecisionMargin,
                   id + ": accuracy too far below float");
    double off = -1.0, protect = -1.0;
    for (const exp::FaultPointResult& f : p.fault_campaigns) {
      std::fprintf(stderr, "  %s %.2f%%", qnn::protect::policy_name(f.policy),
                   f.mean_accuracy);
      if (f.policy == qnn::protect::ProtectionPolicy::kOff)
        off = f.mean_accuracy;
      if (f.policy == qnn::protect::ProtectionPolicy::kRetryClamp)
        protect = f.mean_accuracy;
    }
    std::fprintf(stderr, "\n");
    result.check(off >= 0 && protect >= 0,
                 id + ": campaign missing a protection policy");
    off_sum += off;
    protect_sum += protect;
  }
  result.check(protect_sum >= off_sum,
               "retry+clamp mean accuracy below unprotected");
}

// Sweep points and campaign trials attempted, and how many failed.
void count_ops(const exp::SweepResult& r, Result& result) {
  for (const exp::PrecisionResult& p : r.points) {
    result.attempt(1, p.degraded ? 1 : 0);
    for (const exp::FaultPointResult& f : p.fault_campaigns)
      result.attempt(f.trials + f.failed_trials, f.failed_trials);
  }
}

bool same_accuracies(const exp::SweepResult& a, const exp::SweepResult& b) {
  if (a.points.size() != b.points.size()) return false;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    if (a.points[i].accuracy != b.points[i].accuracy) return false;
    for (std::size_t k = 0; k < a.points[i].fault_campaigns.size(); ++k)
      if (a.points[i].fault_campaigns[k].mean_accuracy !=
          b.points[i].fault_campaigns[k].mean_accuracy)
        return false;
  }
  return true;
}

}  // namespace

void run_paper_sweep(const Options& opt, Result& result) {
  const std::vector<quant::PrecisionConfig> precisions =
      quant::paper_precisions();
  const exp::ExperimentSpec spec = sweep_spec(opt.seed);
  const exp::SweepOptions options = sweep_options();
  std::vector<double> setups, sweep_s, first_energy;
  exp::SweepResult first;
  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  const double t_end = now_s() + budget;
  while (sweep_s.empty() || now_s() < t_end) {
    for (int k = 0; k < kSetupsPerSweep; ++k) {
      const double t0 = now_s();
      const std::vector<double> energy = full_scale_energy(precisions);
      setups.push_back(now_s() - t0);
      if (first_energy.empty()) {
        first_energy = energy;
        check_energy(precisions, energy, opt, result);
      } else {
        result.check(energy == first_energy, "energy table not repeatable");
      }
    }
    const double t0 = now_s();
    exp::SweepResult r = exp::run_precision_sweep(spec, precisions, 0.0,
                                                  options);
    sweep_s.push_back(now_s() - t0);
    count_ops(r, result);
    if (sweep_s.size() == 1) {
      check_sweep(r, precisions.size(), result);
      first = std::move(r);
    } else {
      result.check(same_accuracies(r, first), "sweep not repeatable");
    }
  }
  for (double t : sweep_s)
    std::fprintf(stderr, "paper-sweep: sweep %.3f s\n", t);
  if (!opt.trace) {
    result.metric("img_per_s",
                  nominal_images(precisions.size()) / median(sweep_s),
                  "img/s");
    result.metric("setup_s", median(setups), "s");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  std::vector<double> traced_s;
  const std::int64_t tasks0 = registry_counter("pool.tasks");
  qnn::obs::set_trace_enabled(true);
  const double t_traced = now_s() + opt.seconds / 2;
  while (traced_s.empty() || now_s() < t_traced) {
    const double t0 = now_s();
    const exp::SweepResult r =
        exp::run_precision_sweep(spec, precisions, 0.0, options);
    traced_s.push_back(now_s() - t0);
    count_ops(r, result);
    result.check(same_accuracies(r, first), "traced sweep not repeatable");
  }
  qnn::obs::set_trace_enabled(false);
  const double sweeps = static_cast<double>(traced_s.size());
  result.metric("util.thread_pool.tasks",
                static_cast<double>(registry_counter("pool.tasks") - tasks0) /
                    sweeps,
                "count");
  result.metric("obs.trace_overhead", median(traced_s) / median(sweep_s),
                "ratio");

  const std::vector<Span> spans = drain_spans(result);
  report_self_times(spans, sweeps, result);
  double float_train = 0.0, train = 0.0, epochs = 0.0, eval = 0.0,
         eval_imgs = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.name == "train_epoch") {
      train += s.dur_s();
      epochs += 1.0;
      if (ancestor_with_prefix(spans, static_cast<int>(i), "sweep_point") < 0)
        float_train += s.dur_s();
    } else if (s.name == "evaluate") {
      eval += s.dur_s();
      eval_imgs += static_cast<double>(s.arg);
    }
  }
  result.metric("nn.train.img_per_s", epochs * kTrain / train, "img/s");
  result.metric("nn.evaluate.img_per_s", eval_imgs / eval, "img/s");
  result.metric("exp.float_train_s", float_train / sweeps, "s");
  result.metric("exp.point_s", total_seconds(spans, "sweep_point") / sweeps,
                "s");
  result.metric("faults.campaign_s",
                total_seconds(spans, "campaign_trial") / sweeps, "s");
  result.metric("protect.abft_s",
                (total_seconds(spans, "abft_verify") +
                 total_seconds(spans, "abft_reexec")) /
                    sweeps,
                "s");
}

}  // namespace perfbench
