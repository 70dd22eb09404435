// zoo-infer: frozen batch-32 inference of the paper's full-scale LeNet,
// ConvNet and ALEX on every precision path, at one thread.
//
// A round runs one batch forward of every (network, path) cell, in an
// order rotated each round; this machine's speed drifts within and
// across processes, so interleaving makes the drift hit every path
// alike and the per-cell medians comparable.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "data/synthetic.h"
#include "exp/sweep.h"
#include "harness.h"
#include "nn/zoo.h"
#include "obs/trace.h"
#include "quant/qconfig.h"
#include "quant/qnetwork.h"
#include "quant/quantizer.h"

namespace perfbench {
namespace {

using qnn::Tensor;
namespace nn = qnn::nn;
namespace quant = qnn::quant;

constexpr std::int64_t kBatch = 32;
constexpr int kBatches = 2;  // distinct input batches per network
constexpr int kSetups = 3;   // set-up repetitions behind setup_s
// Largest distance, in output grid steps, of a native fixed-point
// forward from the same network's unfrozen fake-quant forward. At
// fixed(16,16) the float32 fake-quant path can round an inner site one
// step away from the exact integer engine and the step propagates (see
// CHANGES.md): seeds 1-160 read at most 3 steps, and the envelope is
// that maximum plus one step.
constexpr double kFixed8Steps = 1.0;
constexpr double kFixed16Steps = 4.0;

struct PathDef {
  const char* name;
  const char* span;  // bench span around this path's forwards
  quant::PrecisionConfig config;
};

const std::vector<PathDef>& paths() {
  static const std::vector<PathDef> kPaths = {
      {"float", "bench.fwd.float", quant::float_config()},
      {"fixed16", "bench.fwd.fixed16", quant::fixed_config(16, 16)},
      {"fixed8", "bench.fwd.fixed8", quant::fixed_config(8, 8)},
      {"pow2", "bench.fwd.pow2", quant::pow2_config(6, 16)},
      {"binary", "bench.fwd.binary", quant::binary_config(16)},
  };
  return kPaths;
}

struct NetDef {
  const char* net;
  const char* dataset;
};
constexpr NetDef kNets[] = {
    {"lenet", "mnist"}, {"convnet", "svhn"}, {"alex", "cifar"}};
constexpr int kNumNets = 3;

std::size_t cell_index(int net, std::size_t path) {
  return static_cast<std::size_t>(net) * paths().size() + path;
}

struct Cell {
  int net = 0;
  int path = 0;
  std::unique_ptr<nn::Network> network;
  std::unique_ptr<quant::QuantizedNetwork> qnet;  // null on the float path
  nn::Model& model() {
    return qnet ? static_cast<nn::Model&>(*qnet) : *network;
  }
};

struct Zoo {
  std::vector<qnn::data::Split> splits;      // per network
  std::vector<std::vector<Tensor>> inputs;  // per network, kBatches each
  std::vector<Cell> cells;                   // network-major
};

// Builds every network (He-initialised from the seed), one copy per
// path, and calibrates and freezes the quantized ones.
Zoo build_zoo(std::uint64_t seed) {
  Zoo z;
  for (const NetDef& nd : kNets) {
    qnn::data::SyntheticConfig dc;
    dc.num_train = kBatch;
    dc.num_test = kBatch * kBatches;
    dc.seed = seed;
    z.splits.push_back(qnn::data::make_dataset(nd.dataset, dc));
    std::vector<Tensor> in;
    for (int b = 0; b < kBatches; ++b)
      in.push_back(qnn::data::batch_images(z.splits.back().test, b * kBatch,
                                           kBatch));
    z.inputs.push_back(std::move(in));
  }
  for (int n = 0; n < kNumNets; ++n) {
    nn::ZooConfig zc;
    zc.channel_scale = 1.0;
    zc.init_seed = seed;
    const auto base = nn::make_network(kNets[n].net, zc);
    const Tensor calibration =
        qnn::data::batch_images(z.splits[n].train, 0, kBatch);
    for (int p = 0; p < static_cast<int>(paths().size()); ++p) {
      Cell c;
      c.net = n;
      c.path = p;
      c.network = std::make_unique<nn::Network>(base->clone());
      c.network->set_training_mode(false);
      if (!paths()[p].config.is_float()) {
        c.qnet = std::make_unique<quant::QuantizedNetwork>(
            *c.network, paths()[p].config);
        {
          qnn::obs::TraceSpan span("bench.calibrate", "bench", n);
          c.qnet->calibrate(calibration);
        }
        qnn::obs::TraceSpan span("bench.freeze", "bench", n);
        c.qnet->freeze_inference();
      }
      z.cells.push_back(std::move(c));
    }
  }
  return z;
}

// Runs whole rounds until `seconds` have passed (at least `min_rounds`),
// appending each cell's forward seconds to times[cell] and each round's
// seconds to round_times. Every output is checked against the cell's
// reference output for the same batch.
void run_rounds(Zoo& z, std::vector<std::vector<Tensor>>& refs,
                double seconds, int min_rounds, int& round_index,
                std::vector<std::vector<double>>& times,
                std::vector<double>& round_times, Result& result) {
  const int cells = static_cast<int>(z.cells.size());
  const double t_end = now_s() + seconds;
  for (int r = 0; r < min_rounds || now_s() < t_end; ++r, ++round_index) {
    const int b = round_index % kBatches;
    const double r0 = now_s();
    for (int j = 0; j < cells; ++j) {
      Cell& c = z.cells[static_cast<std::size_t>((j + round_index) % cells)];
      const Tensor& x = z.inputs[static_cast<std::size_t>(c.net)]
                                [static_cast<std::size_t>(b)];
      const double t0 = now_s();
      Tensor y;
      {
        qnn::obs::TraceSpan span(paths()[c.path].span, "bench", c.net);
        y = c.model().forward(x);
      }
      times[cell_index(c.net, c.path)].push_back(now_s() -
                                                                    t0);
      Tensor& ref = refs[cell_index(c.net, c.path)]
                        [static_cast<std::size_t>(b)];
      bool ok = all_finite(y);
      if (ref.empty()) ref = y;
      ok = ok && bytes_equal(y, ref);
      result.attempt(1, ok ? 0 : 1);
      result.check(ok, std::string(kNets[c.net].net) + "/" +
                           paths()[c.path].name +
                           ": forward not finite or not repeatable");
    }
    round_times.push_back(now_s() - r0);
  }
}

// Per-path img/s: geometric mean over the networks of each network's
// median batch img/s.
std::vector<double> path_img_per_s(
    const std::vector<std::vector<double>>& times) {
  std::vector<double> out;
  for (std::size_t p = 0; p < paths().size(); ++p) {
    std::vector<double> per_net;
    for (int n = 0; n < kNumNets; ++n)
      per_net.push_back(kBatch / median(times[cell_index(n, p)]));
    out.push_back(geomean(per_net));
  }
  return out;
}

// The correctness checks that need extra forwards; run after timing.
void check_zoo(Zoo& z, std::vector<std::vector<Tensor>>& refs,
               const Options& opt, Result& result) {
  for (Cell& c : z.cells) {
    const std::string label =
        std::string(kNets[c.net].net) + "/" + paths()[c.path].name;
    Tensor ref = refs[cell_index(c.net, c.path)][0];
    const qnn::data::Dataset& test = z.splits[static_cast<std::size_t>(c.net)]
                                         .test;
    if (opt.inject == "swap-rows" && c.net == 0 && c.path == 0) {
      const std::int64_t row = ref.count() / kBatch;
      for (std::int64_t i = 0; i < row; ++i)
        std::swap(ref.data()[i], ref.data()[row + i]);
    }
    std::vector<Tensor> singles;
    for (std::int64_t i = 0; i < kBatch; ++i)
      singles.push_back(
          c.model().forward(qnn::data::batch_images(test, i, 1)));
    result.check(rows_match_singles(ref, singles),
                 label + ": batch rows differ from per-sample forwards");
    if (!c.qnet) continue;

    const bool fixed = paths()[c.path].config.kind ==
                       quant::PrecisionKind::kFixed;
    result.check(c.qnet->native_int_active() == fixed,
                 label + ": native integer engine active on the wrong path");
    const auto* out_q = dynamic_cast<const quant::FixedQuantizer*>(
        &c.qnet->data_quantizer(c.qnet->num_sites() - 1));
    result.check(out_q && out_q->format().has_value(),
                 label + ": output site is not fixed point");
    if (!out_q || !out_q->format()) continue;
    const qnn::FixedPointFormat& f = *out_q->format();
    if (opt.inject == "off-grid" && c.path == 2)
      ref.data()[0] += static_cast<float>(f.step() / 2);
    result.check(off_grid_count(ref, f.step(), f.min_value(),
                                f.max_value()) == 0,
                 label + ": output off its site's grid or range");

    c.qnet->thaw_inference();
    const Tensor unfrozen = c.qnet->forward(
        z.inputs[static_cast<std::size_t>(c.net)][0]);
    if (fixed) {
      const double steps = max_abs_diff(ref, unfrozen) / f.step();
      const double bound = paths()[c.path].config.input_bits == 8
                               ? kFixed8Steps
                               : kFixed16Steps;
      std::fprintf(stderr,
                   "zoo-infer: %s native vs fake-quant: %g output steps "
                   "(bound %g)\n",
                   label.c_str(), steps, bound);
      result.check(steps <= bound,
                   label + ": native output too many grid steps from the "
                           "fake-quant forward");
    } else {
      result.check(bytes_equal(ref, unfrozen),
                   label + ": frozen output differs from unfrozen forward");
    }
  }
}

// Modeled cost per image beside the measured time, for the README.
void print_reference_figures(const Zoo& z,
                             const std::vector<std::vector<double>>& times) {
  for (const Cell& c : z.cells) {
    const auto sched = qnn::exp::schedule_for(
        *c.network, nn::input_shape_for(kNets[c.net].net),
        paths()[c.path].config);
    const double ms = 1e3 * median(times[cell_index(c.net, c.path)]);
    std::fprintf(stderr,
                 "zoo-infer: %-7s %-7s %8.2f ms/forward  %6.2fx float  "
                 "%9.3f uJ/img  %10lld cycles/img\n",
                 kNets[c.net].net, paths()[c.path].name, ms,
                 ms / (1e3 * median(times[cell_index(c.net, 0)])),
                 qnn::exp::inference_energy_uj(
                     *c.network, nn::input_shape_for(kNets[c.net].net),
                     paths()[c.path].config),
                 static_cast<long long>(sched.total_cycles));
  }
}

}  // namespace

void run_zoo_infer(const Options& opt, Result& result) {
  const std::size_t cells = kNumNets * paths().size();
  std::vector<std::vector<Tensor>> refs(cells, std::vector<Tensor>(kBatches));
  std::vector<std::vector<double>> times(cells);
  std::vector<double> round_times;
  int round_index = 0;

  // A traced run sets up once, traced, for the calibrate/freeze spans,
  // and splits its time between untraced and traced rounds.
  std::vector<double> setups;
  std::unique_ptr<Zoo> zoo;
  qnn::obs::set_trace_enabled(opt.trace);
  for (int s = 0; s < (opt.trace ? 1 : kSetups); ++s) {
    zoo.reset();
    const double t0 = now_s();
    zoo = std::make_unique<Zoo>(build_zoo(opt.seed));
    setups.push_back(now_s() - t0);
  }
  qnn::obs::set_trace_enabled(false);

  // Warm-up round: fills caches and the reference outputs of batch 0.
  std::vector<std::vector<double>> warm(cells);
  std::vector<double> warm_rounds;
  run_rounds(*zoo, refs, 0.0, 1, round_index, warm, warm_rounds, result);
  round_index = 0;
  run_rounds(*zoo, refs, opt.trace ? opt.seconds / 2 : opt.seconds, 3,
             round_index, times, round_times, result);
  if (!opt.trace) {
    const std::vector<double> per_path = path_img_per_s(times);
    result.metric("img_per_s", geomean(per_path), "img/s");
    result.metric("setup_s", median(setups), "s");
    print_reference_figures(*zoo, times);
    check_zoo(*zoo, refs, opt, result);
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  const std::vector<Span> setup = drain_spans(result);
  result.metric("quant.calibrate_s", total_seconds(setup, "bench.calibrate"),
                "s");
  result.metric("quant.freeze_s", total_seconds(setup, "bench.freeze"), "s");
  const std::vector<double> per_path = path_img_per_s(times);
  for (std::size_t p = 0; p < paths().size(); ++p)
    result.metric(std::string(paths()[p].name) + ".img_per_s", per_path[p],
                  "img/s");

  std::vector<std::vector<double>> traced_times(cells);
  std::vector<double> traced_rounds;
  const std::int64_t tasks0 = registry_counter("pool.tasks");
  qnn::obs::set_trace_enabled(true);
  run_rounds(*zoo, refs, opt.seconds / 2, 3, round_index, traced_times,
             traced_rounds, result);
  qnn::obs::set_trace_enabled(false);
  const double rounds = static_cast<double>(traced_rounds.size());
  result.metric("util.thread_pool.tasks",
                static_cast<double>(registry_counter("pool.tasks") - tasks0) /
                    rounds,
                "count");
  result.metric("obs.trace_overhead",
                median(traced_rounds) / median(round_times), "ratio");

  const std::vector<Span> spans = drain_spans(result);
  report_self_times(spans, rounds, result);
  report_path_fold(spans, rounds, result);
  check_zoo(*zoo, refs, opt, result);
}

}  // namespace perfbench
