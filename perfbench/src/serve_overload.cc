// serve-overload: a trained LeNet (scale 0.5) behind the float ->
// fixed16 -> fixed8 replica pool, replaying an open-loop Poisson trace
// at twice the float tier's sustainable rate with the degrade policy,
// then the same trace under a fixed lane-fault schedule with
// retry-with-redirect. One round is both replays.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "data/synthetic.h"
#include "faults/lane_faults.h"
#include "harness.h"
#include "nn/trainer.h"
#include "nn/zoo.h"
#include "obs/trace.h"
#include "serve/server.h"

namespace perfbench {
namespace {

using qnn::Tensor;
namespace serve = qnn::serve;

constexpr int kSetups = 5;
constexpr std::int64_t kRequests = 1600;
constexpr int kTrainEpochs = 2;
constexpr std::int64_t kTrainImages = 1000;
constexpr std::int64_t kTestImages = 500;
// Served top-1 must clear this (percent); a trained LeNet reaches ~95.
constexpr double kTop1Floor = 80.0;

struct Setup {
  qnn::data::Split split;
  std::unique_ptr<qnn::nn::Network> net;
  double test_accuracy = 0.0;
  std::vector<serve::TierSpec> tiers;
  std::unique_ptr<serve::ReplicaPool> pool;        // 1 replica per tier
  std::unique_ptr<serve::ReplicaPool> chaos_pool;  // 2 replicas per tier
  serve::Tick sustain = 0;  // ticks per image the float tier sustains
};

Setup build(std::uint64_t seed) {
  Setup s;
  qnn::data::SyntheticConfig dc;
  dc.num_train = kTrainImages;
  dc.num_test = kTestImages;
  dc.seed = seed;
  s.split = qnn::data::make_mnist_like(dc);
  qnn::nn::ZooConfig zc;
  zc.channel_scale = 0.5;
  zc.init_seed = seed;
  s.net = qnn::nn::make_lenet(zc);
  qnn::nn::TrainConfig tc;
  tc.epochs = kTrainEpochs;
  tc.sgd.learning_rate = 0.02;
  tc.sgd.step_epochs = 1;
  tc.shuffle_seed = seed;
  qnn::nn::train(*s.net, s.split.train, tc);
  s.test_accuracy = qnn::nn::evaluate(*s.net, s.split.test);
  s.tiers = serve::default_tier_lattice();
  serve::derive_tier_costs(*s.net, qnn::nn::input_shape_for("lenet"),
                           &s.tiers);
  const Tensor calibration = qnn::data::batch_images(s.split.train, 0, 64);
  s.pool = std::make_unique<serve::ReplicaPool>(*s.net, calibration, s.tiers);
  s.chaos_pool =
      std::make_unique<serve::ReplicaPool>(*s.net, calibration, s.tiers, 2);
  s.sustain = s.tiers[0].ticks_per_image + s.tiers[0].batch_overhead_ticks / 8;
  return s;
}

// Hang, weight corruption and a crash, at fixed virtual ticks.
qnn::faults::LaneFaultSchedule chaos_schedule(serve::Tick sustain) {
  qnn::faults::LaneFaultSchedule schedule;
  qnn::faults::LaneFault hang;
  hang.kind = qnn::faults::LaneFaultKind::kHangLane;
  hang.tier = 0;
  hang.replica = 0;
  hang.at_tick = 0;
  hang.hang_ticks = 100 * sustain;
  schedule.faults.push_back(hang);
  qnn::faults::LaneFault corrupt;
  corrupt.kind = qnn::faults::LaneFaultKind::kCorruptLane;
  corrupt.tier = 0;
  corrupt.replica = 1;
  corrupt.at_tick = 4 * sustain;
  corrupt.corrupt_flips = 16;
  corrupt.seed = 7;
  schedule.faults.push_back(corrupt);
  qnn::faults::LaneFault crash;
  crash.kind = qnn::faults::LaneFaultKind::kCrashLane;
  crash.tier = 1;
  crash.replica = 0;
  crash.at_tick = 8 * sustain;
  schedule.faults.push_back(crash);
  qnn::faults::validate_schedule(schedule);
  return schedule;
}

struct Replay {
  serve::ReplicaPool* pool;
  const qnn::faults::LaneFaultSchedule* chaos;  // null: no faults
  const char* label;
};

serve::ServerConfig server_config(const Setup& s,
                                  const qnn::faults::LaneFaultSchedule* chaos) {
  const serve::Tick deadline = 48 * s.sustain;
  serve::ServerConfig cfg;
  cfg.queue_capacity = 64;
  cfg.batcher.max_batch = 8;
  cfg.batcher.batch_window = s.tiers[0].ticks_per_image;
  cfg.controller.high_depth_fraction = 0.25;
  cfg.controller.low_depth_fraction = 0.0625;
  cfg.controller.p99_high_ticks = deadline / 2;
  cfg.controller.p99_low_ticks = deadline / 4;
  cfg.controller.dwell_ticks = 4 * s.sustain;
  cfg.policy = serve::AdmissionPolicy::kDegrade;
  cfg.chaos = chaos;
  const qnn::data::Dataset* test = &s.split.test;
  cfg.payload = [test](const serve::TraceRequest& tr, const qnn::Shape&) {
    return qnn::data::batch_images(
        *test, static_cast<std::int64_t>(tr.payload_seed % test->size()), 1);
  };
  return cfg;
}

std::int64_t test_index(const Setup& s, const serve::TraceRequest& tr) {
  return static_cast<std::int64_t>(tr.payload_seed % s.split.test.size());
}

// Restores every replica whose weights a chaos replay corrupted, so the
// next replay starts from the golden image.
void repair(serve::ReplicaPool& pool, Result& result) {
  for (int t = 0; t < pool.num_tiers(); ++t)
    for (int r = 0; r < pool.replicas_per_tier(); ++r)
      if (pool.param_crc(t, r) != pool.golden_param_crc(t))
        result.check(pool.rescrub_replica(t, r), "replica rescrub failed");
}

struct RoundStats {
  double wall_s = 0.0;
  std::int64_t served = 0;
  std::vector<serve::ServeResult> results;  // one per replay
};

RoundStats run_round(Setup& s, const std::vector<Replay>& replays,
                     const serve::ArrivalTrace& trace, Result& result) {
  RoundStats rs;
  for (const Replay& rp : replays) {
    serve::Server server(*rp.pool, server_config(s, rp.chaos));
    const double t0 = now_s();
    serve::ServeResult r = server.run_trace(trace);
    rs.wall_s += now_s() - t0;
    const serve::ServeStats& st = r.stats;
    const std::int64_t lost = st.rejected_full + st.rejected_expired +
                              st.rejected_shutdown + st.expired_in_queue +
                              st.failed;
    result.attempt(st.offered, lost);
    rs.served += st.served;
    if (rp.chaos) repair(*rp.pool, result);
    rs.results.push_back(std::move(r));
  }
  return rs;
}

// Stacks the payloads of one recorded batch in row order.
Tensor batch_payload(const Setup& s, const serve::ArrivalTrace& trace,
                     const serve::BatchRecord& b) {
  const std::int64_t n = static_cast<std::int64_t>(b.request_ids.size());
  const qnn::Shape one = trace.sample_shape();
  Tensor out(qnn::Shape{n, one[1], one[2], one[3]});
  const std::int64_t row = out.count() / n;
  for (std::int64_t i = 0; i < n; ++i) {
    const Tensor x = qnn::data::batch_images(
        s.split.test,
        test_index(s, trace.requests[static_cast<std::size_t>(
                          b.request_ids[static_cast<std::size_t>(i)])]),
        1);
    std::memcpy(out.data() + i * row, x.data(), sizeof(float) * row);
  }
  return out;
}

// Re-executes every recorded batch of a round through ReplicaPool::
// forward inside a "bench.fwd.<tier>" span; returns the seconds spent.
double reexecute(Setup& s, const std::vector<Replay>& replays,
                 const RoundStats& rs, const serve::ArrivalTrace& trace,
                 Result& result) {
  static const char* const kTierSpans[] = {
      "bench.fwd.float", "bench.fwd.fixed16", "bench.fwd.fixed8"};
  double secs = 0.0;
  for (std::size_t k = 0; k < replays.size(); ++k) {
    const serve::ServeResult& r = rs.results[k];
    std::vector<const serve::Response*> by_id(trace.requests.size());
    for (const serve::Response& resp : r.responses)
      by_id[static_cast<std::size_t>(resp.id)] = &resp;
    for (const serve::BatchRecord& b : r.batches) {
      const Tensor x = batch_payload(s, trace, b);
      const double t0 = now_s();
      Tensor y;
      {
        qnn::obs::TraceSpan span(kTierSpans[b.tier], "bench", b.tier);
        y = replays[k].pool->forward(b.tier, b.replica, x);
      }
      secs += now_s() - t0;
      const std::int64_t row = y.count() / y.shape()[0];
      bool same = true;
      for (std::size_t i = 0; i < b.request_ids.size(); ++i) {
        const serve::Response* resp =
            by_id[static_cast<std::size_t>(b.request_ids[i])];
        same = same && resp &&
               static_cast<std::int64_t>(resp->output.size()) == row &&
               std::memcmp(y.data() + static_cast<std::int64_t>(i) * row,
                           resp->output.data(), sizeof(float) * row) == 0;
      }
      result.check(same, std::string(replays[k].label) +
                             ": re-executed batch differs from its responses");
    }
  }
  return secs;
}

// Conservation, per-response outputs against batch-1 forwards, and the
// served top-1 floor.
void check_round(Setup& s, const std::vector<Replay>& replays,
                 const RoundStats& rs, const serve::ArrivalTrace& trace,
                 const Options& opt, Result& result) {
  result.check(s.test_accuracy >= kTop1Floor,
               "trained LeNet below the top-1 floor");
  for (std::size_t k = 0; k < replays.size(); ++k) {
    const serve::ServeResult& r = rs.results[k];
    const serve::ServeStats& st = r.stats;
    ServeCounts c;
    c.offered = st.offered;
    c.served = st.served;
    c.rejected = st.rejected_full + st.rejected_expired + st.rejected_shutdown;
    c.expired = st.expired_in_queue;
    c.failed = st.failed;
    if (opt.inject == "serve-count") ++c.served;
    const std::string label = replays[k].label;
    std::fprintf(stderr,
                 "serve-overload: %s offered %lld served %lld rejected %lld "
                 "expired %lld failed %lld, %zu batches, %lld downshifts, "
                 "%lld retries, %lld in deadline, p99 %.0f ticks\n",
                 label.c_str(), static_cast<long long>(c.offered),
                 static_cast<long long>(c.served),
                 static_cast<long long>(c.rejected),
                 static_cast<long long>(c.expired),
                 static_cast<long long>(c.failed), r.batches.size(),
                 static_cast<long long>(st.downshifts),
                 static_cast<long long>(st.retries),
                 static_cast<long long>(st.served_within_deadline),
                 st.p99_latency_ticks);
    result.check(conserved(c), label + ": offered != served + rejected + "
                                       "expired + failed");
    result.check(static_cast<std::int64_t>(r.responses.size()) == st.served,
                 label + ": response count differs from served");
    std::int64_t top1 = 0;
    bool outputs_ok = true;
    for (const serve::Response& resp : r.responses) {
      const std::int64_t idx =
          test_index(s, trace.requests[static_cast<std::size_t>(resp.id)]);
      const Tensor y = replays[k].pool->forward(
          resp.tier, resp.replica,
          qnn::data::batch_images(s.split.test, idx, 1));
      outputs_ok = outputs_ok &&
                   static_cast<std::size_t>(y.count()) ==
                       resp.output.size() &&
                   std::memcmp(y.data(), resp.output.data(),
                               sizeof(float) * resp.output.size()) == 0;
      if (resp.predicted == s.split.test.labels[static_cast<std::size_t>(idx)])
        ++top1;
    }
    result.check(outputs_ok, label + ": a response differs from the batch-1 "
                                     "forward of its payload on its tier");
    const double pct = r.responses.empty()
                           ? 0.0
                           : 100.0 * static_cast<double>(top1) /
                                 static_cast<double>(r.responses.size());
    result.check(pct >= kTop1Floor, label + ": served top-1 below floor");
  }
}

bool same_replay(const RoundStats& a, const RoundStats& b) {
  for (std::size_t k = 0; k < a.results.size(); ++k)
    if (a.results[k].digest() != b.results[k].digest()) return false;
  return true;
}

}  // namespace

void run_serve_overload(const Options& opt, Result& result) {
  std::vector<double> setups;
  std::unique_ptr<Setup> s;
  const int setup_reps = opt.trace ? 1 : kSetups;
  if (opt.trace) qnn::obs::set_trace_enabled(true);
  for (int k = 0; k < setup_reps; ++k) {
    s.reset();
    const double t0 = now_s();
    s = std::make_unique<Setup>(build(opt.seed));
    setups.push_back(now_s() - t0);
  }
  qnn::obs::set_trace_enabled(false);

  serve::OpenLoopSpec spec;
  spec.num_requests = kRequests;
  spec.mean_interarrival_ticks = static_cast<double>(s->sustain) / 2.0;
  spec.relative_deadline_ticks = 48 * s->sustain;
  spec.seed = opt.seed;
  const serve::ArrivalTrace trace =
      serve::make_open_loop_trace(spec, {1, 28, 28});
  const qnn::faults::LaneFaultSchedule chaos = chaos_schedule(s->sustain);
  const std::vector<Replay> replays = {{s->pool.get(), nullptr, "overload"},
                                       {s->chaos_pool.get(), &chaos, "chaos"}};

  if (opt.trace) {
    const std::vector<Span> setup = drain_spans(result);
    double train_s = total_seconds(setup, "train_epoch");
    result.metric("nn.train.img_per_s",
                  kTrainImages * kTrainEpochs / train_s, "img/s");
    double eval_imgs = 0.0;
    for (const Span& sp : setup)
      if (sp.name == "evaluate") eval_imgs += static_cast<double>(sp.arg);
    result.metric("nn.evaluate.img_per_s",
                  eval_imgs / total_seconds(setup, "evaluate"), "img/s");
  }

  // Warm-up round, also the round every check runs on.
  const RoundStats first = run_round(*s, replays, trace, result);
  check_round(*s, replays, first, trace, opt, result);

  std::vector<double> rates, walls;
  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  const double t_end = now_s() + budget;
  while (walls.size() < 3 || now_s() < t_end) {
    const RoundStats rs = run_round(*s, replays, trace, result);
    result.check(same_replay(rs, first), "replay not repeatable");
    rates.push_back(static_cast<double>(rs.served) / rs.wall_s);
    walls.push_back(rs.wall_s);
  }
  if (!opt.trace) {
    result.metric("img_per_s", median(rates), "img/s");
    result.metric("setup_s", median(setups), "s");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Traced rounds for the self times and the trace overhead.
  std::vector<double> traced_walls;
  const std::int64_t tasks0 = registry_counter("pool.tasks");
  qnn::obs::set_trace_enabled(true);
  const double t_traced = now_s() + opt.seconds / 2;
  while (traced_walls.size() < 3 || now_s() < t_traced)
    traced_walls.push_back(run_round(*s, replays, trace, result).wall_s);
  qnn::obs::set_trace_enabled(false);
  const double rounds = static_cast<double>(traced_walls.size());
  result.metric("util.thread_pool.tasks",
                static_cast<double>(registry_counter("pool.tasks") - tasks0) /
                    rounds,
                "count");
  result.metric("obs.trace_overhead", median(traced_walls) / median(walls),
                "ratio");
  report_self_times(drain_spans(result), rounds, result);

  // Host-time split of one round: batch forwards re-executed, the
  // completion audit (one param_crc per execution), and the rest.
  const double forward_s = reexecute(*s, replays, first, trace, result);
  qnn::obs::set_trace_enabled(true);
  reexecute(*s, replays, first, trace, result);
  qnn::obs::set_trace_enabled(false);
  report_path_fold(drain_spans(result), 1.0, result);

  double audit_s = 0.0;
  for (std::size_t k = 0; k < replays.size(); ++k) {
    serve::ReplicaPool& pool = *replays[k].pool;
    std::vector<double> crc_s(static_cast<std::size_t>(pool.num_tiers()));
    for (int t = 0; t < pool.num_tiers(); ++t) {
      std::vector<double> reps;
      for (int i = 0; i < 9; ++i) {
        const double t0 = now_s();
        pool.param_crc(t, 0);
        reps.push_back(now_s() - t0);
      }
      crc_s[static_cast<std::size_t>(t)] = median(reps);
    }
    const serve::ServeResult& r = first.results[k];
    for (const serve::BatchRecord& b : r.batches)
      audit_s += crc_s[static_cast<std::size_t>(b.tier)];
    audit_s += static_cast<double>(r.stats.discarded_results) * crc_s[0];
  }
  result.metric("serve.forward_s", forward_s, "s");
  result.metric("serve.audit_s", audit_s, "s");
  result.metric("serve.loop_s", median(walls) - forward_s - audit_s, "s");

  std::int64_t batches = 0, served = 0, downshifts = 0, retries = 0,
               redirected = 0, in_deadline = 0;
  double energy = 0.0;
  for (const serve::ServeResult& r : first.results) {
    batches += static_cast<std::int64_t>(r.batches.size());
    served += r.stats.served;
    downshifts += r.stats.downshifts;
    retries += r.stats.retries;
    redirected += r.stats.redirected;
    in_deadline += r.stats.served_within_deadline;
    energy += r.stats.total_energy_uj;
  }
  result.metric("serve.batches", static_cast<double>(batches), "count");
  result.metric("serve.mean_batch",
                static_cast<double>(served) / static_cast<double>(batches),
                "req/batch");
  result.metric("serve.downshifts", static_cast<double>(downshifts), "count");
  result.metric("serve.retries", static_cast<double>(retries), "count");
  result.metric("serve.redirected", static_cast<double>(redirected), "count");
  result.metric("serve.in_deadline", static_cast<double>(in_deadline),
                "count");
  result.metric("serve.p99_ticks", first.results[0].stats.p99_latency_ticks,
                "ticks");
  result.metric("serve.energy_uj_per_req",
                energy / static_cast<double>(served), "uJ/req");
}

}  // namespace perfbench
