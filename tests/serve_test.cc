// Tests for the inference serving layer (DESIGN.md §12): admission
// queue edge cases (zero/one capacity, expired-at-enqueue, shutdown),
// dynamic batching (max-batch vs. window close, window 0, expired
// drops, flush drain), overload-controller hysteresis, tier cost
// derivation, replica-pool equivalence with direct quantized forwards,
// and end-to-end server runs including the overload acceptance
// criterion: under >= 2x overload the degrade policy serves strictly
// more requests within deadline than reject-only and no-admission.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "nn/activation.h"
#include "nn/inner_product.h"
#include "nn/network.h"
#include "nn/zoo.h"
#include "serve/batcher.h"
#include "serve/controller.h"
#include "serve/queue.h"
#include "serve/server.h"
#include "serve/tiers.h"
#include "serve/trace.h"
#include "util/check.h"

namespace qnn::serve {
namespace {

Request make_request(std::int64_t id, Tick arrival, Tick deadline,
                     int tier = 0) {
  Request r;
  r.id = id;
  r.arrival = arrival;
  r.deadline = deadline;
  r.tier = tier;
  return r;
}

// --- bounded queue -----------------------------------------------------

TEST(BoundedQueue, ZeroCapacityRejectsEverything) {
  BoundedQueue q(0);
  EXPECT_EQ(q.try_push(make_request(1, 0, 100), 0),
            RejectReason::kQueueFull);
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueue, CapacityOneAdmitsExactlyOne) {
  BoundedQueue q(1);
  EXPECT_EQ(q.try_push(make_request(1, 0, 100), 0), RejectReason::kNone);
  EXPECT_EQ(q.try_push(make_request(2, 0, 100), 0),
            RejectReason::kQueueFull);
  std::vector<Request> out;
  EXPECT_EQ(q.drain(&out), 1u);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 1);
  // Draining frees the slot again.
  EXPECT_EQ(q.try_push(make_request(3, 0, 100), 0), RejectReason::kNone);
}

TEST(BoundedQueue, DeadlineExpiredAtEnqueueIsTyped) {
  BoundedQueue q(4);
  // deadline == now is already expired ("complete strictly before").
  EXPECT_EQ(q.try_push(make_request(1, 0, 50), 50),
            RejectReason::kDeadlineExpired);
  EXPECT_EQ(q.try_push(make_request(2, 0, 50), 51),
            RejectReason::kDeadlineExpired);
  EXPECT_EQ(q.try_push(make_request(3, 0, 50), 49), RejectReason::kNone);
}

TEST(BoundedQueue, CloseRejectsNewButKeepsQueued) {
  BoundedQueue q(4);
  EXPECT_EQ(q.try_push(make_request(1, 0, 100), 0), RejectReason::kNone);
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_EQ(q.try_push(make_request(2, 0, 100), 0),
            RejectReason::kShutdown);
  std::vector<Request> out;
  EXPECT_EQ(q.drain(&out), 1u);  // in-flight work survives shutdown
}

TEST(BoundedQueue, ExtraBacklogCountsAgainstCapacity) {
  BoundedQueue q(4);
  EXPECT_EQ(q.try_push(make_request(1, 0, 100), 0, /*extra_backlog=*/3),
            RejectReason::kNone);
  EXPECT_EQ(q.try_push(make_request(2, 0, 100), 0, /*extra_backlog=*/3),
            RejectReason::kQueueFull);
}

TEST(BoundedQueue, FifoOrderPreservedAcrossDrain) {
  BoundedQueue q(8);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(q.try_push(make_request(i, 0, 100), 0), RejectReason::kNone);
  }
  std::vector<Request> out;
  q.drain(&out);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(out[static_cast<size_t>(i)].id, i);
}

// Concurrent producers against one drainer: every push is accounted for
// exactly once (admitted or typed-rejected), no loss, no tearing. The
// serving replay engine is single-threaded; this covers the real-time
// ingestion path under TSan.
TEST(BoundedQueue, ConcurrentProducersAccountForEveryPush) {
  BoundedQueue q(64);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  std::atomic<int> admitted{0}, rejected{0};
  std::vector<std::thread> producers;
  std::atomic<bool> stop{false};
  std::vector<Request> drained;
  std::thread drainer([&] {
    std::vector<Request> chunk;
    while (!stop.load()) {
      chunk.clear();
      q.drain(&chunk);
      for (Request& r : chunk) drained.push_back(std::move(r));
    }
    chunk.clear();
    q.drain(&chunk);
    for (Request& r : chunk) drained.push_back(std::move(r));
  });
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const std::int64_t id = p * kPerProducer + i;
        if (q.try_push(make_request(id, 0, 100), 0) == RejectReason::kNone) {
          admitted.fetch_add(1);
        } else {
          rejected.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  stop.store(true);
  drainer.join();
  EXPECT_EQ(admitted.load() + rejected.load(), kProducers * kPerProducer);
  EXPECT_EQ(drained.size(), static_cast<std::size_t>(admitted.load()));
}

// --- dynamic batcher ---------------------------------------------------

TEST(DynamicBatcher, WindowZeroClosesOnArrivalTick) {
  DynamicBatcher b(BatcherConfig{.max_batch = 8, .batch_window = 0}, 1);
  b.add(make_request(1, 5, 100), 5);
  std::vector<Request> expired;
  const auto batches = b.poll(5, &expired);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].requests.size(), 1u);
  EXPECT_TRUE(expired.empty());
  EXPECT_TRUE(b.empty());
}

TEST(DynamicBatcher, ClosesOnMaxBatchBeforeWindow) {
  DynamicBatcher b(BatcherConfig{.max_batch = 3, .batch_window = 1000}, 1);
  std::vector<Request> expired;
  for (int i = 0; i < 7; ++i) b.add(make_request(i, 0, 5000), 0);
  const auto batches = b.poll(0, &expired);
  ASSERT_EQ(batches.size(), 2u);  // two full batches, one remainder waits
  EXPECT_EQ(batches[0].requests.size(), 3u);
  EXPECT_EQ(batches[1].requests.size(), 3u);
  EXPECT_EQ(b.pending_total(), 1u);
  EXPECT_EQ(b.next_window_tick(), 1000);
}

TEST(DynamicBatcher, WindowMeasuredFromOldestPending) {
  DynamicBatcher b(BatcherConfig{.max_batch = 8, .batch_window = 10}, 1);
  std::vector<Request> expired;
  b.add(make_request(1, 0, 5000), 0);
  b.add(make_request(2, 9, 5000), 9);
  EXPECT_TRUE(b.poll(9, &expired).empty());  // window not yet elapsed
  const auto batches = b.poll(10, &expired);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].requests.size(), 2u);  // late joiner rides along
}

TEST(DynamicBatcher, ExpiredPendingDroppedNotServed) {
  DynamicBatcher b(BatcherConfig{.max_batch = 8, .batch_window = 40}, 1);
  std::vector<Request> expired;
  b.add(make_request(1, 0, 50), 0);
  b.add(make_request(2, 0, 5000), 0);
  const auto batches = b.poll(60, &expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].id, 1);
  // Remaining request's window (40 ticks from tick 0) elapsed at 60.
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].requests[0].id, 2);
}

TEST(DynamicBatcher, FlushDrainsEverythingInMaxBatchChunks) {
  DynamicBatcher b(BatcherConfig{.max_batch = 4, .batch_window = 1000}, 2);
  std::vector<Request> expired;
  for (int i = 0; i < 6; ++i) b.add(make_request(i, 0, 5000, i % 2), 0);
  const auto batches = b.flush(0, &expired);
  ASSERT_EQ(batches.size(), 2u);  // 3 requests per tier, one batch each
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.next_window_tick(), DynamicBatcher::kNoTick);
}

TEST(DynamicBatcher, TiersNeverMix) {
  DynamicBatcher b(BatcherConfig{.max_batch = 8, .batch_window = 0}, 3);
  std::vector<Request> expired;
  b.add(make_request(1, 0, 100, 0), 0);
  b.add(make_request(2, 0, 100, 2), 0);
  const auto batches = b.poll(0, &expired);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].tier, 0);
  EXPECT_EQ(batches[1].tier, 2);
}

// --- overload controller -----------------------------------------------

ControllerConfig depth_only_config() {
  ControllerConfig c;
  c.high_depth_fraction = 0.75;
  c.low_depth_fraction = 0.25;
  c.dwell_ticks = 10;
  return c;
}

TEST(OverloadController, DownshiftsOnDepthAndRecovers) {
  OverloadController ctl(depth_only_config(), 3);
  EXPECT_EQ(ctl.current_tier(), 0);
  ctl.update(0, 80, 100, 0.0);
  EXPECT_EQ(ctl.current_tier(), 1);
  ctl.update(20, 80, 100, 0.0);
  EXPECT_EQ(ctl.current_tier(), 2);
  ctl.update(40, 80, 100, 0.0);  // already at cheapest tier
  EXPECT_EQ(ctl.current_tier(), 2);
  ctl.update(60, 10, 100, 0.0);
  ctl.update(80, 10, 100, 0.0);
  EXPECT_EQ(ctl.current_tier(), 0);
  EXPECT_EQ(ctl.downshifts(), 2);
  EXPECT_EQ(ctl.upshifts(), 2);
}

TEST(OverloadController, DwellPreventsFlapping) {
  OverloadController ctl(depth_only_config(), 3);
  ctl.update(0, 80, 100, 0.0);
  EXPECT_EQ(ctl.current_tier(), 1);
  // Still inside the dwell: neither hot nor cool signals may move it.
  ctl.update(5, 80, 100, 0.0);
  ctl.update(9, 0, 100, 0.0);
  EXPECT_EQ(ctl.current_tier(), 1);
  ctl.update(10, 0, 100, 0.0);  // dwell elapsed, pressure cleared
  EXPECT_EQ(ctl.current_tier(), 0);
}

TEST(OverloadController, MidbandHoldsTier) {
  OverloadController ctl(depth_only_config(), 3);
  ctl.update(0, 80, 100, 0.0);
  // Between low (25) and high (75): hysteresis band, no movement ever.
  for (Tick t = 20; t < 200; t += 20) ctl.update(t, 50, 100, 0.0);
  EXPECT_EQ(ctl.current_tier(), 1);
}

TEST(OverloadController, LatencySignalDownshiftsAndGatesRecovery) {
  ControllerConfig c = depth_only_config();
  c.p99_high_ticks = 1000;
  c.p99_low_ticks = 400;
  OverloadController ctl(c, 2);
  ctl.update(0, 0, 100, 2000.0);  // depth fine, p99 hot
  EXPECT_EQ(ctl.current_tier(), 1);
  ctl.update(20, 0, 100, 700.0);  // cool depth but p99 above low: hold
  EXPECT_EQ(ctl.current_tier(), 1);
  ctl.update(40, 0, 100, 300.0);
  EXPECT_EQ(ctl.current_tier(), 0);
}

TEST(OverloadController, ZeroBoundNeverDivides) {
  OverloadController ctl(depth_only_config(), 3);
  // bound == 0 with work queued reads as full pressure, not a division.
  ctl.update(0, 5, 0, 0.0);
  EXPECT_EQ(ctl.current_tier(), 1);
  // bound == 0 and nothing queued is no pressure at all: with the dwell
  // elapsed the controller recovers instead of crashing or sticking.
  ctl.update(10, 0, 0, 0.0);
  EXPECT_EQ(ctl.current_tier(), 0);
}

TEST(OverloadController, SingleTierLatticeNeverShifts) {
  OverloadController ctl(depth_only_config(), 1);
  for (Tick t = 0; t < 100; t += 10) ctl.update(t, 100, 100, 0.0);
  EXPECT_EQ(ctl.current_tier(), 0);
  EXPECT_EQ(ctl.downshifts(), 0);
  ctl.update(100, 0, 100, 0.0);
  EXPECT_EQ(ctl.upshifts(), 0);
}

TEST(OverloadController, ShiftAllowedAtExactDwellBoundary) {
  OverloadController ctl(depth_only_config(), 3);  // dwell_ticks = 10
  ctl.update(0, 80, 100, 0.0);
  EXPECT_EQ(ctl.current_tier(), 1);
  // "at least dwell_ticks between shifts": the boundary tick itself
  // (last_shift + dwell) is eligible, one tick earlier is not.
  ctl.update(9, 80, 100, 0.0);
  EXPECT_EQ(ctl.current_tier(), 1);
  ctl.update(10, 80, 100, 0.0);
  EXPECT_EQ(ctl.current_tier(), 2);
}

// --- tiers & replica pool ----------------------------------------------

std::unique_ptr<nn::Network> tiny_net(std::uint64_t seed = 4) {
  auto net = std::make_unique<nn::Network>("serve_tiny");
  net->add<nn::InnerProduct>(6, 12);
  net->add<nn::Relu>();
  net->add<nn::InnerProduct>(12, 3);
  Rng rng(seed);
  net->init_weights(rng);
  return net;
}

Tensor calib_batch(std::int64_t n = 16, std::uint64_t seed = 9) {
  Tensor t(Shape{n, 6});
  Rng rng(seed);
  t.fill_uniform(rng, 0, 1);
  return t;
}

TEST(Tiers, DerivedCostsScaleWithPrecision) {
  auto net = tiny_net();
  std::vector<TierSpec> tiers = default_tier_lattice();
  derive_tier_costs(*net, Shape{1, 6}, &tiers);
  ASSERT_EQ(tiers.size(), 3u);
  // Bit-serial cost model: fewer operand bits, fewer ticks per image.
  EXPECT_GT(tiers[0].ticks_per_image, tiers[1].ticks_per_image);
  EXPECT_GT(tiers[1].ticks_per_image, tiers[2].ticks_per_image);
  for (const TierSpec& t : tiers) {
    EXPECT_GE(t.ticks_per_image, 1);
    EXPECT_GT(t.energy_per_image_uj, 0.0);
  }
  // Cheaper precision is also cheaper energy (the paper's core knob).
  EXPECT_GT(tiers[0].energy_per_image_uj, tiers[2].energy_per_image_uj);
}

TEST(ReplicaPool, ForwardMatchesDirectQuantizedNetwork) {
  auto net = tiny_net();
  std::vector<TierSpec> tiers = default_tier_lattice();
  derive_tier_costs(*net, Shape{1, 6}, &tiers);
  const Tensor calib = calib_batch();
  ReplicaPool pool(*net, calib, tiers, /*replicas_per_tier=*/2);

  const Tensor x = calib_batch(4, 77);
  for (int t = 0; t < pool.num_tiers(); ++t) {
    // Reference: a fresh QuantizedNetwork over a clone of the master.
    auto ref_net = std::make_unique<nn::Network>(net->clone());
    quant::QuantizedNetwork ref(*ref_net, tiers[static_cast<size_t>(t)].precision);
    if (!ref.calibrated()) ref.calibrate(calib);
    // Pool replicas are frozen at build time; freeze the reference too
    // so both sides take the same path (fixed tiers: native int).
    ref.freeze_inference();
    const Tensor want = ref.forward(x);
    for (int r = 0; r < pool.replicas_per_tier(); ++r) {
      const Tensor got = pool.forward(t, r, x);
      ASSERT_EQ(got.count(), want.count());
      for (std::int64_t i = 0; i < want.count(); ++i) {
        EXPECT_EQ(got[i], want[i])
            << "tier " << t << " replica " << r << " elem " << i;
      }
    }
  }
}

// The completion audit CRCs every frozen parameter byte: one flipped bit
// at the start, middle or end of the largest tensor (LeNet-0.5's ip1
// weights, 400 KB, most of the image) moves the replica off its tier's
// golden CRC, and a rescrub brings it back.
TEST(ReplicaPool, AuditCatchesSingleBitFlipsAcrossLargestTensor) {
  nn::ZooConfig zc;
  zc.channel_scale = 0.5;
  auto net = nn::make_lenet(zc);
  std::vector<TierSpec> tiers = default_tier_lattice();
  derive_tier_costs(*net, nn::input_shape_for("lenet"), &tiers);
  Tensor calib(Shape{8, 1, 28, 28});
  Rng rng(5);
  calib.fill_uniform(rng, 0, 1);
  ReplicaPool pool(*net, calib, tiers);

  for (int t = 0; t < pool.num_tiers(); ++t) {
    nn::Param* largest = nullptr;
    for (nn::Param* p : pool.replica(t, 0).trainable_params()) {
      if (!largest || p->value.count() > largest->value.count()) largest = p;
    }
    ASSERT_NE(largest, nullptr);
    const std::int64_t n = largest->value.count();
    ASSERT_GE(n, 100000) << "expected the ip1 weights";
    ASSERT_EQ(pool.param_crc(t, 0), pool.golden_param_crc(t));
    const std::pair<std::int64_t, int> flips[] = {
        {0, 0}, {n / 2, 15}, {n - 1, 31}};
    for (const auto& [index, bit] : flips) {
      float& w = largest->value.data()[index];
      std::uint32_t bits;
      std::memcpy(&bits, &w, sizeof bits);
      bits ^= 1u << bit;
      std::memcpy(&w, &bits, sizeof bits);
      EXPECT_NE(pool.param_crc(t, 0), pool.golden_param_crc(t))
          << "tier " << t << " float " << index << " bit " << bit;
      EXPECT_TRUE(pool.rescrub_replica(t, 0))
          << "tier " << t << " float " << index << " bit " << bit;
      EXPECT_EQ(pool.param_crc(t, 0), pool.golden_param_crc(t));
    }
  }
}

// --- trace -------------------------------------------------------------

TEST(Trace, OpenLoopGeneratorIsDeterministicAndSorted) {
  OpenLoopSpec spec;
  spec.num_requests = 50;
  spec.mean_interarrival_ticks = 10.0;
  spec.seed = 3;
  const ArrivalTrace a = make_open_loop_trace(spec, {6});
  const ArrivalTrace b = make_open_loop_trace(spec, {6});
  ASSERT_EQ(a.requests.size(), 50u);
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].arrival, b.requests[i].arrival);
    EXPECT_EQ(a.requests[i].payload_seed, b.requests[i].payload_seed);
    if (i > 0) {
      EXPECT_GE(a.requests[i].arrival, a.requests[i - 1].arrival);
    }
    EXPECT_EQ(a.requests[i].deadline,
              a.requests[i].arrival + spec.relative_deadline_ticks);
  }
}

TEST(Trace, SaveLoadRoundTrips) {
  OpenLoopSpec spec;
  spec.num_requests = 20;
  spec.seed = 11;
  const ArrivalTrace a = make_open_loop_trace(spec, {1, 4, 4});
  const std::string path = ::testing::TempDir() + "/serve_trace.json";
  save_trace(path, a);
  const ArrivalTrace b = load_trace(path);
  EXPECT_EQ(b.sample_dims, a.sample_dims);
  ASSERT_EQ(b.requests.size(), a.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(b.requests[i].id, a.requests[i].id);
    EXPECT_EQ(b.requests[i].arrival, a.requests[i].arrival);
    EXPECT_EQ(b.requests[i].deadline, a.requests[i].deadline);
    EXPECT_EQ(b.requests[i].payload_seed, a.requests[i].payload_seed);
  }
}

TEST(Trace, LoaderRejectsUnsortedArrivals) {
  ArrivalTrace t;
  t.sample_dims = {6};
  TraceRequest r1, r2;
  r1.id = 0; r1.arrival = 10; r1.deadline = 20;
  r2.id = 1; r2.arrival = 5; r2.deadline = 20;
  t.requests = {r1, r2};
  const std::string path = ::testing::TempDir() + "/serve_bad_trace.json";
  save_trace(path, t);
  EXPECT_THROW(load_trace(path), CheckError);
}

// --- end-to-end server -------------------------------------------------

struct ServeFixture {
  std::unique_ptr<nn::Network> net = tiny_net();
  std::vector<TierSpec> tiers;
  std::unique_ptr<ReplicaPool> pool;

  ServeFixture() {
    tiers = default_tier_lattice();
    derive_tier_costs(*net, Shape{1, 6}, &tiers);
    pool = std::make_unique<ReplicaPool>(*net, calib_batch(), tiers);
  }

  // A trace at `rate` x the sustainable full-precision throughput.
  ArrivalTrace overload_trace(double rate, std::int64_t n,
                              Tick deadline_mult = 12) const {
    OpenLoopSpec spec;
    spec.num_requests = n;
    spec.mean_interarrival_ticks =
        static_cast<double>(tiers[0].ticks_per_image) / rate;
    spec.relative_deadline_ticks = deadline_mult * tiers[0].ticks_per_image;
    spec.seed = 99;
    return make_open_loop_trace(spec, {6});
  }

  ServerConfig config(AdmissionPolicy policy) const {
    ServerConfig cfg;
    cfg.queue_capacity = 16;
    cfg.batcher.max_batch = 4;
    cfg.batcher.batch_window = tiers[0].ticks_per_image;
    cfg.controller.high_depth_fraction = 0.5;
    cfg.controller.low_depth_fraction = 0.125;
    cfg.controller.dwell_ticks = 2 * tiers[0].ticks_per_image;
    cfg.policy = policy;
    return cfg;
  }
};

TEST(Server, UnderloadServesEverythingAtFullPrecision) {
  ServeFixture f;
  const ArrivalTrace trace = f.overload_trace(0.25, 40);
  Server server(*f.pool, f.config(AdmissionPolicy::kDegrade));
  const ServeResult result = server.run_trace(trace);
  EXPECT_EQ(result.stats.served, 40);
  EXPECT_EQ(result.stats.served_within_deadline, 40);
  EXPECT_EQ(result.stats.rejected_full, 0);
  EXPECT_EQ(result.stats.served_per_tier[0], 40);  // never downshifted
  EXPECT_EQ(result.responses.size(), 40u);
  for (const Response& r : result.responses) {
    EXPECT_EQ(r.output.size(), 3u);
    EXPECT_GE(r.predicted, 0);
    EXPECT_LT(r.predicted, 3);
  }
}

TEST(Server, ZeroCapacityQueueRejectsEveryRequest) {
  ServeFixture f;
  ServerConfig cfg = f.config(AdmissionPolicy::kRejectOnly);
  cfg.queue_capacity = 0;
  Server server(*f.pool, cfg);
  const ServeResult result = server.run_trace(f.overload_trace(1.0, 10));
  EXPECT_EQ(result.stats.served, 0);
  EXPECT_EQ(result.stats.rejected_full, 10);
  EXPECT_TRUE(result.responses.empty());
}

TEST(Server, ExpiredAtArrivalCountsAsRejectedExpired) {
  ServeFixture f;
  ArrivalTrace trace = f.overload_trace(1.0, 4);
  trace.requests[1].deadline = trace.requests[1].arrival;  // hopeless
  Server server(*f.pool, f.config(AdmissionPolicy::kDegrade));
  const ServeResult result = server.run_trace(trace);
  EXPECT_EQ(result.stats.rejected_expired, 1);
  EXPECT_EQ(result.stats.served, 3);
}

TEST(Server, ShutdownTickStopsAdmissionAndDrains) {
  ServeFixture f;
  const ArrivalTrace trace = f.overload_trace(1.0, 20);
  ServerConfig cfg = f.config(AdmissionPolicy::kDegrade);
  cfg.shutdown_tick = trace.requests[10].arrival;  // mid-trace
  Server server(*f.pool, cfg);
  const ServeResult result = server.run_trace(trace);
  EXPECT_GT(result.stats.rejected_shutdown, 0);
  EXPECT_GT(result.stats.served, 0);
  // Everything admitted before shutdown is finished, never dropped.
  EXPECT_EQ(result.stats.served + result.stats.expired_in_queue,
            result.stats.admitted);
  EXPECT_EQ(result.stats.admitted + result.stats.rejected_shutdown +
                result.stats.rejected_full + result.stats.rejected_expired,
            result.stats.offered);
}

TEST(Server, SaturatedAtCheapestTierStillRejects) {
  ServeFixture f;
  // Violent overload with a small bound: even at fixed8 the executor
  // cannot keep up, so admission control must still reject. Short dwell
  // so the controller can walk the whole lattice inside the burst.
  const ArrivalTrace trace = f.overload_trace(20.0, 200, /*deadline_mult=*/6);
  ServerConfig cfg = f.config(AdmissionPolicy::kDegrade);
  cfg.queue_capacity = 8;
  cfg.controller.dwell_ticks = f.tiers[0].ticks_per_image / 4;
  Server server(*f.pool, cfg);
  const ServeResult result = server.run_trace(trace);
  EXPECT_GT(result.stats.rejected_full, 0);
  EXPECT_GT(result.stats.served_per_tier[2], 0);  // downshift did engage
}

TEST(Server, RequestConservation) {
  ServeFixture f;
  Server server(*f.pool, f.config(AdmissionPolicy::kDegrade));
  const ServeResult result = server.run_trace(f.overload_trace(3.0, 80));
  const ServeStats& s = result.stats;
  EXPECT_EQ(s.offered, s.admitted + s.rejected_full + s.rejected_expired +
                           s.rejected_shutdown);
  EXPECT_EQ(s.admitted, s.served + s.expired_in_queue);
  EXPECT_EQ(s.served, s.served_within_deadline + s.served_late);
  std::int64_t per_tier = 0;
  for (std::int64_t n : s.served_per_tier) per_tier += n;
  EXPECT_EQ(per_tier, s.served);
}

// The acceptance criterion (ISSUE): at >= 2x the sustainable
// full-precision rate, precision downshift serves strictly more
// requests within deadline than rejecting at full precision and than
// accepting everything with no admission control.
TEST(Server, DegradeBeatsBaselinesUnderOverload) {
  ServeFixture f;
  const ArrivalTrace trace = f.overload_trace(2.0, 120);
  auto run = [&](AdmissionPolicy policy) {
    Server server(*f.pool, f.config(policy));
    return server.run_trace(trace).stats;
  };
  const ServeStats degrade = run(AdmissionPolicy::kDegrade);
  const ServeStats reject = run(AdmissionPolicy::kRejectOnly);
  const ServeStats noadm = run(AdmissionPolicy::kNoAdmission);
  EXPECT_GT(degrade.served_within_deadline, reject.served_within_deadline)
      << "degrade must beat reject-only under 2x overload";
  EXPECT_GT(degrade.served_within_deadline, noadm.served_within_deadline)
      << "degrade must beat no-admission under 2x overload";
  EXPECT_GT(degrade.downshifts, 0);
}

TEST(Server, StatsJsonHasEveryField) {
  ServeFixture f;
  Server server(*f.pool, f.config(AdmissionPolicy::kDegrade));
  const ServeResult result = server.run_trace(f.overload_trace(1.0, 10));
  const json::Value v = serve_stats_to_json(result.stats);
  for (const char* key :
       {"offered", "admitted", "rejected_full", "rejected_expired",
        "rejected_shutdown", "expired_in_queue", "served",
        "served_within_deadline", "served_late", "served_per_tier",
        "downshifts", "upshifts", "end_tick", "total_energy_uj",
        "p50_latency_ticks", "p99_latency_ticks", "failed", "hung_batches",
        "corrupt_batches", "crashed_batches", "retries", "redirected",
        "rescrubs", "discarded_results", "attributed_ops",
        "attributed_energy_pj", "wasted_energy_pj"}) {
    EXPECT_TRUE(v.contains(key)) << key;
  }
}

// A latency spike must age out of the p99 signal once the pipeline has
// been quiet: with a sliding window the baseline snapshot advances and
// recovery re-enables; with the whole-run delta (window 0) the burst's
// latencies gate upshift forever.
TEST(Server, P99WindowReenablesRecoveryAfterQuietPeriod) {
  ServeFixture f;
  const Tick tpi = f.tiers[0].ticks_per_image;
  // A hard burst followed by a long, sparse tail.
  ArrivalTrace trace = f.overload_trace(3.0, 40);
  Tick t = trace.requests.back().arrival;
  for (std::int64_t i = 0; i < 30; ++i) {
    t += 20 * tpi;
    TraceRequest r;
    r.id = 40 + i;
    r.arrival = t;
    r.deadline = t + 12 * tpi;
    r.payload_seed = 1000 + static_cast<std::uint64_t>(i);
    trace.requests.push_back(r);
  }
  auto run = [&](Tick window) {
    ServerConfig cfg = f.config(AdmissionPolicy::kDegrade);
    cfg.controller.p99_high_ticks = 6 * tpi;
    cfg.controller.p99_low_ticks = 3 * tpi;
    cfg.p99_window_ticks = window;
    Server server(*f.pool, cfg);
    return server.run_trace(trace).stats;
  };
  const ServeStats whole_run = run(0);
  const ServeStats windowed = run(40 * tpi);
  EXPECT_GT(whole_run.downshifts, 0) << "the burst must trip the signal";
  EXPECT_GT(windowed.upshifts, whole_run.upshifts)
      << "sliding window must let the quiet tail recover full precision";
  // The tail is slow enough for tier 0: windowed runs serve it there.
  EXPECT_GT(windowed.served_per_tier[0], whole_run.served_per_tier[0]);
}

}  // namespace
}  // namespace qnn::serve
