#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>

#include "nn/zoo.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/gemm.h"
#include "tensor/int_gemm.h"
#include "util/json.h"
#include "util/rng.h"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double geomean(const std::vector<double>& v) {
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return v.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(v.size()));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::int64_t registry_counter(const std::string& name) {
  const qnn::obs::Snapshot snap = qnn::obs::Registry::global().snapshot();
  const qnn::obs::MetricSnapshot* m = snap.find(name);
  return m ? m->value : 0;
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  // JSON has no NaN or infinity; a non-finite metric is a benchmark bug.
  check(std::isfinite(value), name + " is not finite");
  metrics_[name] = {std::isfinite(value) ? value : 0.0, unit};
}

void Result::check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

int Result::emit() const {
  for (const std::string& f : failures_)
    std::cerr << "perfbench: check failed: " << f << "\n";
  std::string line = "{\"correct\": ";
  line += correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", vu.first);
    line += first ? "" : ", ";
    line += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
            vu.second + "\"}";
    first = false;
  }
  line += "}}";
  std::cout << line << std::endl;
  return correct() ? 0 : 1;
}

std::vector<Span> drain_spans(Result& result) {
  result.check(qnn::obs::trace_dropped_count() == 0,
               "trace ring buffers dropped events");
  const qnn::json::Value doc = qnn::obs::trace_to_json();
  qnn::obs::clear_trace();
  std::vector<Span> spans;
  for (const qnn::json::Value& e : doc.at("traceEvents").items()) {
    if (e.at("ph").as_string() != "X") continue;
    Span s;
    s.name = e.at("name").as_string();
    s.tid = e.at("tid").as_int();
    s.ts_us = e.at("ts").as_double();
    s.dur_us = e.at("dur").as_double();
    if (e.contains("args") && e.at("args").contains("n"))
      s.arg = e.at("args").at("n").as_int();
    spans.push_back(std::move(s));
  }
  // Nest per thread: sort by start (longer first on ties) and keep a
  // stack of open spans; a span's parent is the innermost open span
  // that has not ended before it starts.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
    return a.dur_us > b.dur_us;
  });
  std::vector<int> stack;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Span& s = spans[i];
    if (i > 0 && spans[i - 1].tid != s.tid) stack.clear();
    while (!stack.empty()) {
      const Span& top = spans[static_cast<std::size_t>(stack.back())];
      if (top.ts_us + top.dur_us > s.ts_us) break;
      stack.pop_back();
    }
    if (!stack.empty()) {
      s.parent = stack.back();
      spans[static_cast<std::size_t>(s.parent)].child_us += s.dur_us;
    }
    stack.push_back(static_cast<int>(i));
  }
  return spans;
}

int ancestor_with_prefix(const std::vector<Span>& spans, int i,
                         const std::string& prefix) {
  for (int p = spans[static_cast<std::size_t>(i)].parent; p >= 0;
       p = spans[static_cast<std::size_t>(p)].parent) {
    if (spans[static_cast<std::size_t>(p)].name.rfind(prefix, 0) == 0)
      return p;
  }
  return -1;
}

double self_seconds(const std::vector<Span>& spans, const std::string& name) {
  double s = 0.0;
  for (const Span& sp : spans)
    if (sp.name == name) s += sp.self_s();
  return s;
}

double total_seconds(const std::vector<Span>& spans,
                     const std::string& name) {
  double s = 0.0;
  for (const Span& sp : spans)
    if (sp.name == name) s += sp.dur_s();
  return s;
}

void report_path_fold(const std::vector<Span>& spans, double per,
                      Result& result) {
  double native = 0.0;
  double layer_s[3][2] = {};  // conv, inner_product, pool x float, pow2
  static const char* const kLayerSpans[3] = {
      "conv_forward", "inner_product_forward", "pool_forward"};
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.name == "bench.fwd.fixed16" || s.name == "bench.fwd.fixed8")
      native += s.dur_s();
    const int a =
        ancestor_with_prefix(spans, static_cast<int>(i), "bench.fwd.");
    if (a < 0) continue;
    const std::string& path = spans[static_cast<std::size_t>(a)].name;
    if (s.name == "int_gemm" &&
        (path == "bench.fwd.fixed16" || path == "bench.fwd.fixed8"))
      native -= s.dur_s();
    for (int l = 0; l < 3; ++l) {
      if (s.name != kLayerSpans[l]) continue;
      if (path == "bench.fwd.float") layer_s[l][0] += s.dur_s();
      if (path == "bench.fwd.pow2") layer_s[l][1] += s.dur_s();
    }
  }
  result.metric("quant.int_nongemm_s", native / per, "s");
  static const char* const kLayers[3] = {"conv", "inner_product", "pool"};
  for (int l = 0; l < 3; ++l) {
    result.metric(std::string("nn.") + kLayers[l] + ".float_s",
                  layer_s[l][0] / per, "s");
    result.metric(std::string("nn.") + kLayers[l] + ".pow2_s",
                  layer_s[l][1] / per, "s");
  }
}

void report_self_times(const std::vector<Span>& spans, double per,
                       Result& result) {
  // A kernel's time includes the shard spans it opens on its own thread.
  static const std::pair<const char*, std::vector<std::string>> kSelf[] = {
      {"tensor.gemm.self_s",
       {"gemm", "gemm_shard", "gemm_kshard", "gemm_kchunk", "gemm_kcombine"}},
      {"tensor.int_gemm.self_s", {"int_gemm"}},
      {"tensor.im2col.self_s", {"im2col", "col2im"}},
      {"quant.quantize.self_s", {"quantize"}},
      {"quant.guard_scan.self_s", {"guard_scan"}},
  };
  for (const auto& [metric, names] : kSelf) {
    double s = 0.0;
    for (const std::string& name : names) s += self_seconds(spans, name);
    result.metric(metric, s / per, "s");
  }
}

namespace {

struct GemmShape {
  std::int64_t m, n, k;
  std::int64_t calls;  // how many times one batched forward issues it
};

// Times `reps` passes over every shape (each issued `calls` times) and
// returns total MACs per second of the median pass, in GMAC/s.
template <typename RunShape>
double time_shapes(const std::vector<GemmShape>& shapes, int reps,
                   RunShape run_shape) {
  double macs = 0.0;
  for (const GemmShape& s : shapes)
    macs += static_cast<double>(s.m * s.n * s.k * s.calls);
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    for (const GemmShape& s : shapes)
      for (std::int64_t c = 0; c < s.calls; ++c) run_shape(s);
    times.push_back(now_s() - t0);
  }
  return macs / median(times) * 1e-9;
}

std::size_t max_elems(const std::vector<GemmShape>& shapes, char which) {
  std::size_t e = 0;
  for (const GemmShape& s : shapes) {
    const std::int64_t v =
        which == 'a' ? s.m * s.k : which == 'b' ? s.n * s.k : s.m * s.n;
    e = std::max(e, static_cast<std::size_t>(v));
  }
  return e;
}

template <typename T>
std::vector<T> random_words(std::size_t n, int lo, int hi, qnn::Rng& rng) {
  std::vector<T> v(n);
  for (T& x : v) x = static_cast<T>(rng.uniform_int(lo, hi));
  return v;
}

double gemm_f32_gmac_per_s(const std::vector<GemmShape>& shapes, int reps) {
  qnn::Rng rng(7);
  std::vector<float> a(max_elems(shapes, 'a')), b(max_elems(shapes, 'b')),
      c(max_elems(shapes, 'c'));
  for (float& x : a) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (float& x : b) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  qnn::GemmScratch scratch;
  return time_shapes(shapes, reps, [&](const GemmShape& s) {
    qnn::gemm(s.m, s.n, s.k, a.data(), b.data(), c.data(), &scratch);
  });
}

// int_gemm_bt on random words over the type's symmetric range.
template <typename T>
double int_gemm_gmac_per_s(const std::vector<GemmShape>& shapes, int reps) {
  qnn::Rng rng(sizeof(T));
  const int hi = std::numeric_limits<T>::max();
  const auto a = random_words<T>(max_elems(shapes, 'a'), -hi, hi, rng);
  const auto b = random_words<T>(max_elems(shapes, 'b'), -hi, hi, rng);
  std::vector<std::int64_t> c(max_elems(shapes, 'c'));
  return time_shapes(shapes, reps, [&](const GemmShape& s) {
    qnn::int_gemm_bt(s.m, s.n, s.k, a.data(), b.data(), c.data());
  });
}

// GEMM shapes of one batched forward of `net`: conv lowers to one
// [Cout x OHW x Cin*K*K] product per sample, inner product to one
// [batch x Out x In] product.
std::vector<GemmShape> forward_gemm_shapes(const std::string& name,
                                           double scale,
                                           std::int64_t batch,
                                           bool conv_layers) {
  qnn::nn::ZooConfig zc;
  zc.channel_scale = scale;
  const auto net = qnn::nn::make_network(name, zc);
  std::vector<GemmShape> shapes;
  for (const qnn::nn::LayerDesc& d :
       net->describe(qnn::nn::input_shape_for(name))) {
    if (d.kind == "conv" && conv_layers) {
      shapes.push_back({d.out.c(), d.out.h() * d.out.w(), d.fan_in, batch});
    } else if (d.kind == "inner_product") {
      shapes.push_back({batch, d.out.count(), d.fan_in, 1});
    }
  }
  return shapes;
}

}  // namespace

void run_kernel_probes(Result& result) {
  std::vector<GemmShape> zoo;
  for (const char* name : {"lenet", "convnet", "alex"}) {
    const auto s = forward_gemm_shapes(name, 1.0, 32, true);
    zoo.insert(zoo.end(), s.begin(), s.end());
  }
  // Serve batches hold at most max_batch = 8 rows; repeat the small
  // products so one pass is long enough to time.
  auto serve = forward_gemm_shapes("lenet", 0.5, 8, false);
  for (GemmShape& s : serve) s.calls = 500;
  result.metric("tensor.gemm_f32.gmac_per_s", gemm_f32_gmac_per_s(zoo, 3),
                "GMAC/s");
  result.metric("tensor.int8_gemm.gmac_per_s",
                int_gemm_gmac_per_s<std::int8_t>(zoo, 3), "GMAC/s");
  result.metric("tensor.int16_gemm.gmac_per_s",
                int_gemm_gmac_per_s<std::int16_t>(zoo, 3), "GMAC/s");
  result.metric("tensor.int8_gemm_m8.gmac_per_s",
                int_gemm_gmac_per_s<std::int8_t>(serve, 3), "GMAC/s");
}

}  // namespace perfbench
