// Shared plumbing of the repository benchmark: command-line options,
// wall-clock helpers, robust statistics, the result line, and the span
// fold that turns the program's obs trace into per-layer self times.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Test hook: deliberately corrupts one checked output so the run must
  // fail ("off-grid", "swap-rows", "serve-count", "energy-order").
  std::string inject;
};

inline double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v);
double geomean(const std::vector<double>& v);

// Peak resident set of this process, in MiB.
double peak_rss_mb();

// Current value of a counter in the global obs registry (0 if absent).
std::int64_t registry_counter(const std::string& name);

// What one run reports. Checks append to `failures`; any failure makes
// the run incorrect and the process exit non-zero.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void check(bool ok, const std::string& what);
  void attempt(std::int64_t ops, std::int64_t failed_ops = 0) {
    attempted_ += ops;
    failed_ += failed_ops;
  }
  bool correct() const { return failures_.empty(); }
  // Prints diagnostics to stderr and the JSON line to stdout; returns
  // the process exit code.
  int emit() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::string> failures_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

// One completed span of the obs trace, with its position in the
// per-thread nesting.
struct Span {
  std::string name;
  std::int64_t tid = 0;
  std::int64_t arg = -1;
  double ts_us = 0.0;
  double dur_us = 0.0;
  int parent = -1;          // index of the enclosing span on the thread
  double child_us = 0.0;    // time covered by direct children
  double self_s() const { return (dur_us - child_us) * 1e-6; }
  double dur_s() const { return dur_us * 1e-6; }
};

// Reads every buffered span, nests them per thread, and clears the
// trace buffers. Fails the run if the ring buffers dropped events.
std::vector<Span> drain_spans(Result& result);

// Nearest enclosing span whose name starts with `prefix`, or -1.
int ancestor_with_prefix(const std::vector<Span>& spans, int i,
                         const std::string& prefix);

// Sum of self (or inclusive) seconds of spans named `name`.
double self_seconds(const std::vector<Span>& spans, const std::string& name);
double total_seconds(const std::vector<Span>& spans, const std::string& name);

// Per-layer metrics folded from spans; `per` divides every total (the
// number of traced operations). report_path_fold attributes time to the
// benchmark's "bench.fwd.<path>" spans: quant.int_nongemm_s (native
// fixed16/fixed8 forward time outside int_gemm) and nn.<layer>.<path>_s
// (inclusive conv/inner_product/pool forward time on the float and pow2
// paths). report_self_times reports the tensor and quant kernel spans.
void report_path_fold(const std::vector<Span>& spans, double per,
                      Result& result);
void report_self_times(const std::vector<Span>& spans, double per,
                       Result& result);

// Workloads. Each fills `result` with its end-to-end metrics (untraced)
// or its per-layer metrics (traced).
void run_zoo_infer(const Options& opt, Result& result);
void run_serve_overload(const Options& opt, Result& result);
void run_paper_sweep(const Options& opt, Result& result);

// Times the public GEMM kernels (gemm, int_gemm_bt int8/int16) at the
// zoo's batch-32 shapes and int8 at serve-sized row counts, in GMAC/s;
// every traced run reports these.
void run_kernel_probes(Result& result);

}  // namespace perfbench
