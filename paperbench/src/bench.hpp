#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "coll/registry.hpp"
#include "core/types.hpp"
#include "sched/schedule_cache.hpp"

/// Shared vocabulary of the paper-plan benchmark: run options, the pass loop,
/// per-layer trace accumulators and the result every workload hands back to
/// main(), which prints it as the one-line JSON report.
namespace paperbench {

using bine::i64;
using bine::u64;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-check: perturb one production result after it is produced, so the
  /// run must come out incorrect (proves each correctness check can fail).
  bool perturb = false;
  /// Per-run scratch directory (socket, tables, journals); removed at exit.
  std::string tmpdir;
  /// The per-layer metrics to report in traced mode, as (name, unit), in the
  /// order BENCHMARK.json lists them.
  std::vector<std::pair<std::string, std::string>> per_layer;
  /// Process start (the first static initializer), for setup_s.
  Clock::time_point start;
};

/// Deterministic 64-bit generator (splitmix64): every input of a run is a
/// function of --seed alone.
class Rng {
 public:
  explicit Rng(u64 seed) : state_(seed) {}
  u64 next() {
    u64 z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  u64 below(u64 n) { return n == 0 ? 0 : next() % n; }

 private:
  u64 state_;
};

/// Per-layer accumulators of one pass (traced mode), keyed by per-layer
/// metric name: seconds for `*_s` timings, plain sums for counts.
struct LayerTrace {
  std::map<std::string, double> v;

  void add(const std::string& k, double x) { v[k] += x; }
  [[nodiscard]] double get(const std::string& k) const {
    const auto it = v.find(k);
    return it == v.end() ? 0 : it->second;
  }
};

/// Time `fn` and charge the elapsed seconds to `trace` under `key`.
template <class Fn>
decltype(auto) timed(LayerTrace& trace, const std::string& key, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    trace.add(key, seconds_since(t0));
  } else {
    decltype(auto) out = fn();
    trace.add(key, seconds_since(t0));
    return out;
  }
}

/// One measured pass: its production wall time and (traced mode) its split.
struct Pass {
  double seconds = 0;
  LayerTrace trace;
};

/// The pass statistic: the fastest pass. Host interference only ever adds
/// time to a pass, so the minimum over a run's passes is the estimate least
/// disturbed by other tenants of the machine.
[[nodiscard]] inline size_t fastest(const std::vector<Pass>& passes) {
  size_t best = 0;
  for (size_t i = 1; i < passes.size(); ++i)
    if (passes[i].seconds < passes[best].seconds) best = i;
  return best;
}

/// Run passes until `seconds` of measuring have elapsed (at least
/// `min_passes`, and always whole passes).
inline std::vector<Pass> run_passes(double seconds, size_t min_passes,
                                    const std::function<Pass(size_t)>& pass) {
  std::vector<Pass> passes;
  const Clock::time_point t0 = Clock::now();
  while (passes.size() < min_passes || seconds_since(t0) < seconds)
    passes.push_back(pass(passes.size()));
  return passes;
}

struct Metric {
  double value = 0;
  std::string unit;
};

/// What a workload reports. `failures` lists every failed correctness check
/// (correct == failures.empty()); the first few go to stderr. `failed` counts
/// the attempted operations (sweep rows, executed cells, select and sweep
/// replies) whose result failed a check; a check that belongs to no single
/// operation (a server counter, traced vs untraced rows) only adds a failure.
struct Outcome {
  i64 attempted = 0;
  i64 failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, Metric> metrics;

  void fail(std::string what) { failures.push_back(std::move(what)); }
  void put(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// Median of a sample (the mean of the two middle values for even sizes).
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Process high-water resident set size, MiB.
[[nodiscard]] double peak_rss_mib();

/// Common end-to-end metrics every workload reports. `rss_mib` is
/// peak_rss_mib() taken right after the passes, before the checks' own work.
void put_common(Outcome& out, const Options& opt, double setup_s,
                const std::vector<Pass>& passes, double rss_mib);

/// Every per-layer metric of `opt.per_layer`, from the fastest traced pass.
/// A metric the pass never touched falls back to `setup` (the layers a
/// workload exercises only while setting up, e.g. generation on sweep_warm),
/// else reads 0.
void put_trace(Outcome& out, const Options& opt, const std::vector<Pass>& passes,
               const LayerTrace& setup);

/// The traced counts (units `count` and `B`, not timings) must repeat exactly
/// in every pass.
void check_counts_repeat(Outcome& out, const Options& opt, const std::vector<Pass>& passes);

/// The cache entry of one (coll, algorithm, p) through `cache`, with the
/// generator call timed: on a miss the generator time goes to
/// coll.generate_s and the rest of the lookup (size-free compile and its
/// two-probe check) to sched.size_free_s; a hit is sched.resolve_s.
/// Throws when the entry was demoted to the uncached path.
std::shared_ptr<const bine::sched::SizeFreeSchedule> traced_entry(
    bine::sched::ScheduleCache& cache, bine::sched::Collective coll,
    const bine::coll::AlgorithmEntry& algo, i64 p, LayerTrace& tr);

Outcome run_paper_cold(const Options& opt);
Outcome run_sweep_warm(const Options& opt);
Outcome run_exec_verify(const Options& opt);
Outcome run_svc_session(const Options& opt);

}  // namespace paperbench
