// paper_cold and sweep_warm: the paper's boxplot/table plans through the
// sweep engine (untraced), or through the layers' own entry points with every
// call timed (traced).

#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <tuple>
#include <limits>
#include <memory>
#include <stdexcept>

#include "alloc/allocation.hpp"
#include "bench.hpp"
#include "coll/registry.hpp"
#include "core/types.hpp"
#include "exp/paper_plans.hpp"
#include "net/pair_route_memo.hpp"
#include "net/simulate.hpp"
#include "sched/schedule_cache.hpp"

namespace paperbench {
namespace {

using namespace bine;
using sched::Collective;

/// Node counts and sizes of both sweep workloads. paper_cold stops at 256
/// ranks: one cold p=512 sota plan takes ~3 s per profile, which would leave
/// too few passes per run to filter host interference.
const std::vector<i64> kColdCounts = {4, 8, 16, 32, 64, 128, 256};
const std::vector<i64> kWarmCounts = {4, 8, 16, 32, 64, 128, 256, 512};

/// Rows the reference engines re-derive per run.
constexpr size_t kReferenceSample = 6;

/// The paper's boxplot (best Bine vs best non-Bine, all collectives) and
/// table (best contiguous Bine vs the binomial family) plans on the three
/// fat-tree/dragonfly systems, single-threaded. `seed` picks where the
/// synthetic fragmented scheduler lands each job.
std::vector<exp::SweepPlan> paper_plans(u64 seed, const std::vector<i64>& counts,
                                        const std::vector<i64>& sizes,
                                        bool private_cache) {
  std::vector<exp::SweepPlan> plans;
  for (const net::SystemProfile& prof :
       {net::lumi_profile(), net::leonardo_profile(), net::mn5_profile()}) {
    plans.push_back(exp::paper::sota_boxplots(prof, counts, sizes, coll::all_collectives()));
    plans.push_back(exp::paper::binomial_table(prof, counts, sizes));
  }
  for (exp::SweepPlan& plan : plans) {
    plan.threads = 1;
    plan.systems[0].seed = seed & 0xffffffffu;
    plan.systems[0].private_cache = private_cache;
  }
  return plans;
}

/// Vector length (elements) of a cell: the paper's 32-bit integers, padded
/// to at least one element per rank.
i64 elem_count(i64 p, i64 size) { return std::max<i64>(p, size / 4); }

/// Fewest bytes the collective's definition forces onto the wire for a
/// vector of `size` bytes: whole vectors must reach every non-root rank
/// (bcast) or leave it (reduce; every rank for allreduce), and every rank
/// must receive (allgather) or send (reduce_scatter, alltoall) the p-1 blocks
/// it does not own; gather/scatter move the p-1 non-root blocks.
i64 min_wire_bytes(Collective c, i64 p, i64 size) {
  const i64 n = (size / 4) * 4;
  const i64 blk = (size / 4 / p) * 4;
  switch (c) {
    case Collective::bcast:
    case Collective::reduce: return (p - 1) * n;
    case Collective::allreduce: return p * n;
    case Collective::allgather:
    case Collective::reduce_scatter:
    case Collective::alltoall: return p * (p - 1) * blk;
    case Collective::gather:
    case Collective::scatter: return (p - 1) * blk;
  }
  return 0;
}

/// A machine instance as harness::Runner builds it on the healthy machine:
/// topology, fragmented-scheduler placement, compiled routes.
struct Machine {
  std::unique_ptr<net::Topology> topo;
  net::Placement placement;
  std::unique_ptr<net::RouteCache> routes;
};

Machine build_machine(const exp::SystemSpec& spec, i64 nodes, LayerTrace* tr,
                      bool with_routes) {
  Machine m;
  const Clock::time_point t0 = Clock::now();
  m.topo = spec.profile.build(nodes);
  if (spec.spread_placement && m.topo->num_nodes() > nodes) {
    const i64 total = m.topo->num_nodes();
    const i64 groups = m.topo->group_of(total - 1) + 1;
    const alloc::Machine machine{groups, total / std::max<i64>(1, groups)};
    alloc::SyntheticScheduler gen(machine, /*busy_fraction=*/0.85,
                                  spec.seed + static_cast<u64>(nodes));
    m.placement.node_of_rank = gen.sample_job(nodes).node_of_rank;
  } else {
    m.placement = net::Placement::identity(nodes);
  }
  if (tr) tr->add("net.topology_s", seconds_since(t0));
  if (with_routes) {
    const Clock::time_point t1 = Clock::now();
    m.routes = std::make_unique<net::RouteCache>(*m.topo, m.placement);
    if (tr) tr->add("net.route_s", seconds_since(t1));
  }
  return m;
}

i64 count_ops(const sched::Schedule& s) {
  i64 ops = 0;
  for (const auto& rank_steps : s.steps)
    for (const sched::RankStep& step : rank_steps) ops += static_cast<i64>(step.ops.size());
  return ops;
}

/// Candidate algorithm names of one series (the sweep engine's families).
std::vector<std::string> series_names(const exp::Series& s, const harness::Runner& names,
                                      Collective coll) {
  switch (s.family) {
    case exp::Series::Family::list: return s.algorithms;
    case exp::Series::Family::bine: return names.bine_names(coll, s.contiguous_only);
    case exp::Series::Family::binomial: return names.binomial_names(coll);
    case exp::Series::Family::sota: return names.sota_names(coll);
  }
  throw std::logic_error("unknown series family");
}

/// Per cell: the union of every series' candidates, first-use order, and each
/// series' candidate indices into it.
struct CellCandidates {
  std::vector<std::string> names;
  std::vector<std::vector<size_t>> series;
};

CellCandidates cell_candidates(const exp::SweepPlan& plan, const harness::Runner& names,
                               Collective coll) {
  CellCandidates c;
  c.series.resize(plan.series.size());
  for (size_t k = 0; k < plan.series.size(); ++k)
    for (std::string& name : series_names(plan.series[k], names, coll)) {
      auto pos = std::find(c.names.begin(), c.names.end(), name);
      if (pos == c.names.end()) pos = c.names.insert(c.names.end(), std::move(name));
      c.series[k].push_back(static_cast<size_t>(pos - c.names.begin()));
    }
  return c;
}

bool applicable(const coll::AlgorithmEntry& e, i64 p) { return !e.pow2_only || is_pow2(p); }

/// The plan measured through the layers directly: net builds the machine,
/// coll + sched produce the size-free candidates through `cache`, and
/// net::simulate_candidates evaluates the pool over the size axis through the
/// process route memo -- what exp::run does through harness::Runner. Rows come
/// out in the engine's canonical order.
std::vector<exp::Row> traced_plan(const exp::SweepPlan& plan, sched::ScheduleCache& cache,
                                  LayerTrace& tr) {
  const exp::SystemSpec& spec = plan.systems[0];
  const harness::Runner names(spec.profile, spec.spread_placement, spec.seed);
  std::vector<exp::Row> rows;
  std::map<i64, Machine> machines;  // one per node count, like the Runner's
  for (const Collective coll : plan.colls) {
    for (const i64 p : plan.nodes.counts_for(coll)) {
      auto it = machines.find(p);
      if (it == machines.end())
        it = machines.emplace(p, build_machine(spec, p, &tr, /*with_routes=*/true)).first;
      const Machine& m = it->second;
      const CellCandidates cc = cell_candidates(plan, names, coll);
      std::vector<std::shared_ptr<const sched::SizeFreeSchedule>> entries(cc.names.size());
      std::vector<const sched::SizeFreeSchedule*> batch(cc.names.size(), nullptr);
      for (size_t n = 0; n < cc.names.size(); ++n) {
        const coll::AlgorithmEntry& algo = coll::find_algorithm(coll, cc.names[n]);
        if (!applicable(algo, p)) continue;
        entries[n] = traced_entry(cache, coll, algo, p, tr);
        batch[n] = entries[n].get();
        tr.add("net.sim_evals", static_cast<double>(plan.sizes.size()));
      }
      std::vector<i64> elems;
      for (const i64 size : plan.sizes) elems.push_back(elem_count(p, size));
      const auto sims = timed(tr, "net.simulate_s", [&] {
        return net::simulate_candidates(batch, elems, 4, *m.routes, spec.profile.cost,
                                        &net::process_route_memo());
      });
      for (size_t si = 0; si < plan.sizes.size(); ++si)
        for (size_t k = 0; k < plan.series.size(); ++k) {
          size_t best_n = cc.names.size();
          double best = std::numeric_limits<double>::infinity();
          for (const size_t n : cc.series[k])
            if (batch[n] && sims[n][si].seconds < best) {
              best = sims[n][si].seconds;
              best_n = n;
            }
          if (best_n == cc.names.size()) throw std::runtime_error("no applicable algorithm");
          const net::SimResult& r = sims[best_n][si];
          exp::Row row;
          row.coll = coll;
          row.nodes = p;
          row.size_bytes = plan.sizes[si];
          row.series = k;
          row.m.algorithm = cc.names[best_n];
          row.m.seconds = r.seconds;
          row.m.global_bytes = r.traffic.global_bytes;
          row.m.total_bytes = r.traffic.total();
          row.m.messages = r.traffic.messages;
          row.m.steps = r.steps;
          tr.add("net.global_bytes", static_cast<double>(row.m.global_bytes));
          tr.add("net.total_bytes", static_cast<double>(row.m.total_bytes));
          rows.push_back(std::move(row));
        }
    }
  }
  return rows;
}

bool same_row(const exp::Row& a, const exp::Row& b) {
  return a.coll == b.coll && a.nodes == b.nodes && a.size_bytes == b.size_bytes &&
         a.series == b.series && a.m.algorithm == b.m.algorithm &&
         std::memcmp(&a.m.seconds, &b.m.seconds, sizeof(double)) == 0 &&
         a.m.global_bytes == b.m.global_bytes && a.m.total_bytes == b.m.total_bytes &&
         a.m.messages == b.m.messages && a.m.steps == b.m.steps;
}

std::string describe(const exp::SweepPlan& plan, const exp::Row& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s %s p=%lld size=%lld series=%s (%s)",
                plan.name.c_str(), sched::to_string(r.coll), static_cast<long long>(r.nodes),
                static_cast<long long>(r.size_bytes), plan.series[r.series].label.c_str(),
                r.m.algorithm.c_str());
  return buf;
}

using PlanRows = std::vector<std::vector<exp::Row>>;

/// Every candidate's seconds simulated on its own (harness::Runner::run, the
/// per-size compiled path), keyed by (plan, coll, p, algorithm) per size.
using CandidateSeconds =
    std::map<std::tuple<size_t, int, i64, std::string>, std::vector<double>>;

CandidateSeconds separate_candidates(const std::vector<exp::SweepPlan>& plans) {
  CandidateSeconds out;
  for (size_t pi = 0; pi < plans.size(); ++pi) {
    const exp::SweepPlan& plan = plans[pi];
    const exp::SystemSpec& spec = plan.systems[0];
    harness::Runner runner(spec.profile, spec.spread_placement, spec.seed);
    for (const Collective coll : plan.colls)
      for (const i64 p : plan.nodes.counts_for(coll))
        for (const std::string& name : cell_candidates(plan, runner, coll).names) {
          const coll::AlgorithmEntry& algo = coll::find_algorithm(coll, name);
          if (!applicable(algo, p)) continue;
          std::vector<double>& s = out[{pi, static_cast<int>(coll), p, name}];
          for (const i64 size : plan.sizes) s.push_back(runner.run(coll, algo, p, size).seconds);
        }
  }
  return out;
}

/// The checks every sweep run ends with (see README): winners against the
/// separately simulated candidates, wire-byte floors, and a seeded sample of
/// rows re-derived by the reference engines on freshly generated schedules.
/// Returns, per row in plan order, whether any check failed.
std::vector<char> check_rows(const std::vector<exp::SweepPlan>& plans, const PlanRows& rows,
                             const CandidateSeconds& cand, u64 seed, Outcome& out) {
  std::vector<char> bad;
  std::vector<size_t> offset;  // first flat row index of each plan
  for (size_t pi = 0; pi < plans.size(); ++pi) {
    const exp::SweepPlan& plan = plans[pi];
    const harness::Runner names(plan.systems[0].profile);
    offset.push_back(bad.size());
    for (const exp::Row& r : rows[pi]) {
      const size_t failures = out.failures.size();
      if (r.m.total_bytes < min_wire_bytes(r.coll, r.nodes, r.size_bytes))
        out.fail("total_bytes below the collective's floor: " + describe(plan, r));
      if (r.m.global_bytes < 0 || r.m.global_bytes > r.m.total_bytes)
        out.fail("global_bytes outside [0, total_bytes]: " + describe(plan, r));
      const CellCandidates cc = cell_candidates(plan, names, r.coll);
      const size_t si = static_cast<size_t>(
          std::find(plan.sizes.begin(), plan.sizes.end(), r.size_bytes) - plan.sizes.begin());
      bool member = false;
      for (const size_t n : cc.series[r.series]) {
        const auto it = cand.find({pi, static_cast<int>(r.coll), r.nodes, cc.names[n]});
        if (it == cand.end()) continue;
        const double s = it->second[si];
        if (cc.names[n] == r.m.algorithm) {
          member = true;
          if (std::memcmp(&s, &r.m.seconds, sizeof(double)) != 0)
            out.fail("winner seconds differ from its separate simulation: " + describe(plan, r));
        }
        if (r.m.seconds > s)
          out.fail("winner slower than candidate " + cc.names[n] + ": " + describe(plan, r));
      }
      if (!member) out.fail("winner is not an applicable candidate: " + describe(plan, r));
      bad.push_back(out.failures.size() != failures);
    }
  }

  Rng rng(seed ^ 0x5eedull);
  for (size_t k = 0; k < kReferenceSample && !bad.empty(); ++k) {
    size_t pick = rng.below(bad.size()), pi = 0;
    const size_t flat = pick;
    while (pick >= rows[pi].size()) pick -= rows[pi++].size();
    const exp::SweepPlan& plan = plans[pi];
    const exp::Row& r = rows[pi][pick];
    coll::Config cfg;
    cfg.p = r.nodes;
    cfg.elem_count = elem_count(r.nodes, r.size_bytes);
    const sched::Schedule s = coll::find_algorithm(r.coll, r.m.algorithm).make(cfg);
    const Machine m = build_machine(plan.systems[0], r.nodes, nullptr, false);
    const net::SimResult ref =
        net::simulate_reference(s, *m.topo, m.placement, plan.systems[0].profile.cost);
    const net::TrafficStats t = net::measure_traffic_reference(s, *m.topo, m.placement);
    const size_t failures = out.failures.size();
    if (std::abs(ref.seconds - r.m.seconds) > 1e-12 * std::abs(ref.seconds))
      out.fail("seconds differ from simulate_reference: " + describe(plan, r));
    if (t.global_bytes != r.m.global_bytes || t.total() != r.m.total_bytes ||
        t.messages != r.m.messages || ref.traffic.total() != t.total() ||
        ref.steps != r.m.steps)
      out.fail("traffic differs from measure_traffic_reference: " + describe(plan, r));
    if (out.failures.size() != failures) bad[flat] = 1;
  }
  return bad;
}

/// Flat indices of the rows of `got` that differ from `ref` (every row when
/// the shapes differ); the first difference is reported as a failure.
std::vector<size_t> differing_rows(const PlanRows& ref, const PlanRows& got,
                                   const std::string& what, Outcome& out) {
  std::vector<size_t> diff;
  size_t flat = 0;
  for (size_t pi = 0; pi < ref.size(); ++pi) {
    const bool shape = pi < got.size() && ref[pi].size() == got[pi].size();
    for (size_t i = 0; i < ref[pi].size(); ++i, ++flat)
      if (!shape || !same_row(ref[pi][i], got[pi][i])) diff.push_back(flat);
  }
  if (!diff.empty())
    out.fail(what + ": " + std::to_string(diff.size()) + " rows differ, the first is row " +
             std::to_string(diff[0]));
  return diff;
}

PlanRows run_untraced(const std::vector<exp::SweepPlan>& plans, Pass& pass) {
  PlanRows rows;
  for (const exp::SweepPlan& plan : plans) {
    const Clock::time_point t0 = Clock::now();
    exp::SweepResult r = exp::run(plan);
    pass.seconds += seconds_since(t0);
    rows.push_back(std::move(r.rows));
  }
  return rows;
}

struct CacheCounters {
  sched::ScheduleCache::Stats sched;
  net::PairRouteMemo::Stats memo;
};

CacheCounters counters(const sched::ScheduleCache& cache) {
  return {cache.stats(), net::process_route_memo().stats()};
}

void add_counter_deltas(LayerTrace& tr, const CacheCounters& a, const CacheCounters& b) {
  tr.add("sched.cache_hits", static_cast<double>(b.sched.hits - a.sched.hits));
  tr.add("sched.cache_misses", static_cast<double>(b.sched.misses - a.sched.misses));
  tr.add("net.route_memo_hits", static_cast<double>(b.memo.hits - a.memo.hits));
  tr.add("net.route_memo_misses", static_cast<double>(b.memo.misses - a.memo.misses));
}

/// One traced pass over every plan. `fresh_cache`: a private, empty schedule
/// cache per plan (paper_cold); otherwise the warm process-wide one.
PlanRows run_traced(const std::vector<exp::SweepPlan>& plans, bool fresh_cache, Pass& pass) {
  PlanRows rows;
  for (const exp::SweepPlan& plan : plans) {
    sched::ScheduleCache private_cache;
    sched::ScheduleCache& cache = fresh_cache ? private_cache : sched::process_schedule_cache();
    const CacheCounters before = counters(cache);
    const Clock::time_point t0 = Clock::now();
    rows.push_back(traced_plan(plan, cache, pass.trace));
    pass.seconds += seconds_since(t0);
    add_counter_deltas(pass.trace, before, counters(cache));
  }
  return rows;
}

i64 row_count(const PlanRows& rows) {
  i64 n = 0;
  for (const auto& r : rows) n += static_cast<i64>(r.size());
  return n;
}

/// Shared body of both sweep workloads. `cold`: every pass starts from
/// empty schedule caches and a cleared route memo (paper_cold); otherwise
/// set-up fills the process-wide cache and memo and every pass re-sweeps
/// warm (sweep_warm).
Outcome run_sweep(const Options& opt, bool cold) {
  Outcome out;
  const std::vector<exp::SweepPlan> plans =
      cold ? paper_plans(opt.seed, kColdCounts, harness::paper_vector_sizes(false), true)
           : paper_plans(opt.seed, kWarmCounts, harness::paper_vector_sizes(true), false);

  // Set-up: for sweep_warm, the fill sweep that leaves the process-wide
  // schedule cache and route memo warm for every pass; paper_cold has only
  // its plans. The checks' own simulations come after the passes.
  Pass setup;
  if (!cold && opt.trace) {
    (void)run_traced(plans, /*fresh_cache=*/false, setup);
  } else if (!cold) {
    Pass ignored;
    (void)run_untraced(plans, ignored);
  }
  const double setup_s = seconds_since(opt.start);

  PlanRows first;
  std::vector<std::vector<size_t>> differing;  // per pass after the first
  const std::vector<Pass> passes = run_passes(opt.seconds, 3, [&](size_t i) {
    if (cold) net::process_route_memo().clear();
    Pass pass;
    PlanRows rows = opt.trace ? run_traced(plans, cold, pass) : run_untraced(plans, pass);
    if (i == 0) {
      first = std::move(rows);
      if (opt.perturb && !first[0].empty()) {
        exp::Row& r = first[0][Rng(opt.seed).below(first[0].size())];
        r.m.seconds = std::nextafter(r.m.seconds, std::numeric_limits<double>::infinity());
      }
    } else {
      differing.push_back(differing_rows(first, rows, "pass " + std::to_string(i), out));
    }
    return pass;
  });
  const double rss_mib = peak_rss_mib();
  out.attempted = row_count(first) * static_cast<i64>(passes.size());

  if (opt.trace) {
    // The traced rows must equal the sweep engine's bit for bit.
    if (cold) net::process_route_memo().clear();
    Pass ignored;
    (void)differing_rows(first, run_untraced(plans, ignored), "traced vs untraced rows", out);
  }
  // A row of a later pass failed when it differs from the first pass's or
  // equals a first-pass row that failed a check.
  const std::vector<char> bad =
      check_rows(plans, first, separate_candidates(plans), opt.seed, out);
  const i64 bad_first = std::count(bad.begin(), bad.end(), 1);
  out.failed = bad_first;
  for (const std::vector<size_t>& diff : differing) {
    out.failed += bad_first;
    for (const size_t flat : diff) out.failed += bad[flat] ? 0 : 1;
  }

  put_common(out, opt, setup_s, passes, rss_mib);
  if (opt.trace) {
    put_trace(out, opt, passes, setup.trace);
    check_counts_repeat(out, opt, passes);
  }
  return out;
}

}  // namespace

std::shared_ptr<const sched::SizeFreeSchedule> traced_entry(
    sched::ScheduleCache& cache, Collective coll, const coll::AlgorithmEntry& algo,
    i64 p, LayerTrace& tr) {
  const sched::ScheduleKeyView key(coll, algo.name, p, 0, {}, 0);
  double generate = 0, counting = 0;
  bool built = false;
  const Clock::time_point t0 = Clock::now();
  auto entry = cache.get(key, [&](i64 elems) {
    coll::Config cfg;
    cfg.p = p;
    cfg.elem_count = elems;
    const Clock::time_point g0 = Clock::now();
    sched::Schedule s = algo.make(cfg);
    generate += seconds_since(g0);
    const Clock::time_point c0 = Clock::now();
    tr.add("coll.generate_calls", 1);
    tr.add("coll.ops_generated", static_cast<double>(count_ops(s)));
    counting += seconds_since(c0);
    built = true;
    return s;
  });
  const double total = seconds_since(t0) - counting;
  if (built) {
    tr.add("coll.generate_s", generate);
    tr.add("sched.size_free_s", total - generate);
  } else {
    tr.add("sched.resolve_s", total);
  }
  if (!entry->size_independent)
    throw std::runtime_error("traced mode: " + algo.name +
                             " has no size-free schedule (demoted entry)");
  return entry;
}

Outcome run_paper_cold(const Options& opt) { return run_sweep(opt, true); }
Outcome run_sweep_warm(const Options& opt) { return run_sweep(opt, false); }

}  // namespace paperbench
