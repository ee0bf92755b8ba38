// exec_verify: verified execution (compiled executor + postcondition verify)
// of every generic registered algorithm over seeded inputs, checked against
// the benchmark's own reduction / concatenation / transposition.

#include <cstdint>
#include <cstdio>
#include <span>

#include "bench.hpp"
#include "harness/runner.hpp"
#include "runtime/compiled_executor.hpp"
#include "runtime/executor.hpp"
#include "runtime/verify.hpp"

namespace paperbench {
namespace {

using namespace bine;
using sched::Collective;
using Elem = std::uint32_t;

/// Rank counts (24: a non-power-of-two communicator) and vector sizes.
const std::vector<i64> kRanks = {8, 16, 24};
const std::vector<i64> kSizes = {64 << 10, 256 << 10, 1 << 20};

/// Cells re-executed by the nested reference executor per run.
constexpr size_t kReferenceSample = 3;

/// One (p, size) input set: every rank's vector, plus the elementwise sum
/// the reducing collectives must produce.
struct Inputs {
  i64 p = 0, size = 0, n = 0;
  std::vector<std::vector<Elem>> in;
  std::vector<Elem> sum;
};

struct Cell {
  Collective coll{};
  const coll::AlgorithmEntry* algo = nullptr;
  const Inputs* inputs = nullptr;
};

/// Seeded inputs. The vector is the paper's 32-bit integers, padded to at
/// least one element per rank; sums wrap, as unsigned addition does.
std::vector<Inputs> make_inputs(u64 seed) {
  std::vector<Inputs> all;
  Rng rng(seed);
  for (const i64 p : kRanks)
    for (const i64 size : kSizes) {
      Inputs x;
      x.p = p;
      x.size = size;
      x.n = std::max<i64>(p, size / 4);
      x.in.assign(static_cast<size_t>(p), std::vector<Elem>(static_cast<size_t>(x.n)));
      x.sum.assign(static_cast<size_t>(x.n), 0);
      for (auto& v : x.in)
        for (i64 e = 0; e < x.n; ++e) {
          v[static_cast<size_t>(e)] = static_cast<Elem>(rng.next());
          x.sum[static_cast<size_t>(e)] += v[static_cast<size_t>(e)];
        }
      all.push_back(std::move(x));
    }
  return all;
}

std::vector<Cell> make_cells(const std::vector<Inputs>& inputs) {
  std::vector<Cell> cells;
  for (const Inputs& x : inputs)
    for (const Collective coll : coll::all_collectives())
      for (const coll::AlgorithmEntry& algo : coll::algorithms_for(coll))
        if (!algo.specialized && (!algo.pow2_only || is_pow2(x.p)))
          cells.push_back({coll, &algo, &x});
  return cells;
}

std::string describe(const Cell& c) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s/%s p=%lld size=%lld", sched::to_string(c.coll),
                c.algo->name.c_str(), static_cast<long long>(c.inputs->p),
                static_cast<long long>(c.inputs->size));
  return buf;
}

/// Block `b` of an `n`-element vector split into `parts` near-equal blocks.
std::pair<i64, i64> segment(i64 b, i64 n, i64 parts) {
  const i64 base = n / parts, extra = n % parts;
  return {b * base + std::min(b, extra), base + (b < extra ? 1 : 0)};
}

/// The final buffers against the benchmark's own expectation, computed from
/// the inputs alone: the rooted and all-to-all postconditions as element
/// ranges of the inputs (concatenation, transposition) or of their sum.
std::string check_buffers(const Cell& c, const runtime::ExecPlan& plan,
                          const runtime::CompiledExecResult<Elem>& res) {
  const Inputs& x = *c.inputs;
  const i64 p = x.p, n = x.n, nb = plan.nblocks;
  const Rank root = 0;
  if (plan.p != p || plan.elem_count != n) return "plan layout differs from the cell";
  std::string err;
  // Holder `r`'s block `id` must hold src[off, off + len).
  const auto expect = [&](Rank r, i64 id, const std::vector<Elem>& src, i64 off, i64 len) {
    if (!err.empty()) return;
    if (!res.is_valid(r, id)) {
      err = "rank " + std::to_string(r) + " block " + std::to_string(id) + " missing";
      return;
    }
    const std::span<const Elem> got = res.block(r, id);
    if (static_cast<i64>(got.size()) != len ||
        !std::equal(got.begin(), got.end(), src.begin() + off))
      err = "rank " + std::to_string(r) + " block " + std::to_string(id) + " wrong";
  };
  const auto whole = [&](Rank r, const std::vector<Elem>& src) {
    for (i64 b = 0; b < nb; ++b) {
      const auto [off, len] = segment(b, n, nb);
      expect(r, b, src, off, len);
    }
  };
  const bool per_rank_blocks = c.coll == Collective::gather || c.coll == Collective::scatter ||
                               c.coll == Collective::allgather ||
                               c.coll == Collective::reduce_scatter;
  if (per_rank_blocks && nb != p) return "expected one block per rank";
  switch (c.coll) {
    case Collective::bcast:
      for (Rank r = 0; r < p; ++r) whole(r, x.in[root]);
      break;
    case Collective::reduce: whole(root, x.sum); break;
    case Collective::allreduce:
      for (Rank r = 0; r < p; ++r) whole(r, x.sum);
      break;
    case Collective::gather:
      for (Rank b = 0; b < p; ++b) {
        const auto [off, len] = segment(b, n, p);
        expect(root, b, x.in[static_cast<size_t>(b)], off, len);
      }
      break;
    case Collective::scatter:
      for (Rank r = 0; r < p; ++r) {
        const auto [off, len] = segment(r, n, p);
        expect(r, r, x.in[root], off, len);
      }
      break;
    case Collective::allgather:
      for (Rank r = 0; r < p; ++r)
        for (Rank b = 0; b < p; ++b) {
          const auto [off, len] = segment(b, n, p);
          expect(r, b, x.in[static_cast<size_t>(b)], off, len);
        }
      break;
    case Collective::reduce_scatter:
      for (Rank r = 0; r < p; ++r) {
        const auto [off, len] = segment(r, n, p);
        expect(r, r, x.sum, off, len);
      }
      break;
    case Collective::alltoall:
      // Rank r receives segment r of every rank's send vector: block src*p+r.
      for (Rank r = 0; r < p; ++r)
        for (Rank src = 0; src < p; ++src) {
          const auto [off, len] = segment(r, n, p);
          expect(r, src * p + r, x.in[static_cast<size_t>(src)], off, len);
        }
      break;
  }
  return err;
}

/// Executor state of a plan, from its public fields: data, contributor words
/// and validity bytes for every rank, plus the per-step stage buffers.
double state_bytes(const runtime::ExecPlan& pl) {
  return static_cast<double>(pl.p * pl.elems_per_rank * 4 + pl.p * pl.nblocks * pl.words * 8 +
                             pl.p * pl.nblocks + pl.max_step_elems * 4 +
                             pl.max_step_blocks * pl.words * 8);
}

/// The nested reference executor on a freshly generated schedule must leave
/// every slot exactly as the compiled executor did.
std::string check_reference(const Cell& c, const runtime::CompiledExecResult<Elem>& res) {
  const Inputs& x = *c.inputs;
  coll::Config cfg;
  cfg.p = x.p;
  cfg.elem_count = x.n;
  const sched::Schedule s = c.algo->make(cfg);
  const runtime::ExecResult<Elem> ref = runtime::execute_reference<Elem>(
      s, runtime::ReduceOp::sum, std::span<const std::vector<Elem>>(x.in));
  if (s.nblocks != res.plan->nblocks) return "block count differs from execute_reference";
  for (Rank r = 0; r < x.p; ++r)
    for (i64 b = 0; b < s.nblocks; ++b) {
      const runtime::BlockSlot<Elem>& slot =
          ref.ranks[static_cast<size_t>(r)].slots[static_cast<size_t>(b)];
      if (slot.valid != res.is_valid(r, b)) return "validity differs from execute_reference";
      if (!slot.valid) continue;
      const std::span<const Elem> got = res.block(r, b);
      if (!std::equal(got.begin(), got.end(), slot.data.begin(), slot.data.end()))
        return "data differs from execute_reference";
    }
  if (ref.wire_bytes != res.wire_bytes) return "wire bytes differ from execute_reference";
  return {};
}

}  // namespace

Outcome run_exec_verify(const Options& opt) {
  Outcome out;
  const std::vector<Inputs> inputs = make_inputs(opt.seed);
  const std::vector<Cell> cells = make_cells(inputs);
  // The execution path does not depend on the machine model.
  harness::Runner runner(net::lumi_profile());
  sched::ScheduleCache& cache = sched::process_schedule_cache();
  const auto op = runtime::ReduceOp::sum;

  // Set-up: generate every cell's schedule into the process-wide cache.
  Pass setup;
  for (const Cell& c : cells) {
    if (opt.trace) (void)traced_entry(cache, c.coll, *c.algo, c.inputs->p, setup.trace);
    else (void)runner.exec_plan(c.coll, *c.algo, c.inputs->p, c.inputs->size);
  }
  const double setup_s = seconds_since(opt.start);

  const size_t perturbed = Rng(opt.seed).below(cells.size());
  const std::vector<Pass> passes = run_passes(opt.seconds, 3, [&](size_t pass_no) {
    Pass pass;
    for (size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      const Inputs& x = *c.inputs;
      const std::span<const std::vector<Elem>> in(x.in);
      runtime::ExecPlan plan;
      runtime::CompiledExecResult<Elem> res;
      std::string verdict;
      if (opt.trace) {
        LayerTrace& tr = pass.trace;
        const Clock::time_point t0 = Clock::now();
        auto sf = traced_entry(cache, c.coll, *c.algo, x.p, tr);
        plan = timed(tr, "runtime.plan_s", [&] {
          return runtime::ExecPlan::from_size_free(std::move(sf), c.coll, 0, x.n, 4);
        });
        res = timed(tr, "runtime.execute_s", [&] { return runtime::execute<Elem>(plan, op, in, 1); });
        verdict = timed(tr, "runtime.verify_s", [&] { return runtime::verify<Elem>(plan, op, in, res); });
        pass.seconds += seconds_since(t0);
        tr.add("runtime.wire_bytes", static_cast<double>(res.wire_bytes));
        tr.add("runtime.stage_bytes", static_cast<double>(res.stage_bytes));
        tr.v["runtime.state_bytes"] = std::max(tr.get("runtime.state_bytes"), state_bytes(plan));
      } else {
        const Clock::time_point t0 = Clock::now();
        plan = runner.exec_plan(c.coll, *c.algo, x.p, x.size);
        res = runtime::execute<Elem>(plan, op, in, 1);
        verdict = runtime::verify<Elem>(plan, op, in, res);
        pass.seconds += seconds_since(t0);
      }
      const size_t failures = out.failures.size();
      if (!verdict.empty()) out.fail("verify: " + describe(c) + ": " + verdict);
      if (opt.perturb && pass_no == 0 && i == perturbed)
        res.data[static_cast<size_t>(plan.block_off[0])] ^= 1u;
      if (const std::string e = check_buffers(c, plan, res); !e.empty())
        out.fail("buffers: " + describe(c) + ": " + e);
      if (out.failures.size() != failures) ++out.failed;
    }
    return pass;
  });
  const double rss_mib = peak_rss_mib();
  // Every pass executes every cell; the reference sample executes a few more.
  out.attempted = static_cast<i64>(cells.size() * passes.size() + kReferenceSample);

  Rng rng(opt.seed ^ 0x5eedull);
  for (size_t k = 0; k < kReferenceSample; ++k) {
    const Cell& c = cells[rng.below(cells.size())];
    const runtime::ExecPlan plan = runner.exec_plan(c.coll, *c.algo, c.inputs->p, c.inputs->size);
    const auto res = runtime::execute<Elem>(
        plan, op, std::span<const std::vector<Elem>>(c.inputs->in), 1);
    if (const std::string e = check_reference(c, res); !e.empty()) {
      out.fail("reference: " + describe(c) + ": " + e);
      ++out.failed;
    }
  }

  put_common(out, opt, setup_s, passes, rss_mib);
  if (opt.trace) {
    put_trace(out, opt, passes, setup.trace);
    check_counts_repeat(out, opt, passes);
  }
  return out;
}

}  // namespace paperbench
