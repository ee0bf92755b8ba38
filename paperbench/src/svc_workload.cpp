// svc_session: an in-process selection daemon on a Unix socket, driven by one
// client through table-hit lookups, tune-on-miss selects and a sweep job
// submitted twice.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>

#include "bench.hpp"
#include "exp/journal.hpp"
#include "exp/paper_plans.hpp"
#include "net/pair_route_memo.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "tune/tuner.hpp"

namespace paperbench {
namespace {

using namespace bine;
using sched::Collective;

/// The table the benchmark builds: two systems, every collective, four
/// node counts, tuned on the tuner's default grid (the paper's sizes).
const std::vector<i64> kTableCounts = {8, 16, 32, 64};
/// Lookups per pass: kBatches pipelined batches of kBatch requests.
constexpr size_t kBatches = 32;
constexpr size_t kBatch = 2048;
/// Misses tune cells at this node count, absent from the table.
constexpr i64 kMissRanks = 128;

std::vector<net::SystemProfile> table_profiles() {
  return {net::lumi_profile(), net::leonardo_profile()};
}

svc::SelectRequest request(const net::SystemProfile& prof, Collective coll, i64 p, i64 bytes) {
  svc::SelectRequest r;
  r.profile = prof.name;
  r.fingerprint = tune::profile_fingerprint(prof);
  r.coll = coll;
  r.p = p;
  r.bytes = bytes;
  return r;
}

std::string describe(const svc::SelectRequest& r) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s %s p=%lld bytes=%lld", r.profile.c_str(),
                sched::to_string(r.coll), static_cast<long long>(r.p),
                static_cast<long long>(r.bytes));
  return buf;
}

/// The winner the table holds for a request, by a linear scan of the cell's
/// intervals (independent of DecisionTable::lookup's search).
std::string table_answer(const tune::DecisionTable& table, const svc::SelectRequest& r) {
  const std::vector<tune::SizeInterval>* cell = table.cell(r.profile, r.coll, r.p);
  if (cell == nullptr) return {};
  for (const tune::SizeInterval& iv : *cell)
    if (r.bytes >= iv.lo_bytes && (iv.hi_bytes == tune::kNoUpperBound || r.bytes < iv.hi_bytes))
      return iv.algorithm;
  return {};
}

/// One miss: the request and the system it names.
struct Miss {
  net::SystemProfile prof;
  svc::SelectRequest req;
};

/// Every applicable candidate's separately simulated seconds at the miss's
/// size (harness::Runner::run, the per-size path).
std::map<std::string, double> candidate_seconds(const Miss& m, const tune::TunerOptions& topts) {
  std::map<std::string, double> seconds;
  harness::Runner runner(m.prof, topts.spread_placement, topts.seed);
  for (const coll::AlgorithmEntry& algo : coll::algorithms_for(m.req.coll))
    if (!algo.specialized && (!algo.pow2_only || is_pow2(m.req.p)))
      seconds[algo.name] = runner.run(m.req.coll, algo, m.req.p, m.req.bytes).seconds;
  return seconds;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// The replies of one session that are checked after the passes (the hit
/// replies are checked against the table right after their pass).
struct Session {
  std::vector<svc::SelectReply> misses;
  svc::SweepReply first, second;
};

}  // namespace

Outcome run_svc_session(const Options& opt) {
  Outcome out;
  Rng rng(opt.seed);
  const std::string table_path = opt.tmpdir + "/table.json";
  const std::string journal_dir = opt.tmpdir + "/journal";
  const std::string socket_path = opt.tmpdir + "/svc.sock";
  if (socket_path.size() >= 100) throw std::runtime_error("socket path too long: " + socket_path);

  // --- set-up: the table, the requests, the daemon -----------------------------
  tune::TunerOptions topts;
  topts.threads = 1;
  const std::vector<net::SystemProfile> profs = table_profiles();
  const tune::DecisionTable table =
      tune::Tuner(topts).build(profs, coll::all_collectives(), kTableCounts);
  table.save(table_path);
  const std::string table_bytes = read_file(table_path);

  std::vector<std::vector<svc::SelectRequest>> batches(kBatches);
  for (auto& batch : batches)
    for (size_t i = 0; i < kBatch; ++i) {
      const auto& colls = coll::all_collectives();
      const i64 bytes = i64{1} << rng.below(31);
      batch.push_back(request(profs[rng.below(profs.size())], colls[rng.below(colls.size())],
                              kTableCounts[rng.below(kTableCounts.size())],
                              bytes + static_cast<i64>(rng.below(static_cast<u64>(bytes)))));
    }

  const std::vector<i64> grid = harness::paper_vector_sizes(false);
  std::vector<Miss> misses;
  for (const Collective coll : coll::all_collectives()) {
    // Alternate the systems so every seed tunes the same mix of cells.
    const net::SystemProfile& prof = profs[misses.size() % profs.size()];
    misses.push_back({prof, request(prof, coll, kMissRanks, grid[rng.below(grid.size())])});
  }

  exp::SweepPlan plan = exp::paper::sota_boxplots(
      net::mn5_profile(), {16, 32}, {1 << 10, 1 << 16, 1 << 20},
      {Collective::allreduce, Collective::allgather, Collective::bcast, Collective::alltoall});
  plan.threads = 1;
  plan.systems[0].seed = opt.seed & 0xffffffffu;
  const u64 fp = exp::plan_fingerprint(plan);
  const std::vector<exp::CellRef> plan_cells = exp::enumerate_cells(plan);
  char journal_name[40];
  std::snprintf(journal_name, sizeof journal_name, "/plan_%016llx.bj",
                static_cast<unsigned long long>(fp));

  svc::ServerOptions sopts;
  sopts.unix_socket = socket_path;
  sopts.profiles = {net::lumi_profile(), net::leonardo_profile(), net::mn5_profile()};
  sopts.table_path = table_path;
  sopts.journal_dir = journal_dir;
  sopts.tuner = topts;
  sopts.job_threads = 1;

  // Every pass meets the same daemon state: the built table, no journals,
  // empty plan cache, cold schedule cache and route memo.
  const auto reset = [&] {
    sched::process_schedule_cache().clear();
    net::process_route_memo().clear();
    write_file(table_path, table_bytes);
    std::filesystem::remove_all(journal_dir);
    std::filesystem::create_directories(journal_dir);
  };
  const auto start_server = [&] {
    auto server = std::make_unique<svc::Server>(sopts);
    server->start();
    return server;
  };
  reset();
  std::unique_ptr<svc::Server> server = start_server();
  const double setup_s = seconds_since(opt.start);

  // --- passes -------------------------------------------------------------------
  std::vector<double> miss_medians_ms, select_rates;
  std::vector<Session> sessions;
  const std::vector<Pass> passes = run_passes(opt.seconds, 3, [&](size_t pass_no) {
    Pass pass;
    LayerTrace& tr = pass.trace;
    if (pass_no > 0) server.reset();
    if (opt.trace) {
      // The tune layer alone, on the same cold cells the misses will tune.
      reset();
      std::vector<double> tune_s;
      for (const Miss& m : misses) {
        harness::Runner runner(m.prof, topts.spread_placement, topts.seed);
        const Clock::time_point t0 = Clock::now();
        (void)tune::Tuner(topts).tune_cell(runner, m.req.coll, m.req.p);
        tune_s.push_back(seconds_since(t0));
      }
      tr.add("tune.tune_cell_s", median(tune_s));
    }
    if (pass_no > 0 || opt.trace) reset();
    if (pass_no > 0) server = start_server();
    svc::Client client = svc::Client::connect_to_unix(socket_path);
    Session s;
    std::vector<std::vector<svc::SelectReply>> hits;
    std::vector<double> rtt_us, miss_ms;
    const Clock::time_point t0 = Clock::now();
    for (const auto& batch : batches) {
      const Clock::time_point b0 = Clock::now();
      hits.push_back(client.select_batch(batch));
      rtt_us.push_back(seconds_since(b0) * 1e6);
    }
    const double lookup_s = seconds_since(t0);
    for (const Miss& m : misses) {
      const Clock::time_point m0 = Clock::now();
      s.misses.push_back(client.select(m.req));
      miss_ms.push_back(seconds_since(m0) * 1e3);
    }
    s.first = client.sweep(plan);
    s.second = client.sweep(plan);
    pass.seconds = seconds_since(t0);
    const svc::ServerStats stats = server->stats_snapshot();

    select_rates.push_back(static_cast<double>(kBatches * kBatch) / lookup_s);
    miss_medians_ms.push_back(median(miss_ms));
    if (opt.trace) {
      tr.add("svc.batch_rtt_us", median(rtt_us));
      tr.add("svc.select_hits", static_cast<double>(stats.select_hits));
      tr.add("svc.select_misses", static_cast<double>(stats.select_misses));
      tr.add("svc.tune_builds", static_cast<double>(stats.tune_builds));
      tr.add("svc.plan_cache_hits", static_cast<double>(stats.plan_cache_hits));
      // The journal layer alone: re-append the records the job journaled.
      const auto journal = exp::Journal::open(journal_dir + journal_name, fp);
      const auto copy = exp::Journal::open(opt.tmpdir + "/reappend.bj", fp);
      if (!journal || !copy) throw std::runtime_error("cannot open journals");
      for (const exp::CellRef& cell : plan_cells) {
        const std::string* payload = journal->lookup(exp::cell_key(cell));
        if (payload == nullptr) {
          out.fail("journal lacks cell " + exp::cell_key(cell));
          continue;
        }
        const Clock::time_point a0 = Clock::now();
        if (!copy->append(exp::cell_key(cell), *payload)) out.fail("journal append failed");
        tr.add("exp.journal_append_s", seconds_since(a0));
        tr.add("exp.journal_records", 1);
      }
      std::filesystem::remove(opt.tmpdir + "/reappend.bj");
    }

    // --- checks (untimed) ---------------------------------------------------------
    if (opt.perturb && pass_no == 0) hits[0][0].algorithm += "~";
    for (size_t b = 0; b < batches.size(); ++b)
      for (size_t i = 0; i < batches[b].size(); ++i) {
        const svc::SelectReply& r = hits[b][i];
        if (!r.from_table || r.algorithm != table_answer(table, batches[b][i])) {
          out.fail("hit reply differs from the table: " + describe(batches[b][i]));
          ++out.failed;
        }
      }
    if (stats.tune_builds != misses.size() || stats.plan_cache_hits != 1)
      out.fail("server counters differ from the session's work");
    sessions.push_back(std::move(s));
    return pass;
  });
  server.reset();  // drains and joins every daemon thread before the report
  const double rss_mib = peak_rss_mib();
  out.attempted =
      static_cast<i64>((kBatches * kBatch + misses.size() + 2) * passes.size());

  // The miss and sweep replies of every pass against computations made apart
  // from the daemon: each miss candidate simulated on its own, and the sweep
  // plan run in process.
  std::vector<std::map<std::string, double>> miss_seconds;
  for (const Miss& m : misses) miss_seconds.push_back(candidate_seconds(m, topts));
  const std::string expected_json = exp::run(plan).to_json();
  for (const Session& s : sessions) {
    for (size_t i = 0; i < misses.size(); ++i) {
      const std::map<std::string, double>& cand = miss_seconds[i];
      const auto it = cand.find(s.misses[i].algorithm);
      double best = std::numeric_limits<double>::infinity();
      for (const auto& [name, sec] : cand) best = std::min(best, sec);
      if (!s.misses[i].from_table || it == cand.end() || it->second != best) {
        out.fail("miss reply is not the fastest applicable candidate: " + describe(misses[i].req));
        ++out.failed;
      }
    }
    if (s.first.result_json != expected_json || s.first.begin.cache_hit ||
        s.first.begin.executed != static_cast<i64>(plan_cells.size())) {
      out.fail("first sweep reply is not an execution equal to the in-process exp::run");
      ++out.failed;
    }
    if (s.second.result_json != expected_json || !s.second.begin.cache_hit) {
      out.fail("second sweep reply is not a plan-cache hit equal to the in-process exp::run");
      ++out.failed;
    }
  }

  put_common(out, opt, setup_s, passes, rss_mib);
  if (opt.trace) {
    LayerTrace extra;
    extra.add("svc.select_per_s", *std::max_element(select_rates.begin(), select_rates.end()));
    extra.add("svc.miss_select_ms",
              *std::min_element(miss_medians_ms.begin(), miss_medians_ms.end()));
    put_trace(out, opt, passes, extra);
    check_counts_repeat(out, opt, passes);
  }
  return out;
}

}  // namespace paperbench
