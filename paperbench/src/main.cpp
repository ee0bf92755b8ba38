// paperbench: the paper-plan benchmark. One workload per process:
//
//   paperbench --workload <paper_cold|sweep_warm|exec_verify|svc_session>
//              --seed <n> --seconds <s> --trace <0|1>
//              [--per-layer name:unit,...] [--perturb] [--scratch <dir>]
//
// The last line of stdout is the JSON report; progress goes to stderr. See
// README.md for the workloads, metrics and the pass statistic.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <filesystem>
#include <string>
#include <utility>

#include "bench.hpp"

namespace paperbench {

namespace {

/// The earliest time the program can observe: before every other static
/// initializer, the library's included. setup_s counts from here.
const Clock::time_point process_start __attribute__((init_priority(101))) = Clock::now();

/// `--per-layer name:unit,name:unit,...` (run.py passes BENCHMARK.json's list).
std::vector<std::pair<std::string, std::string>> parse_per_layer(const std::string& arg) {
  std::vector<std::pair<std::string, std::string>> out;
  size_t at = 0;
  while (at < arg.size()) {
    size_t end = arg.find(',', at);
    if (end == std::string::npos) end = arg.size();
    const std::string item = arg.substr(at, end - at);
    const size_t colon = item.find(':');
    if (colon == 0 || colon == std::string::npos || colon + 1 == item.size())
      throw std::invalid_argument("per-layer metric without name:unit: " + item);
    out.emplace_back(item.substr(0, colon), item.substr(colon + 1));
    at = end + 1;
  }
  return out;
}

bool is_count_unit(const std::string& unit) { return unit == "count" || unit == "B"; }

/// Removes the run's scratch directory however main() exits.
struct ScratchDir {
  std::string path;
  ~ScratchDir() {
    if (path.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

/// The caller's environment must not change what is measured: one thread
/// everywhere, the fault layer off, the schedule cache at its default.
void pin_environment() {
  setenv("BINE_THREADS", "1", 1);
  unsetenv("BINE_FAULT_SPEC");
  unsetenv("BINE_SCHED_CACHE");
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "paperbench: %s\nusage: paperbench --workload <paper_cold|sweep_warm|"
               "exec_verify|svc_session> --seed <n> --seconds <s> --trace <0|1> "
               "[--per-layer name:unit,...] [--perturb] [--scratch <dir>]\n",
               why);
  std::exit(2);
}

void print_report(const Outcome& out) {
  std::string json = "{\"correct\": ";
  json += out.failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : out.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void put_common(Outcome& out, const Options& opt, double setup_s,
                const std::vector<Pass>& passes, double rss_mib) {
  const double pass_s = passes[fastest(passes)].seconds;
  std::fprintf(stderr, "paperbench: %s%s setup %.3f s, %zu passes, fastest %.4f s, median %.4f s\n",
               opt.workload.c_str(), opt.trace ? " (traced)" : "", setup_s, passes.size(),
               pass_s, [&] {
                 std::vector<double> s;
                 for (const Pass& p : passes) s.push_back(p.seconds);
                 return median(s);
               }());
  if (opt.trace) return;
  out.put("setup_s", setup_s, "s");
  out.put("pass_s", pass_s, "s");
  out.put("peak_rss_mib", rss_mib, "MiB");
}

void put_trace(Outcome& out, const Options& opt, const std::vector<Pass>& passes,
               const LayerTrace& setup) {
  const LayerTrace& best = passes[fastest(passes)].trace;
  for (const auto& [name, unit] : opt.per_layer)
    out.put(name, best.v.count(name) ? best.get(name) : setup.get(name), unit);
}

void check_counts_repeat(Outcome& out, const Options& opt, const std::vector<Pass>& passes) {
  for (const auto& [name, unit] : opt.per_layer) {
    if (!is_count_unit(unit)) continue;
    for (const Pass& p : passes)
      if (p.trace.get(name) != passes[0].trace.get(name)) {
        out.fail("traced count " + name + " differs between passes");
        break;
      }
  }
}

}  // namespace paperbench

int main(int argc, char** argv) {
  using namespace paperbench;
  Options opt;
  opt.start = process_start;
  pin_environment();

  std::string scratch = ".bench_build";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") opt.workload = value();
      else if (a == "--seed") { opt.seed = std::stoull(value()); have_seed = true; }
      else if (a == "--seconds") { opt.seconds = std::stod(value()); have_seconds = true; }
      else if (a == "--trace") { opt.trace = std::stoi(value()) != 0; have_trace = true; }
      else if (a == "--per-layer") opt.per_layer = parse_per_layer(value());
      else if (a == "--scratch") scratch = value();
      else if (a == "--perturb") opt.perturb = true;
      else usage(("unknown argument " + a).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) usage("--seed, --seconds and --trace are required");
  if (!(opt.seconds > 0)) usage("--seconds must be positive");
  if (opt.trace && opt.per_layer.empty()) usage("--trace 1 needs --per-layer");

  Outcome (*workload)(const Options&) = nullptr;
  if (opt.workload == "paper_cold") workload = run_paper_cold;
  else if (opt.workload == "sweep_warm") workload = run_sweep_warm;
  else if (opt.workload == "exec_verify") workload = run_exec_verify;
  else if (opt.workload == "svc_session") workload = run_svc_session;
  else usage("unknown workload");

  ScratchDir dir;
  try {
    std::filesystem::create_directories(scratch);
    std::string templ = scratch + "/paperbench-XXXXXX";
    if (mkdtemp(templ.data()) == nullptr) throw std::runtime_error("mkdtemp failed in " + scratch);
    dir.path = templ;
    opt.tmpdir = templ;

    const Outcome out = workload(opt);
    for (size_t i = 0; i < out.failures.size() && i < 10; ++i)
      std::fprintf(stderr, "paperbench: CHECK FAILED: %s\n", out.failures[i].c_str());
    if (out.failures.size() > 10)
      std::fprintf(stderr, "paperbench: ... %zu failed checks in all\n", out.failures.size());
    print_report(out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "paperbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  return 0;
}
