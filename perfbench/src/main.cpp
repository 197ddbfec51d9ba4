// atcd_perfbench: one workload of the cost-damage service benchmark.
//
//   atcd_perfbench --workload solve_cold|serve_warm|edit_session
//                  --seed N [--seconds S | --requests N] [--trace 0|1]
//
// Sets the workload up three times before and three times after the run
// (reporting the median set-up time) and runs the untraced replay in a
// series of windows (reporting all but those the hypervisor stole from).
// With --trace 1 it replays the same requests again layer by layer, and
// the untraced replay gets a third of --seconds, so the whole run takes
// about as long.  --requests N replaces the timed windows by one window
// of exactly N requests after a single set-up, for the exact-count
// self-test.  Prints one JSON report on stdout; exits 1 when any output
// failed its check.  perfbench/run.py builds and drives it.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>
#include <numeric>
#include <optional>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

using namespace perfbench;

/// Set-ups before and again after a timed run; setup_s is the median of
/// all of them.  A set-up takes well under a second, and the host's speed
/// moves in phases of several seconds, so set-ups on both sides of the
/// run sample two of them.
constexpr int kSetups = 3;

/// Windows with at most this share of the machine's CPU time stolen by
/// the hypervisor all count towards the end-to-end figures.
constexpr double kMaxSteal = 0.01;

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Accumulates `"name": {"value": v, "unit": u[, "n": n]}` members.
class MetricList {
 public:
  void add(const std::string& name, double value, const char* unit) {
    items_.push_back(quote(name) + ":{\"value\":" + number(value) +
                     ",\"unit\":" + quote(unit) + "}");
  }
  /// A percentile with its sample count; withheld (null) when fewer than
  /// ten samples lie beyond it.
  void add_pct(const std::string& name, const std::vector<double>& v,
               double q) {
    const bool ok = percentile_reportable(v.size(), q);
    items_.push_back(quote(name) + ":{\"value\":" +
                     (ok ? number(percentile(v, q)) : "null") +
                     ",\"unit\":\"us\",\"n\":" + std::to_string(v.size()) +
                     "}");
  }
  /// A value with the sample count it came from; null when withheld.
  void add_n(const std::string& name, std::optional<double> value,
             const char* unit, std::size_t n) {
    items_.push_back(quote(name) + ":{\"value\":" +
                     (value ? number(*value) : "null") + ",\"unit\":" +
                     quote(unit) + ",\"n\":" + std::to_string(n) + "}");
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i)
      out += (i ? "," : "") + items_[i];
    return out + "}";
  }

 private:
  std::vector<std::string> items_;
};

std::string join(const std::vector<double>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? "," : "") + number(v[i]);
  return out;
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

std::string counts_json(const Counts& c) {
  return "{\"cache_hits\":" + std::to_string(c.cache_hits) +
         ",\"cache_misses\":" + std::to_string(c.cache_misses) +
         ",\"subtree_hits\":" + std::to_string(c.subtree_hits) +
         ",\"subtree_misses\":" + std::to_string(c.subtree_misses) +
         ",\"memo_hits\":" + std::to_string(c.memo_hits) +
         ",\"memo_misses\":" + std::to_string(c.memo_misses) +
         ",\"engine_solves\":" + std::to_string(c.engine_solves) +
         ",\"front_points\":" + std::to_string(c.front_points) + "}";
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int usage(const char* why) {
  std::fprintf(stderr,
               "atcd_perfbench: %s\nusage: atcd_perfbench --workload "
               "solve_cold|serve_warm|edit_session --seed N [--seconds S | "
               "--requests N] [--trace 0|1]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  Budget budget;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") workload = v;
    else if (a == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") budget.seconds = std::atof(v);
    else if (a == "--requests") budget.requests = std::strtoull(v, nullptr, 10);
    else if (a == "--trace") trace = std::strcmp(v, "0") != 0;
    else return usage(("unknown option " + a).c_str());
  }
  if (!make_workload(workload)) return usage("unknown --workload");
  if (!(budget.seconds > 0.0)) return usage("bad --seconds");
  const int setups = budget.requests ? 1 : kSetups;

  // Set up several times; the last set-up serves the replay.
  std::unique_ptr<Workload> w;
  std::vector<double> setup_s, save_us, load_us, snap_bytes;
  double request_bytes = 0.0;
  const auto set_up = [&]() -> bool {
    w.reset();
    w = make_workload(workload);
    const Clock::time_point t0 = Clock::now();
    const std::string err = w->setup(seed);
    setup_s.push_back(us_between(t0, Clock::now()) * 1e-6);
    if (!err.empty()) {
      std::fprintf(stderr, "atcd_perfbench: set-up check failed: %s\n",
                   err.c_str());
      std::printf("{\"correct\":false,\"setup_error\":%s}\n", quote(err).c_str());
      return false;
    }
    const SetupFacts f = w->facts();
    save_us.push_back(f.persist_save_us);
    load_us.push_back(f.persist_load_us);
    snap_bytes.push_back(f.snapshot_bytes);
    request_bytes = f.request_bytes;
    return true;
  };
  for (int k = 0; k < setups; ++k)
    if (!set_up()) return 1;

  // The traced replay serves every request of the run twice (traced and
  // untraced), so with --trace 1 the run gets a third of the time and the
  // whole measurement still takes about --seconds.
  Budget measured = budget;
  if (trace) measured.seconds /= 3.0;
  const RunResult run = w->run(measured);
  std::vector<std::string> problems = run.problems;
  std::size_t failed = run.failed;

  MetricList e2e;
  // The end-to-end figures come from the pooled samples of every window
  // during which the hypervisor stole at most kMaxSteal of this machine's
  // CPU time (/proc/stat), or, should fewer than half the windows be that
  // quiet, of the least stolen half.  On a shared host, windows with a
  // few percent steal ran serve_warm at half the throughput.  The choice
  // never looks at the measured values, so two commits are treated alike.
  std::vector<const Round*> kept;
  std::vector<double> steal;
  double elapsed_s = 0.0;
  for (const Round& r : run.rounds) {
    kept.push_back(&r);
    steal.push_back(r.steal_share);
    elapsed_s += r.elapsed_s;
  }
  std::stable_sort(kept.begin(), kept.end(), [](const Round* a, const Round* b) {
    return a->steal_share < b->steal_share;
  });
  const std::size_t quiet = static_cast<std::size_t>(
      std::count_if(kept.begin(), kept.end(),
                    [](const Round* r) { return r->steal_share <= kMaxSteal; }));
  kept.resize(std::max<std::size_t>({1, quiet, kept.size() / 2}));
  std::vector<double> latency_us, kept_rps;
  double kept_s = 0.0;
  for (const Round* r : kept) {
    latency_us.insert(latency_us.end(), r->latency_us.begin(), r->latency_us.end());
    kept_s += r->elapsed_s;
    kept_rps.push_back(static_cast<double>(r->latency_us.size()) / r->elapsed_s);
  }
  const std::size_t n = latency_us.size();
  e2e.add_n("throughput_rps", static_cast<double>(n) / kept_s, "1/s", n);
  e2e.add_n("latency_p50_us", percentile(latency_us, 0.50), "us", n);
  e2e.add_n("latency_p99_us",
            percentile_reportable(n, 0.99)
                ? std::optional(percentile(latency_us, 0.99))
                : std::nullopt,
            "us", n);

  MetricList layers;
  std::string traced_counts = "null";
  if (trace) {
    const TraceResult tr = w->trace(run);
    failed += tr.failed;
    problems.insert(problems.end(), tr.problems.begin(), tr.problems.end());
    if (tr.digest != run.digest) {
      ++failed;
      problems.push_back("traced responses differ from the untraced ones");
    }
    const Counts& a = run.counts;
    const Counts& b = tr.counts;
    if (a.cache_hits != b.cache_hits || a.cache_misses != b.cache_misses ||
        a.subtree_hits != b.subtree_hits ||
        a.subtree_misses != b.subtree_misses) {
      ++failed;
      problems.push_back("traced cache counts " + counts_json(b) +
                         " differ from the untraced " + counts_json(a));
    }
    traced_counts = counts_json(b);

    double layer_total = 0.0;
    for (std::size_t l = 0; l < kLayerCount; ++l)
      layer_total += sum(tr.layer_us[l]);
    const double request_total = sum(tr.request_us);
    const auto share = [&](Layer l) {
      return request_total > 0 ? sum(tr.layer_us[l]) / request_total : 0.0;
    };
    for (std::size_t l = 0; l < kLayerCount; ++l)
      layers.add_pct(std::string(layer_name(static_cast<Layer>(l))) + "_p50",
                     tr.layer_us[l], 0.50);
    layers.add_pct("engine.solve_us_p99", tr.layer_us[kSolve], 0.99);
    layers.add_pct("service.session_resolve_us_p99",
                   tr.layer_us[kSessionResolve], 0.99);
    layers.add("engine.solve_share", share(kSolve), "ratio");
    layers.add("api.encode_share", share(kEncode), "ratio");
    const double lookups = static_cast<double>(b.cache_hits + b.cache_misses);
    layers.add("service.cache_hit_ratio",
               lookups > 0 ? static_cast<double>(b.cache_hits) / lookups : 0.0,
               "ratio");
    layers.add("service.cache_hits", static_cast<double>(b.cache_hits), "count");
    layers.add("service.cache_misses", static_cast<double>(b.cache_misses), "count");
    layers.add("service.subtree_hits", static_cast<double>(b.subtree_hits), "count");
    layers.add("service.subtree_misses", static_cast<double>(b.subtree_misses),
               "count");
    layers.add("service.session_memo_hits", static_cast<double>(b.memo_hits),
               "count");
    layers.add("service.session_memo_misses",
               static_cast<double>(b.memo_misses), "count");
    layers.add("engine.solves", static_cast<double>(b.engine_solves), "count");
    layers.add("pareto.front_points", static_cast<double>(b.front_points),
               "count");
    layers.add("persist.save_us", median(save_us), "us");
    layers.add("persist.load_us", median(load_us), "us");
    layers.add("persist.snapshot_bytes", median(snap_bytes), "bytes");
    layers.add_pct("trace.request_us_p50", tr.request_us, 0.50);
    // Only serve_warm crosses a socket; elsewhere there is no net layer.
    layers.add("net.socket_us_p50",
               workload == "serve_warm"
                   ? percentile(latency_us, 0.5) - percentile(tr.request_us, 0.5)
                   : 0.0,
               "us");
    // Layer time over the untraced in-process time of the same requests:
    // work on the Dispatcher's path that the traced replay does not time
    // (or does not do) shows as coverage below 1.
    const double untraced_total = sum(tr.untraced_us);
    layers.add("trace.coverage",
               untraced_total > 0 ? layer_total / untraced_total : 0.0,
               "ratio");
  }

  // The peak of the measured part: the set-ups after it only time
  // themselves.
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  e2e.add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB");

  if (!budget.requests)
    for (int k = 0; k < kSetups; ++k)
      if (!set_up()) return 1;
  w.reset();
  e2e.add_n("setup_s", median(setup_s), "s", setup_s.size());

  const double attempted = static_cast<double>(run.attempted);
  e2e.add("failed_frac", static_cast<double>(run.failed) / attempted, "ratio");
  e2e.add("success_frac", 1.0 - static_cast<double>(run.failed) / attempted,
          "ratio");

  std::string problem_list = "[";
  for (std::size_t i = 0; i < problems.size(); ++i)
    problem_list += (i ? "," : "") + quote(problems[i]);
  problem_list += "]";

  const bool correct = failed == 0 && run.attempted > 0;
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"trace\":%s,\"correct\":%s,"
      "\"attempted\":%zu,\"failed\":%zu,\"elapsed_s\":%s,"
      "\"setups_s\":[%s],\"request_bytes\":%s,\"round_steal\":[%s],"
      "\"kept_rps\":[%s],"
      "\"digest\":\"%s\",\"counts\":%s,"
      "\"traced_counts\":%s,\"problems\":%s,"
      "\"host\":{\"nproc\":%u,\"compiler\":%s,\"build_type\":%s},"
      "\"end_to_end\":%s,\"per_layer\":%s}\n",
      quote(workload).c_str(), static_cast<unsigned long long>(seed),
      trace ? "true" : "false", correct ? "true" : "false", run.attempted,
      failed, number(elapsed_s).c_str(),
      join(setup_s).c_str(), number(request_bytes).c_str(),
      join(steal).c_str(), join(kept_rps).c_str(),
      hex(run.digest).c_str(), counts_json(run.counts).c_str(),
      traced_counts.c_str(), problem_list.c_str(),
      std::thread::hardware_concurrency(), quote(compiler()).c_str(),
      quote(PERFBENCH_BUILD_TYPE).c_str(), e2e.json().c_str(),
      layers.json().c_str());
  return correct ? 0 : 1;
}
