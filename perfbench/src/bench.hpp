// Shared types of the cost-damage service benchmark (atcd_perfbench).
//
// The benchmark drives the library only through its public functions.
// Every workload generates its request lines from the seed and replays
// them for a fixed time or request count; every response is checked
// (see each workload).  The traced replay calls each layer's public
// function itself and times it from here, so nothing inside src/ is
// instrumented for the benchmark.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "core/cdat.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ---------------------------------------------------------------------------
// Statistics (stats.cpp)
// ---------------------------------------------------------------------------

/// Exact nearest-rank percentile of \p v (q in (0,1]); sorts a copy.
/// Returns 0 for an empty sample.
double percentile(std::vector<double> v, double q);

/// True when at least ten samples lie beyond the q-th percentile, the
/// rule for reporting that percentile at all.
bool percentile_reportable(std::size_t n, double q);

double median(std::vector<double> v);

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/// FNV-1a over \p bytes, continuing from \p h.
std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes);

/// A response line with its cache disposition replaced by a fixed token,
/// so a hit, a miss and a coalesced answer of one request compare equal.
std::string normalise(const std::string& response);

// ---------------------------------------------------------------------------
// Correctness checks (checks.cpp).  Each returns "" when the answer holds,
// else a one-line reason.
// ---------------------------------------------------------------------------

/// The generated model a request carries, kept on the benchmark side.
struct ModelRef {
  std::shared_ptr<const atcd::CdpAt> model;  ///< prob is all-ones for det
  atcd::engine::Problem problem = atcd::engine::Problem::Cdpf;
  double bound = 0.0;
};

/// Re-evaluates every witness of \p payload with the public structure
/// functions: its cost and damage must equal the reported values, and a
/// budget/threshold must hold.  Fronts must be strictly increasing.
std::string check_witnesses(const ModelRef& ref,
                            const atcd::api::SolvePayload& payload);

/// Compares the optimum values of \p payload with \p oracle (an
/// independent solve of the same model): equal front points, equal
/// optimal damage (budgeted problems) or cost (threshold problems).
std::string check_against(const ModelRef& ref,
                          const atcd::api::SolvePayload& payload,
                          const atcd::engine::SolveResult& oracle);

/// Decodes a solve response line and runs check_witnesses on it; with
/// \p enumerate also compares against the enumerative engine.
std::string check_solve_response(const ModelRef& ref,
                                 const std::string& response, bool enumerate);

// ---------------------------------------------------------------------------
// Workloads (workloads.cpp)
// ---------------------------------------------------------------------------

/// serve_warm's measured windows in a timed run.  The end-to-end
/// figures come from the windows the hypervisor stole little from (see
/// main.cpp).
inline constexpr std::size_t kWindows = 20;

/// How long the measured replay runs: about \p seconds, or, when
/// \p requests is non-zero, exactly that many requests.  serve_warm
/// measures kWindows windows of \p seconds / kWindows each (one in
/// exact-count mode); the in-process workloads measure one window per
/// segment of their stream until the windows add up to \p seconds.
struct Budget {
  double seconds = 10.0;
  std::size_t requests = 0;

  std::size_t windows() const { return requests ? 1 : kWindows; }
  double round_seconds() const {
    return seconds / static_cast<double>(kWindows);
  }
};

/// Cache/memo counts of one replay; identical for a fixed seed and
/// request count.
struct Counts {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t subtree_hits = 0;
  std::uint64_t subtree_misses = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  std::uint64_t engine_solves = 0;
  std::uint64_t front_points = 0;
};

/// CPU time of the whole machine, from /proc/stat (zeros if unreadable).
struct CpuTicks {
  std::uint64_t steal = 0;  ///< time the hypervisor ran someone else
  std::uint64_t total = 0;
};
CpuTicks cpu_ticks();

/// The CPUs the calling thread may run on, in order (empty if unknown).
std::vector<int> allowed_cpus();

/// Restricts the calling thread to \p cpus (all of them at once).
void pin_thread(const std::vector<int>& cpus);

/// One measured window of the untraced replay.
struct Round {
  double elapsed_s = 0.0;          ///< wall time of the window
  std::vector<double> latency_us;  ///< one per completed request
  double steal_share = 0.0;        ///< share of CPU time stolen meanwhile

  /// Brackets the window; end() also stores the steal share.
  void begin() { ticks_ = cpu_ticks(); }
  void end() {
    const CpuTicks now = cpu_ticks();
    const auto total = now.total - ticks_.total;
    steal_share = total ? static_cast<double>(now.steal - ticks_.steal) /
                              static_cast<double>(total)
                        : 0.0;
  }

 private:
  CpuTicks ticks_;
};

/// The outcome of the untraced, measured replay.
struct RunResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Round> rounds;
  std::uint64_t digest = kFnvOffset; ///< FNV-1a of normalised responses
  Counts counts;                     ///< from the stats op
  std::vector<std::size_t> per_caller;  ///< requests each caller sent
  std::vector<std::string> problems;    ///< first few failure reasons
};

/// Layers the traced replay times, in pipeline order.
enum Layer : std::size_t {
  kDecode,
  kParse,
  kHash,
  kLookup,
  kSolve,
  kInsert,
  kSessionOpen,
  kSessionEdit,
  kSessionResolve,
  kSweep,
  kRender,
  kEncode,
  kLayerCount
};

/// Metric-name stem of each layer, e.g. "api.decode_us".
const char* layer_name(Layer layer);

/// The outcome of the traced replay.
struct TraceResult {
  std::size_t failed = 0;
  std::array<std::vector<double>, kLayerCount> layer_us;
  std::vector<double> request_us;  ///< decode start to encode end
  /// The same requests served untraced, in process (decode -> dispatch
  /// -> encode), for trace.coverage.
  std::vector<double> untraced_us;
  std::uint64_t digest = kFnvOffset;
  Counts counts;
  std::vector<std::string> problems;
};

/// Set-up facts a workload records besides its duration.
struct SetupFacts {
  double persist_save_us = 0.0;
  double persist_load_us = 0.0;
  double snapshot_bytes = 0.0;
  /// Generated request lines the benchmark holds in memory; part of
  /// peak_rss_mb.
  double request_bytes = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the request lines from \p seed, warms up, and brings up
  /// whatever serves the replay (serve_warm also solves and checks its
  /// references here).  Returns "" or the reason the set-up failed.
  virtual std::string setup(std::uint64_t seed) = 0;

  /// The untraced, measured replay.
  virtual RunResult run(const Budget& budget) = 0;

  /// Replays exactly the requests \p run completed, timing each layer.
  virtual TraceResult trace(const RunResult& run) = 0;

  virtual SetupFacts facts() const { return {}; }
};

/// "solve_cold", "serve_warm" or "edit_session"; null for other names.
std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace perfbench
