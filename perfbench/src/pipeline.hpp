// The two ways the benchmark drives the stack in-process: through the
// Dispatcher as a caller would (untraced), and layer by layer through
// each layer's public function, timing every call (traced).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "api/dispatcher.hpp"
#include "bench.hpp"
#include "obs/metrics.hpp"
#include "service/cache.hpp"
#include "service/session.hpp"
#include "service/subtree_cache.hpp"

namespace perfbench {

/// decode_request -> Dispatcher::dispatch -> encode_response, the path a
/// JSON-lines caller takes.
std::string serve_line(atcd::api::Dispatcher& d, const std::string& line);

/// Cache and subtree-cache counts from the dispatcher's `stats` op.
Counts stats_counts(const atcd::api::StatsPayload& s);
Counts stats_counts(atcd::api::Dispatcher& d);

/// One traced request pipeline over caches of its own, built like the
/// Dispatcher's defaults.  handle() serves solve, session and sweep
/// requests and must answer byte for byte as the Dispatcher does.
class TracedStack {
 public:
  std::string handle(const std::string& line, TraceResult& tr);

  /// Adds this stack's cache, subtree and memo counts to \p c (sessions
  /// still open included).
  void add_counts(Counts& c) const;

  atcd::service::ResultCache& cache() { return cache_; }
  atcd::service::SubtreeCache& subtree() { return subtree_; }

 private:
  atcd::api::Payload solve(const atcd::api::SolveSpec& spec, TraceResult& tr);

  atcd::obs::Registry registry_;
  atcd::service::ResultCache cache_;
  atcd::service::SubtreeCache subtree_;
  std::map<std::uint64_t, std::unique_ptr<atcd::service::Session>> sessions_;
  std::uint64_t next_session_ = 1;
  atcd::service::Session::MemoStats closed_memo_;
};

}  // namespace perfbench
