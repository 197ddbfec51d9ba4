#pragma once
/// \file batch.hpp
/// Batch solve API: fan a set of problem instances out across a small
/// thread pool — the first step toward the serving / heavy-traffic goal.
///
/// Instances reference caller-owned models (no copies); every backend is
/// stateless and reentrant, so concurrent solves need no locking.
/// solve_all() is deterministic: each instance is solved independently,
/// so results are identical to sequential solve_one() calls in any
/// thread configuration.  Per-instance failures (capacity, unsupported
/// class, solver errors) are captured in the result instead of tearing
/// down the batch.

#include <span>
#include <string>
#include <vector>

#include "engine/planner.hpp"

namespace atcd::engine {

/// One problem instance.  Exactly one of det/prob must be set, matching
/// is_probabilistic(problem); `bound` is the budget (DgC/EDgC) or
/// threshold (CgD/CgED) and is ignored by the front problems.
struct Instance {
  Problem problem = Problem::Cdpf;
  const CdAt* det = nullptr;
  const CdpAt* prob = nullptr;
  double bound = 0.0;
  std::string backend;  ///< explicit engine name; empty = planner's choice

  static Instance of(Problem p, const CdAt& m, double bound = 0.0,
                     std::string backend = {});
  static Instance of(Problem p, const CdpAt& m, double bound = 0.0,
                     std::string backend = {});
};

/// Outcome of one instance.
struct SolveResult {
  bool ok = false;
  std::string error;         ///< what() of the failure when !ok
  std::string backend;       ///< name of the engine that ran
  Front2d front;             ///< CDPF / CEDPF result
  OptAttack attack;          ///< DgC / CgD / EDgC / CgED result
};

/// Optional result-cache hook consulted by solve_one()/solve_all().
/// The engine layer defines only this interface; the implementation
/// lives above it (service::ResultCache keys entries by canonical model
/// hash).  Implementations must be thread-safe: solve_all() calls them
/// concurrently from every worker.
class SolveCache {
 public:
  virtual ~SolveCache() = default;
  /// Returns true and fills \p out when the instance's result is cached.
  virtual bool lookup(const Instance& in, SolveResult* out) = 0;
  /// Offers a successful result for storage (failures are never offered).
  virtual void store(const Instance& in, const SolveResult& result) = 0;
};

struct BatchOptions {
  /// Worker threads; 0 = min(hardware_concurrency, batch size).
  std::size_t threads = 0;
  /// Registry to resolve engines against; null = default_registry().
  const Registry* registry = nullptr;
  /// Auto-selection policy; null = the Table I default.
  const Policy* policy = nullptr;
  /// Result cache consulted before and fed after each solve; null = none.
  SolveCache* cache = nullptr;
  /// Per-subtree memo bound by incremental-capable backends (see
  /// Capabilities::incremental); null = none.  Independent of `cache`:
  /// a whole-model cache hit skips the solve entirely, so the two never
  /// store the same work twice — and each accounts only its own bytes.
  SubtreeMemo* subtree = nullptr;
};

/// Validates the model/problem pairing of an instance: exactly one of
/// det/prob must be set and it must match is_probabilistic(problem).
/// The bound of a DgC/CgD/EDgC/CgED instance must not be NaN (+inf is a
/// valid "no limit").  Returns an empty string when valid, else a
/// message naming the mismatch.  solve_one()/solve_all() report it as
/// an ok=false result.
std::string instance_error(const Instance& instance);

/// Solves one instance synchronously.
SolveResult solve_one(const Instance& instance, const BatchOptions& opt = {});

/// Solves every instance, fanning out across the thread pool.  The i-th
/// result corresponds to the i-th instance.
std::vector<SolveResult> solve_all(std::span<const Instance> instances,
                                   const BatchOptions& opt = {});

}  // namespace atcd::engine
