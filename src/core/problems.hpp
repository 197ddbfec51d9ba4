#pragma once
/// \file problems.hpp
/// Unified front-end for the six cost-damage problems of the paper.
///
/// Dispatch goes through the engine subsystem (engine/planner.hpp): every
/// registered backend advertises which Table I cells it covers, and
/// Engine::Auto asks the planner for the strongest applicable one — by
/// default exactly the paper's choices, extended by our BDD fallback for
/// its open problem:
///
///                 | treelike            | DAG-like
///   deterministic | bottom-up (Thm 4)   | BILP (Thm 6)
///   probabilistic | bottom-up (Thm 9)   | BDD + enumeration (exact,
///                 |                     |   exponential, capacity-guarded)
///
/// Explicit engines are available for cross-validation and benchmarks;
/// beyond the exact methods above these include the NSGA-II approximation
/// (any model class) and the exact knapsack branch-and-bound (additive
/// models, single-objective problems only).  Engines not applicable to
/// the requested problem/model class throw UnsupportedError naming the
/// missing capability.  A NaN budget or threshold throws ArgumentError
/// under every engine, Auto included.  For registry lookups by string
/// name, custom selection policies, and the batch API see
/// engine/registry.hpp, engine/planner.hpp and engine/batch.hpp.

#include "core/cdat.hpp"
#include "core/opt_result.hpp"
#include "pareto/front2d.hpp"

namespace atcd {

/// Convenience handles for the registered backends.  The authoritative
/// list lives in the engine registry — to_string(Engine) is exactly the
/// registered name, so new engines are usable by name without extending
/// this enum.
enum class Engine {
  Auto,         ///< planner's choice (see table above)
  Enumerative,  ///< 2^|B| baseline (Sec. X), capacity-guarded
  BottomUp,     ///< treelike only (Thms 3-4, 8-9)
  Bilp,         ///< deterministic only (Thms 6-7)
  Bdd,          ///< exact probabilistic DAG fallback, capacity-guarded
  Nsga2,        ///< genetic approximation, any model class
  Knapsack,     ///< exact branch-and-bound, additive models, DgC/CgD only
};

const char* to_string(Engine e);

/// CDPF: the cost-damage Pareto front  min ⊑ (ĉ, d̂)(A).
Front2d cdpf(const CdAt& m, Engine engine = Engine::Auto);

/// DgC: max d̂(x) subject to ĉ(x) <= budget.
OptAttack dgc(const CdAt& m, double budget, Engine engine = Engine::Auto);

/// CgD: min ĉ(x) subject to d̂(x) >= threshold.  Infeasible result when
/// threshold exceeds the maximal damage.
OptAttack cgd(const CdAt& m, double threshold, Engine engine = Engine::Auto);

/// CEDPF: the cost-expected-damage Pareto front  min ⊑ (ĉ, d̂_E)(A).
Front2d cedpf(const CdpAt& m, Engine engine = Engine::Auto);

/// EDgC: max d̂_E(x) subject to ĉ(x) <= budget.
OptAttack edgc(const CdpAt& m, double budget, Engine engine = Engine::Auto);

/// CgED: min ĉ(x) subject to d̂_E(x) >= threshold.
OptAttack cged(const CdpAt& m, double threshold,
               Engine engine = Engine::Auto);

}  // namespace atcd
