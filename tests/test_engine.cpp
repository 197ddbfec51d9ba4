/// Tests for the engine subsystem: registry lookups, capability
/// metadata, the planner's dispatch matrix (paper Table I), explicit
/// engine mismatch errors, and cross-validation of every exact backend
/// against the enumerative oracle on small random models.

#include "engine/planner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include "casestudies/dataserver.hpp"
#include "core/knapsack.hpp"
#include "casestudies/factory.hpp"
#include "core/problems.hpp"
#include "engine/batch.hpp"
#include "helpers.hpp"

namespace atcd {
namespace {

using atcd::testing::fronts_equal;
using engine::Problem;
using engine::Traits;

Traits tree_det() { return Traits{true, false, false, 8}; }
Traits dag_det() { return Traits{false, false, false, 8}; }
Traits tree_prob() { return Traits{true, true, false, 8}; }
Traits dag_prob() { return Traits{false, true, false, 8}; }

// ---- Registry. ----

TEST(Registry, BuiltinsAreRegisteredInOrder) {
  const auto all = engine::default_registry().all();
  ASSERT_EQ(all.size(), 6u);
  EXPECT_STREQ(all[0]->name(), "enumerative");
  EXPECT_STREQ(all[1]->name(), "bottom-up");
  EXPECT_STREQ(all[2]->name(), "bilp");
  EXPECT_STREQ(all[3]->name(), "bdd");
  EXPECT_STREQ(all[4]->name(), "nsga2");
  EXPECT_STREQ(all[5]->name(), "knapsack");
}

TEST(Registry, FindAndAt) {
  const auto& r = engine::default_registry();
  ASSERT_NE(r.find("bilp"), nullptr);
  EXPECT_EQ(r.find("no-such-engine"), nullptr);
  EXPECT_THROW(r.at("no-such-engine"), UnsupportedError);
  try {
    r.at("no-such-engine");
  } catch (const UnsupportedError& e) {
    // The error lists the registered names, for CLI/bench UX.
    EXPECT_NE(std::string(e.what()).find("bottom-up"), std::string::npos);
  }
}

TEST(Registry, RejectsDuplicateNames) {
  engine::Registry r = engine::Registry::with_builtins();
  class Fake final : public engine::Backend {
   public:
    const char* name() const override { return "bilp"; }
    engine::Capabilities capabilities() const override { return {}; }
  };
  EXPECT_THROW(r.add(std::make_shared<Fake>()), Error);
}

TEST(Registry, CapabilityMetadataMatchesTableOne) {
  const auto& r = engine::default_registry();
  const auto bu = r.at("bottom-up").capabilities();
  EXPECT_TRUE(bu.tree_det && bu.tree_prob);
  EXPECT_FALSE(bu.dag_det || bu.dag_prob);
  const auto bilp = r.at("bilp").capabilities();
  EXPECT_TRUE(bilp.tree_det && bilp.dag_det);
  EXPECT_FALSE(bilp.tree_prob || bilp.dag_prob);
  const auto bdd = r.at("bdd").capabilities();
  EXPECT_TRUE(bdd.tree_prob && bdd.dag_prob);
  EXPECT_FALSE(bdd.tree_det || bdd.dag_det);
  const auto ga = r.at("nsga2").capabilities();
  EXPECT_TRUE(ga.tree_det && ga.dag_det && ga.tree_prob && ga.dag_prob);
  EXPECT_FALSE(ga.exact);
  const auto ks = r.at("knapsack").capabilities();
  EXPECT_TRUE(ks.additive_only);
  EXPECT_FALSE(ks.fronts);
}

// ---- Planner dispatch matrix (Table I). ----

TEST(Planner, AutoFollowsTableOne) {
  const engine::Planner p;
  EXPECT_STREQ(p.plan(Problem::Cdpf, tree_det()).name(), "bottom-up");
  EXPECT_STREQ(p.plan(Problem::Dgc, tree_det()).name(), "bottom-up");
  EXPECT_STREQ(p.plan(Problem::Cgd, tree_det()).name(), "bottom-up");
  EXPECT_STREQ(p.plan(Problem::Cdpf, dag_det()).name(), "bilp");
  EXPECT_STREQ(p.plan(Problem::Dgc, dag_det()).name(), "bilp");
  EXPECT_STREQ(p.plan(Problem::Cedpf, tree_prob()).name(), "bottom-up");
  EXPECT_STREQ(p.plan(Problem::Edgc, tree_prob()).name(), "bottom-up");
  EXPECT_STREQ(p.plan(Problem::Cedpf, dag_prob()).name(), "bdd");
  EXPECT_STREQ(p.plan(Problem::Cged, dag_prob()).name(), "bdd");
}

TEST(Planner, NeverAutoSelectsApproximateBackends) {
  // Probabilistic DAG beyond the BDD capacity: the planner still prefers
  // the exact capped backend (which then capacity-errors) over silently
  // degrading to NSGA-II.
  Traits big = dag_prob();
  big.bas = 40;
  const engine::Planner p;
  EXPECT_STREQ(p.plan(Problem::Cedpf, big).name(), "bdd");
}

TEST(Planner, CustomPreferenceOrderOverridesTableOne) {
  const engine::TableOnePolicy prefer_bilp({"bilp", "bottom-up"});
  const engine::Planner p(engine::default_registry(), prefer_bilp);
  EXPECT_STREQ(p.plan(Problem::Cdpf, tree_det()).name(), "bilp");
  // bilp cannot do probabilistic problems: next preference wins.
  EXPECT_STREQ(p.plan(Problem::Cedpf, tree_prob()).name(), "bottom-up");
}

TEST(Planner, CustomRegistryWithoutApplicableEngineThrows) {
  engine::Registry r;  // empty
  const engine::Planner p(r);
  EXPECT_THROW(p.plan(Problem::Cdpf, tree_det()), UnsupportedError);
}

TEST(Planner, ResolveNamesTheMissingCapability) {
  const engine::Planner p;
  try {
    p.resolve("bottom-up", Problem::Cdpf, dag_det());
    FAIL() << "expected UnsupportedError";
  } catch (const UnsupportedError& e) {
    EXPECT_NE(std::string(e.what()).find("DAG"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("treelike"), std::string::npos)
        << e.what();
  }
  try {
    p.resolve("bilp", Problem::Cedpf, tree_prob());
    FAIL() << "expected UnsupportedError";
  } catch (const UnsupportedError& e) {
    EXPECT_NE(std::string(e.what()).find("probabilistic"), std::string::npos)
        << e.what();
  }
  try {
    p.resolve("knapsack", Problem::Cdpf, tree_det());
    FAIL() << "expected UnsupportedError";
  } catch (const UnsupportedError& e) {
    EXPECT_NE(std::string(e.what()).find("front"), std::string::npos)
        << e.what();
  }
}

// ---- Explicit engine requests through the problems.hpp front-end. ----

TEST(EngineDispatch, ExplicitMismatchThrowsUnsupported) {
  const auto ds = casestudies::make_dataserver();  // DAG
  EXPECT_THROW(cdpf(ds, Engine::BottomUp), UnsupportedError);
  EXPECT_THROW(cdpf(ds, Engine::Bdd), UnsupportedError);
  EXPECT_THROW(dgc(ds, 3.0, Engine::Knapsack), UnsupportedError);  // not additive
  const auto fac = casestudies::make_factory_probabilistic();
  EXPECT_THROW(cedpf(fac, Engine::Bilp), UnsupportedError);
  EXPECT_THROW(cedpf(fac, Engine::Knapsack), UnsupportedError);
}

// A NaN bound used to reach the engines, which read it differently:
// bottom-up answered "infeasible" where bilp and enumerative returned
// the full (dgc) or empty (cgd) attack.  It is now an instance error,
// whatever the engine; +inf stays a valid "no limit".
TEST(EngineDispatch, NanBoundIsAnInstanceErrorForEveryExactEngine) {
  const auto det = casestudies::make_factory();
  const auto prob = casestudies::make_factory_probabilistic();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const Problem p :
       {Problem::Dgc, Problem::Cgd, Problem::Edgc, Problem::Cged}) {
    const std::string expect = std::string("instance for ") + to_string(p) +
                               " has a NaN bound; a bound must be a number "
                               "(+inf means no limit)";
    for (const engine::Backend* b : engine::default_registry().all()) {
      if (!b->capabilities().exact) continue;
      const auto in = engine::is_probabilistic(p)
                          ? engine::Instance::of(p, prob, nan, b->name())
                          : engine::Instance::of(p, det, nan, b->name());
      const auto r = engine::solve_one(in);
      EXPECT_FALSE(r.ok) << to_string(p) << " " << b->name();
      EXPECT_EQ(r.error, expect) << b->name();
    }
  }
  const double inf = std::numeric_limits<double>::infinity();
  const auto unbounded = engine::solve_one(
      engine::Instance::of(Problem::Dgc, det, inf, "bottom-up"));
  ASSERT_TRUE(unbounded.ok) << unbounded.error;
  EXPECT_DOUBLE_EQ(unbounded.attack.damage, 310.0);
}

TEST(EngineDispatch, Nsga2IsSelectableByName) {
  const auto m = casestudies::make_factory();
  const auto exact = cdpf(m);
  const auto approx = cdpf(m, Engine::Nsga2);
  EXPECT_GT(approx.size(), 0u);
  // Every NSGA-II point is attainable: witness evaluations must match.
  for (const auto& p : approx) {
    EXPECT_NEAR(total_cost(m, p.witness), p.value.cost, 1e-9);
    EXPECT_NEAR(total_damage(m, p.witness), p.value.damage, 1e-9);
  }
  // On this small model the GA finds the whole front.
  EXPECT_TRUE(fronts_equal(approx, exact));
}

TEST(EngineDispatch, KnapsackIsSelectableOnAdditiveModels) {
  const KnapsackInstance inst{{10, 13, 7, 9}, {3, 4, 2, 5}, 7};
  const auto m = knapsack_to_cdat(inst);  // additive by construction
  const auto ks = dgc(m, inst.capacity, Engine::Knapsack);
  const auto oracle = dgc(m, inst.capacity, Engine::Enumerative);
  ASSERT_TRUE(ks.feasible);
  EXPECT_DOUBLE_EQ(ks.damage, oracle.damage);
  const auto cover = cgd(m, 20.0, Engine::Knapsack);
  const auto cover_oracle = cgd(m, 20.0, Engine::Enumerative);
  ASSERT_EQ(cover.feasible, cover_oracle.feasible);
  EXPECT_DOUBLE_EQ(cover.cost, cover_oracle.cost);
}

// ---- Cross-validation: every exact engine vs the enumerative oracle. ----

TEST(EngineCrossValidation, TreelikeDeterministic) {
  Rng rng(7401);
  for (int rep = 0; rep < 8; ++rep) {
    const auto m = atcd::testing::random_cdat(rng, 3 + rng.below(6), true);
    const auto oracle = cdpf(m, Engine::Enumerative);
    EXPECT_TRUE(fronts_equal(cdpf(m, Engine::BottomUp), oracle)) << rep;
    EXPECT_TRUE(fronts_equal(cdpf(m, Engine::Bilp), oracle)) << rep;
    const double budget = 1.0 + static_cast<double>(rng.below(20));
    EXPECT_DOUBLE_EQ(dgc(m, budget, Engine::BottomUp).damage,
                     dgc(m, budget, Engine::Enumerative).damage)
        << rep;
  }
}

TEST(EngineCrossValidation, DagDeterministic) {
  Rng rng(7402);
  for (int rep = 0; rep < 8; ++rep) {
    const auto m = atcd::testing::random_cdat(rng, 3 + rng.below(6), false);
    const auto oracle = cdpf(m, Engine::Enumerative);
    EXPECT_TRUE(fronts_equal(cdpf(m, Engine::Bilp), oracle)) << rep;
    EXPECT_TRUE(fronts_equal(cdpf(m), oracle)) << rep;  // Auto == bilp
  }
}

TEST(EngineCrossValidation, TreelikeProbabilistic) {
  Rng rng(7403);
  for (int rep = 0; rep < 6; ++rep) {
    const auto m = atcd::testing::random_cdpat(rng, 3 + rng.below(5), true);
    const auto oracle = cedpf(m, Engine::Enumerative);
    EXPECT_TRUE(fronts_equal(cedpf(m, Engine::BottomUp), oracle, 1e-7))
        << rep;
    EXPECT_TRUE(fronts_equal(cedpf(m, Engine::Bdd), oracle, 1e-7)) << rep;
  }
}

TEST(EngineCrossValidation, AdditiveKnapsackOnRandomInstances) {
  Rng rng(7404);
  for (int rep = 0; rep < 8; ++rep) {
    KnapsackInstance inst;
    const int n = 2 + static_cast<int>(rng.below(8));
    for (int i = 0; i < n; ++i) {
      inst.value.push_back(static_cast<double>(rng.range(0, 15)));
      inst.weight.push_back(static_cast<double>(rng.range(1, 9)));
    }
    inst.capacity = static_cast<double>(rng.range(0, 3 * n));
    const auto m = knapsack_to_cdat(inst);
    EXPECT_DOUBLE_EQ(dgc(m, inst.capacity, Engine::Knapsack).damage,
                     dgc(m, inst.capacity, Engine::Enumerative).damage)
        << rep;
  }
}

}  // namespace
}  // namespace atcd
