#include "core/bilp_method.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "casestudies/dataserver.hpp"
#include "casestudies/factory.hpp"
#include "core/bottom_up.hpp"
#include "core/enumerative.hpp"
#include "gen/random_at.hpp"
#include "helpers.hpp"

namespace atcd {
namespace {

using atcd::testing::front_is;
using atcd::testing::fronts_equal;

TEST(BilpMethod, ProgramShapeMatchesTheorem6) {
  const auto m = casestudies::make_factory();
  const auto bp = make_bilp(m);
  // One binary per node.
  EXPECT_EQ(bp.base.num_vars(), 5);
  EXPECT_EQ(bp.integer_vars.size(), 5u);
  // AND dr contributes 2 rows (one per child); OR ps contributes 1.
  EXPECT_EQ(bp.base.num_rows(), 3u);
  // obj1 = -damage over all nodes; obj2 = cost over BASs only.
  EXPECT_DOUBLE_EQ(bp.obj1[*m.tree.find("ps")], -200.0);
  EXPECT_DOUBLE_EQ(bp.obj2[*m.tree.find("ca")], 1.0);
  EXPECT_DOUBLE_EQ(bp.obj2[*m.tree.find("dr")], 0.0);
}

TEST(BilpMethod, FactoryFrontViaBilp) {
  const auto f = cdpf_bilp(casestudies::make_factory());
  EXPECT_TRUE(front_is(f, {{0, 0}, {1, 200}, {3, 210}, {5, 310}}));
}

TEST(BilpMethod, AgreesWithBottomUpOnTreelikeModels) {
  Rng rng(41);
  for (int it = 0; it < 8; ++it) {
    const auto m = atcd::testing::random_cdat(rng, 7, /*treelike=*/true);
    EXPECT_TRUE(fronts_equal(cdpf_bilp(m), cdpf_bottom_up(m)))
        << "iteration " << it;
  }
}

TEST(BilpMethod, AgreesWithEnumerationOnDags) {
  Rng rng(42);
  for (int it = 0; it < 8; ++it) {
    const auto m = atcd::testing::random_cdat(rng, 7, /*treelike=*/false);
    EXPECT_TRUE(fronts_equal(cdpf_bilp(m), cdpf_enumerative(m)))
        << "iteration " << it;
  }
}

TEST(BilpMethod, DgcOnTheDataServer) {
  const auto m = casestudies::make_dataserver();
  // Below the cheapest damaging attack.
  EXPECT_DOUBLE_EQ(dgc_bilp(m, 249.0).damage, 0.0);
  // Fig. 6c points as budget thresholds.
  EXPECT_DOUBLE_EQ(dgc_bilp(m, 250.0).damage, 24.0);
  EXPECT_DOUBLE_EQ(dgc_bilp(m, 567.0).damage, 24.0);
  EXPECT_DOUBLE_EQ(dgc_bilp(m, 568.0).damage, 60.0);
  EXPECT_DOUBLE_EQ(dgc_bilp(m, 5000.0).damage, 82.8);
  // Negative budget: infeasible by convention.
  EXPECT_FALSE(dgc_bilp(m, -1.0).feasible);
}

TEST(BilpMethod, CgdOnTheDataServer) {
  const auto m = casestudies::make_dataserver();
  EXPECT_DOUBLE_EQ(cgd_bilp(m, 1.0).cost, 250.0);
  EXPECT_DOUBLE_EQ(cgd_bilp(m, 24.0).cost, 250.0);
  EXPECT_DOUBLE_EQ(cgd_bilp(m, 24.1).cost, 568.0);
  EXPECT_DOUBLE_EQ(cgd_bilp(m, 82.8).cost, 1281.0);
  EXPECT_FALSE(cgd_bilp(m, 83.0).feasible);
}

TEST(BilpMethod, DgcCgdMatchEnumerationOnRandomDags) {
  Rng rng(43);
  for (int it = 0; it < 6; ++it) {
    const auto m = atcd::testing::random_cdat(rng, 7, /*treelike=*/false);
    const double budget = static_cast<double>(rng.range(0, 30));
    const auto a = dgc_bilp(m, budget);
    const auto b = dgc_enumerative(m, budget);
    ASSERT_EQ(a.feasible, b.feasible);
    EXPECT_NEAR(a.damage, b.damage, 1e-7) << "budget " << budget;

    const double thr = static_cast<double>(rng.range(0, 40));
    const auto c = cgd_bilp(m, thr);
    const auto d = cgd_enumerative(m, thr);
    ASSERT_EQ(c.feasible, d.feasible) << "thr " << thr;
    if (c.feasible) EXPECT_NEAR(c.cost, d.cost, 1e-7) << "thr " << thr;
  }
}

// Regression: hardened models put cost coefficients of ~1e6..1e10 into
// the BILP next to ±1 structure rows.  Before the simplex equilibrated
// its tableau (lp.cpp), rounding noise at that scale swamped the
// absolute pivot tolerances and these solves span until the iteration
// limit — the analysis module capped its hardening factor at 1e4 to
// dodge it.  The solves must now terminate and agree with enumeration.
TEST(BilpMethod, SolvesHardenedDagModelsAtLargeCostFactors) {
  Rng rng(44);
  for (const double factor : {1e6, 1e9}) {
    for (int it = 0; it < 3; ++it) {
      auto m = atcd::testing::random_cdat(rng, 7, /*treelike=*/false);
      // Harden every other BAS: cost scaled by the factor, exactly what
      // defense::harden does with HardeningSemantics{factor, 0}.
      double budget = 0.0;
      for (std::size_t i = 0; i < m.cost.size(); ++i) {
        if (i % 2 == 0) {
          m.cost[i] = std::max(1.0, m.cost[i]) * factor;
        } else {
          budget += m.cost[i];
        }
      }
      const auto a = dgc_bilp(m, budget);
      const auto b = dgc_enumerative(m, budget);
      ASSERT_EQ(a.feasible, b.feasible) << "factor " << factor;
      EXPECT_NEAR(a.damage, b.damage, 1e-7)
          << "factor " << factor << " iteration " << it;
    }
  }
}

TEST(BilpMethod, WitnessesSatisfyTheReportedValues) {
  const auto m = casestudies::make_dataserver();
  const auto f = cdpf_bilp(m);
  for (const auto& p : f) {
    EXPECT_DOUBLE_EQ(total_cost(m, p.witness), p.value.cost);
    EXPECT_DOUBLE_EQ(total_damage(m, p.witness), p.value.damage);
  }
}

TEST(BilpMethod, StatsAreReported) {
  BilpRunStats stats;
  (void)cdpf_bilp(casestudies::make_factory(), &stats);
  EXPECT_GT(stats.ilp_solves, 0u);
  EXPECT_GT(stats.bnb_nodes, 0u);
}

/// FNV-1a over the exact bits of every reported value and witness.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void byte(unsigned char b) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  void word(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(w >> (8 * i)));
  }
  void value(double v) { word(std::bit_cast<std::uint64_t>(v)); }
  void witness(const Attack& a) {
    word(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) byte(a.test(i) ? 1 : 0);
  }
  void opt(const OptAttack& r) {
    byte(r.feasible ? 1 : 0);
    value(r.cost);
    value(r.damage);
    witness(r.witness);
  }
};

// Pins the BILP engine bit for bit: the exact cost/damage bits and
// witnesses of dgc, cgd and cdpf on 50 generated DAG models, and the
// total branch-and-bound node count.  Optima often tie, and the simplex
// pivot path decides which tied vertex (and so which witness) is
// reported, so any change to the pivoting shows here.
TEST(BilpMethod, DagResultsAndNodeCountsArePinned) {
  Rng rng(4501);
  gen::SuiteOptions opt;
  opt.max_n = 14;
  opt.per_size = 9;
  opt.treelike = false;
  Digest d;
  BilpRunStats stats;
  std::size_t models = 0;
  for (const auto& e : gen::make_suite(opt, rng)) {
    if (e.tree.is_treelike() || models == 50) continue;
    ++models;
    const CdAt m = randomize_decorations(e.tree, rng).deterministic();
    Attack all(m.tree.bas_count());
    for (std::size_t i = 0; i < all.size(); ++i) all.set(i);
    const double budget = std::floor(total_cost(m, all) / 2.0);
    const double threshold = std::floor(total_damage(m, all) / 2.0);

    d.opt(dgc_bilp(m, budget, &stats));
    d.opt(cgd_bilp(m, threshold, &stats));
    const auto f = cdpf_bilp(m, &stats);
    d.word(f.size());
    for (const auto& p : f) {
      d.value(p.value.cost);
      d.value(p.value.damage);
      d.witness(p.witness);
    }
  }
  ASSERT_EQ(models, 50u);
  EXPECT_EQ(d.h, 0x45944b9b385dce3dull);
  EXPECT_EQ(stats.ilp_solves, 2186u);
  EXPECT_EQ(stats.bnb_nodes, 45771u);
}

}  // namespace
}  // namespace atcd
