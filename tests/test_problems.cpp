#include "core/problems.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "casestudies/dataserver.hpp"
#include "casestudies/factory.hpp"
#include "engine/batch.hpp"
#include "engine/registry.hpp"
#include "helpers.hpp"

namespace atcd {
namespace {

using atcd::testing::front_is;

TEST(Problems, AutoSelectsBottomUpForTrees) {
  const auto m = casestudies::make_factory();
  EXPECT_TRUE(front_is(cdpf(m), {{0, 0}, {1, 200}, {3, 210}, {5, 310}}));
  EXPECT_TRUE(front_is(cdpf(m, Engine::BottomUp),
                       {{0, 0}, {1, 200}, {3, 210}, {5, 310}}));
}

TEST(Problems, AutoSelectsBilpForDags) {
  const auto m = casestudies::make_dataserver();
  const auto f = cdpf(m);  // must not throw UnsupportedError
  EXPECT_EQ(f.size(), 6u);
}

TEST(Problems, AutoSelectsBddForProbabilisticDags) {
  const auto det = casestudies::make_dataserver();
  CdpAt m{det.tree, det.cost, det.damage,
          std::vector<double>(det.tree.bas_count(), 0.5)};
  const auto f = cedpf(m);  // BDD fallback, 2^12 attacks
  EXPECT_GT(f.size(), 1u);
}

TEST(Problems, ExplicitEngineMismatchThrows) {
  const auto ds = casestudies::make_dataserver();
  EXPECT_THROW(cdpf(ds, Engine::BottomUp), UnsupportedError);
  EXPECT_THROW(cdpf(ds, Engine::Bdd), UnsupportedError);
  const auto fac = casestudies::make_factory_probabilistic();
  EXPECT_THROW(cedpf(fac, Engine::Bilp), UnsupportedError);
}

TEST(Problems, AllSixProblemsRunOnTheFactory) {
  const auto m = casestudies::make_factory();
  const auto mp = casestudies::make_factory_probabilistic();
  EXPECT_EQ(cdpf(m).size(), 4u);
  EXPECT_DOUBLE_EQ(dgc(m, 2.0).damage, 200.0);
  EXPECT_DOUBLE_EQ(cgd(m, 201.0).cost, 3.0);
  EXPECT_GT(cedpf(mp).size(), 1u);
  EXPECT_GT(edgc(mp, 3.0).damage, 0.0);
  EXPECT_TRUE(cged(mp, 1.0).feasible);
}

/// A NaN bound is rejected before any backend sees it — under every
/// engine alike, with the batch path's instance_error() text — rather
/// than read as "no limit", "infeasible" or an LP failure depending on
/// which engine runs.
TEST(Problems, NanBoundIsRejectedUnderEveryEngine) {
  const auto m = casestudies::make_factory();
  const auto mp = casestudies::make_factory_probabilistic();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto expect_rejected = [](const auto& call, const std::string& text) {
    try {
      call();
      ADD_FAILURE() << "NaN bound accepted";
    } catch (const ArgumentError& e) {
      EXPECT_EQ(e.what(), text);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "wrong exception: " << e.what();
    }
  };
  using engine::Instance;
  using engine::Problem;
  for (const Engine e : {Engine::Auto, Engine::Enumerative, Engine::BottomUp,
                         Engine::Bilp, Engine::Bdd, Engine::Nsga2,
                         Engine::Knapsack}) {
    SCOPED_TRACE(to_string(e));
    expect_rejected([&] { dgc(m, nan, e); },
                    engine::instance_error(Instance::of(Problem::Dgc, m, nan)));
    expect_rejected([&] { cgd(m, nan, e); },
                    engine::instance_error(Instance::of(Problem::Cgd, m, nan)));
    expect_rejected(
        [&] { edgc(mp, nan, e); },
        engine::instance_error(Instance::of(Problem::Edgc, mp, nan)));
    expect_rejected(
        [&] { cged(mp, nan, e); },
        engine::instance_error(Instance::of(Problem::Cged, mp, nan)));
  }
  // +inf stays a valid "no limit".
  EXPECT_DOUBLE_EQ(
      dgc(m, std::numeric_limits<double>::infinity()).damage, 310.0);
}

TEST(Problems, EngineNames) {
  EXPECT_STREQ(to_string(Engine::Auto), "auto");
  EXPECT_STREQ(to_string(Engine::Enumerative), "enumerative");
  EXPECT_STREQ(to_string(Engine::BottomUp), "bottom-up");
  EXPECT_STREQ(to_string(Engine::Bilp), "bilp");
  EXPECT_STREQ(to_string(Engine::Bdd), "bdd");
  EXPECT_STREQ(to_string(Engine::Nsga2), "nsga2");
  EXPECT_STREQ(to_string(Engine::Knapsack), "knapsack");
}

TEST(Problems, EngineNamesAreRegistryKeys) {
  // Every non-Auto enumerator resolves to a registered backend of the
  // same name, so string- and enum-based selection cannot drift apart.
  for (const Engine e : {Engine::Enumerative, Engine::BottomUp, Engine::Bilp,
                         Engine::Bdd, Engine::Nsga2, Engine::Knapsack}) {
    const auto* b = engine::default_registry().find(to_string(e));
    ASSERT_NE(b, nullptr) << to_string(e);
    EXPECT_STREQ(b->name(), to_string(e));
  }
}

TEST(Problems, EnumerativeEngineIsSelectable) {
  const auto m = casestudies::make_factory();
  EXPECT_TRUE(front_is(cdpf(m, Engine::Enumerative),
                       {{0, 0}, {1, 200}, {3, 210}, {5, 310}}));
  EXPECT_DOUBLE_EQ(dgc(m, 2.0, Engine::Enumerative).damage, 200.0);
  EXPECT_DOUBLE_EQ(cgd(m, 201.0, Engine::Enumerative).cost, 3.0);
}

}  // namespace
}  // namespace atcd
