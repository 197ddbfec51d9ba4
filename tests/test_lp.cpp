#include "lp/lp.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace atcd::lp {
namespace {

TEST(Lp, SimpleTwoVariableOptimum) {
  // max x + y  s.t.  x + 2y <= 4, 3x + y <= 6, x,y >= 0
  // (minimize the negation).  Optimum at (1.6, 1.2) -> -2.8.
  LinearProgram p;
  const int x = p.add_var(0, kInf, -1.0);
  const int y = p.add_var(0, kInf, -1.0);
  p.add_row({{x, 1}, {y, 2}}, Sense::LE, 4);
  p.add_row({{x, 3}, {y, 1}}, Sense::LE, 6);
  const auto r = solve(p);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, -2.8, 1e-9);
  EXPECT_NEAR(r.x[0], 1.6, 1e-9);
  EXPECT_NEAR(r.x[1], 1.2, 1e-9);
}

TEST(Lp, EqualityConstraints) {
  // min x + y  s.t.  x + y = 3, x - y = 1  ->  (2,1), objective 3.
  LinearProgram p;
  const int x = p.add_var(0, kInf, 1.0);
  const int y = p.add_var(0, kInf, 1.0);
  p.add_row({{x, 1}, {y, 1}}, Sense::EQ, 3);
  p.add_row({{x, 1}, {y, -1}}, Sense::EQ, 1);
  const auto r = solve(p);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.x[0], 2.0, 1e-9);
  EXPECT_NEAR(r.x[1], 1.0, 1e-9);
}

TEST(Lp, GreaterEqualAndNegativeRhs) {
  // min 2x + y  s.t.  x + y >= 2,  -x - y >= -10  ->  (0,2), obj 2.
  LinearProgram p;
  const int x = p.add_var(0, kInf, 2.0);
  const int y = p.add_var(0, kInf, 1.0);
  p.add_row({{x, 1}, {y, 1}}, Sense::GE, 2);
  p.add_row({{x, -1}, {y, -1}}, Sense::GE, -10);
  const auto r = solve(p);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-9);
}

TEST(Lp, DetectsInfeasible) {
  LinearProgram p;
  const int x = p.add_var(0, kInf, 1.0);
  p.add_row({{x, 1}}, Sense::GE, 5);
  p.add_row({{x, 1}}, Sense::LE, 3);
  EXPECT_EQ(solve(p).status, LpStatus::Infeasible);
}

TEST(Lp, DetectsUnbounded) {
  LinearProgram p;
  const int x = p.add_var(0, kInf, -1.0);  // max x, no constraint
  p.add_var(0, 1, 0.0);
  const auto r = solve(p);
  EXPECT_EQ(r.status, LpStatus::Unbounded);
}

TEST(Lp, VariableBoundsAreRespected) {
  // min -x - 2y with x in [0,3], y in [1,2].
  LinearProgram p;
  p.add_var(0, 3, -1.0);
  p.add_var(1, 2, -2.0);
  const auto r = solve(p);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.x[0], 3.0, 1e-9);
  EXPECT_NEAR(r.x[1], 2.0, 1e-9);
  EXPECT_NEAR(r.objective, -7.0, 1e-9);
}

TEST(Lp, NonzeroLowerBoundsShiftCorrectly) {
  // min x + y with x >= 2, y in [3, 10], x + y <= 20.
  LinearProgram p;
  const int x = p.add_var(2, kInf, 1.0);
  const int y = p.add_var(3, 10, 1.0);
  p.add_row({{x, 1}, {y, 1}}, Sense::LE, 20);
  const auto r = solve(p);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.x[0], 2.0, 1e-9);
  EXPECT_NEAR(r.x[1], 3.0, 1e-9);
}

TEST(Lp, FixedVariablesViaEqualBounds) {
  LinearProgram p;
  const int x = p.add_var(1, 1, 5.0);  // fixed at 1
  const int y = p.add_var(0, kInf, 1.0);
  p.add_row({{x, 1}, {y, 1}}, Sense::GE, 4);
  const auto r = solve(p);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.x[0], 1.0, 1e-9);
  EXPECT_NEAR(r.x[1], 3.0, 1e-9);
}

TEST(Lp, DegenerateProblemTerminates) {
  // Classic cycling-prone setup (Beale); Bland fallback must terminate.
  LinearProgram p;
  const int x1 = p.add_var(0, kInf, -0.75);
  const int x2 = p.add_var(0, kInf, 150.0);
  const int x3 = p.add_var(0, kInf, -0.02);
  const int x4 = p.add_var(0, kInf, 6.0);
  p.add_row({{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}}, Sense::LE, 0);
  p.add_row({{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}}, Sense::LE, 0);
  p.add_row({{x3, 1}}, Sense::LE, 1);
  const auto r = solve(p);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, -0.05, 1e-9);
}

TEST(Lp, RejectsMalformedModels) {
  LinearProgram p;
  EXPECT_THROW(p.add_var(kInf, kInf, 0.0), SolverError);
  EXPECT_THROW(p.add_var(2, 1, 0.0), SolverError);
  p.add_var(0, 1, 0.0);
  EXPECT_THROW(p.add_row({{5, 1.0}}, Sense::LE, 0), SolverError);
  EXPECT_THROW(p.set_bounds(3, 0, 1), SolverError);
  EXPECT_THROW(p.set_obj(3, 1.0), SolverError);

  // NaN never enters a program: it used to be read as "no upper bound"
  // (add_var) or to yield an "optimal" result (add_row).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(p.add_var(nan, 1, 0.0), SolverError);
  EXPECT_THROW(p.add_var(0, nan, 0.0), SolverError);
  EXPECT_THROW(p.add_var(0, 1, nan), SolverError);
  EXPECT_THROW(p.add_var(0, 1, kInf), SolverError);
  EXPECT_THROW(p.add_row({{0, nan}}, Sense::LE, 1), SolverError);
  EXPECT_THROW(p.add_row({{0, kInf}}, Sense::LE, 1), SolverError);
  EXPECT_THROW(p.add_row({{0, 1.0}}, Sense::LE, nan), SolverError);
  EXPECT_THROW(p.set_bounds(0, 0, nan), SolverError);
  EXPECT_THROW(p.set_bounds(0, nan, 1), SolverError);
  EXPECT_THROW(p.set_obj(0, nan), SolverError);
  EXPECT_EQ(p.num_vars(), 1);
  EXPECT_EQ(p.num_rows(), 0u);
  EXPECT_EQ(p.upper_bound(0), 1.0);
  EXPECT_EQ(p.objective_coeff(0), 0.0);
  // An infinite right-hand side stays legal (an unlimited budget row).
  p.add_row({{0, 1.0}}, Sense::LE, kInf);
  EXPECT_EQ(solve(p).status, LpStatus::Optimal);

  // Bounds handed to a prepared program get the same checks, and their
  // finite upper bounds must be where the program's were.
  const PreparedLp prep = prepare(p);
  const std::vector<double> lo{0.0}, hi{1.0}, hi_nan{nan}, hi_inf{kInf};
  EXPECT_EQ(solve(prep, lo, hi).status, LpStatus::Optimal);
  EXPECT_THROW(solve(prep, lo, hi_nan), SolverError);
  EXPECT_THROW(solve(prep, lo, hi_inf), SolverError);
  EXPECT_THROW(solve(prep, hi_nan, hi), SolverError);
  EXPECT_THROW(solve(prep, {}, {}), SolverError);
}

TEST(Lp, RandomFeasibleBoxProblemsAgreeWithVertexEnumeration) {
  // min c.x over a random box [0,1]^3 with <= constraints whose rhs keeps
  // the origin feasible.  The optimum of an LP over a polytope is attained
  // at a vertex; with n=3 we can check against coarse grid enumeration of
  // the box corners only when constraints are inactive at the optimum —
  // instead simply verify feasibility and objective <= all corners.
  Rng rng(21);
  for (int it = 0; it < 30; ++it) {
    LinearProgram p;
    double c[3];
    for (int j = 0; j < 3; ++j) {
      c[j] = rng.uniform(-5, 5);
      p.add_var(0, 1, c[j]);
    }
    double a[2][3], rhs[2];
    for (int i = 0; i < 2; ++i) {
      rhs[i] = rng.uniform(0.5, 3.0);
      std::vector<std::pair<int, double>> terms;
      for (int j = 0; j < 3; ++j) {
        a[i][j] = rng.uniform(0, 2);
        terms.emplace_back(j, a[i][j]);
      }
      p.add_row(terms, Sense::LE, rhs[i]);
    }
    const auto r = solve(p);
    ASSERT_EQ(r.status, LpStatus::Optimal);
    // Feasibility of the reported solution.
    for (int i = 0; i < 2; ++i) {
      double lhs = 0;
      for (int j = 0; j < 3; ++j) lhs += a[i][j] * r.x[j];
      EXPECT_LE(lhs, rhs[i] + 1e-7);
    }
    // No feasible box corner beats it.
    for (int corner = 0; corner < 8; ++corner) {
      double obj = 0, lhs0 = 0, lhs1 = 0;
      for (int j = 0; j < 3; ++j) {
        const double v = (corner >> j) & 1;
        obj += c[j] * v;
        lhs0 += a[0][j] * v;
        lhs1 += a[1][j] * v;
      }
      if (lhs0 <= rhs[0] && lhs1 <= rhs[1])
        EXPECT_GE(obj, r.objective - 1e-7);
    }
  }
}

}  // namespace
}  // namespace atcd::lp
