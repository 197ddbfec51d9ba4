#pragma once
/// \file lp.hpp
/// A small dense linear-programming solver (two-phase primal simplex).
///
/// This is the substrate the paper outsources to Gurobi [19] via YALMIP
/// [21]: the BILP translation of Sec. VII needs a continuous-relaxation
/// oracle for the branch-and-bound integer solver in ilp/ilp.hpp.  The
/// models arising from ATs are small (|N| variables, O(|E|) rows), so a
/// dense tableau with Bland anti-cycling is simple, robust and fast
/// enough.
///
/// Solving is split in two.  prepare() does the work that depends only
/// on the program's structure: the dense constraint rows, one bound row
/// per variable with a finite upper bound, the power-of-two row/column
/// equilibration and the scaled objective.  solve(prepared, lo, hi) then
/// takes concrete variable bounds, computes the right-hand sides and runs
/// a cold two-phase simplex on a flat tableau that is reused per thread;
/// a pivot touches only the nonzero columns of the pivot row.  Branch and
/// bound prepares once per ILP and re-solves with each node's bounds.
/// The result is bit-identical to solving the LinearProgram with those
/// bounds: no warm start, dual simplex or bounded-variable pivoting is
/// attempted, as each can land on a different vertex when optima tie.
///
/// Model form:  minimize c·x  subject to  row_lo ⋈ a·x ⋈ row_hi  (as LE /
/// GE / EQ rows) and per-variable bounds lo <= x <= hi (lo finite, hi may
/// be +inf).

#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace atcd::lp {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

enum class Sense { LE, GE, EQ };

/// One linear constraint: terms · x  (sense)  rhs.
struct Row {
  std::vector<std::pair<int, double>> terms;  ///< (variable index, coeff)
  Sense sense = Sense::LE;
  double rhs = 0.0;
};

/// A linear program in minimization form.
class LinearProgram {
 public:
  /// Adds a variable with bounds [lo, hi] and objective coefficient obj.
  /// lo and obj must be finite; hi may be kInf but not NaN.  Returns the
  /// variable index.  Throws SolverError on a malformed argument.
  int add_var(double lo, double hi, double obj);

  /// Adds a constraint row.  Variable indices must exist and coefficients
  /// must be finite; rhs must not be NaN (±kInf is accepted).
  void add_row(std::vector<std::pair<int, double>> terms, Sense sense,
               double rhs);

  /// Overrides the bounds of an existing variable (same rules as add_var).
  void set_bounds(int var, double lo, double hi);

  /// Overrides the objective coefficient of an existing variable (it must
  /// be finite).
  void set_obj(int var, double obj);

  int num_vars() const { return static_cast<int>(obj_.size()); }
  std::size_t num_rows() const { return rows_.size(); }
  double lower_bound(int v) const { return lo_[static_cast<std::size_t>(v)]; }
  double upper_bound(int v) const { return hi_[static_cast<std::size_t>(v)]; }
  double objective_coeff(int v) const {
    return obj_[static_cast<std::size_t>(v)];
  }
  std::span<const double> lower_bounds() const { return lo_; }
  std::span<const double> upper_bounds() const { return hi_; }
  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<double> lo_, hi_, obj_;
  std::vector<Row> rows_;
};

enum class LpStatus { Optimal, Infeasible, Unbounded, IterationLimit };

const char* to_string(LpStatus s);

struct LpResult {
  LpStatus status = LpStatus::IterationLimit;
  double objective = 0.0;       ///< valid when Optimal
  std::vector<double> x;        ///< primal solution (original variables)
  std::size_t iterations = 0;   ///< simplex pivots performed
};

/// The bound-independent part of a LinearProgram, built by prepare().
/// It copies what it needs, so it does not refer to the program.
class PreparedLp {
  friend PreparedLp prepare(const LinearProgram& lp);
  friend LpResult solve(const PreparedLp& p, std::span<const double> lo,
                        std::span<const double> hi);

  std::size_t nv_ = 0;    // structural variables
  std::size_t rows_ = 0;  // constraint rows; bound rows follow them
  // Constraint rows as given; the terms keep their insertion order, in
  // which solve() subtracts them from the right-hand side.
  std::vector<std::size_t> term_begin_;  // rows_ + 1 offsets
  std::vector<int> term_var_;
  std::vector<double> term_coeff_;
  std::vector<double> rhs_;
  std::vector<Sense> sense_;
  std::vector<int> bounded_;     // variables with a finite upper bound
  std::vector<char> has_bound_;  // nv_ flags: j is in bounded_
  // Equilibrated dense rows (constraint rows, then bound rows), each nv_
  // wide, before any sign flip; passes_ row-scale factors per row.
  std::vector<double> coeff_;
  std::size_t passes_ = 0;
  std::vector<double> row_scale_;  // passes_ x (rows_ + bounded_.size())
  std::vector<double> colscale_;  // z_j = colscale_j * (scaled z_j)
  std::vector<double> sobj_;      // scaled phase-2 objective
  std::vector<double> obj_;       // objective as given
};

/// Builds the bound-independent data of \p lp (see the file comment).
PreparedLp prepare(const LinearProgram& lp);

/// Solves the prepared program with variable bounds lo <= x <= hi.  Each
/// lo must be finite and hi >= lo, and hi must be finite exactly where
/// the prepared program's upper bound was (branch and bound only
/// tightens bounds); a SolverError is thrown otherwise.  The result
/// equals solve() of the program with those bounds set, bit for bit.
LpResult solve(const PreparedLp& p, std::span<const double> lo,
               std::span<const double> hi);

/// Solves the LP: prepare(lp) and one solve with lp's own bounds.
/// Deterministic; tolerance ~1e-9.
LpResult solve(const LinearProgram& lp);

}  // namespace atcd::lp
