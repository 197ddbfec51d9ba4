#include "lp/lp.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace atcd::lp {
namespace {

constexpr double kTol = 1e-9;
constexpr std::size_t kMaxIters = 200000;
/// Tableau entries a thread keeps allocated between solves (8 MiB); a
/// larger tableau is released when its solve ends.
constexpr std::size_t kKeepEntries = std::size_t{1} << 20;

/// Buffers of one solve, reused by every solve on the same thread.
struct Workspace {
  std::vector<double> a;         // the tableau, m rows of n+1 entries
  std::vector<double> obj;       // n+1
  std::vector<int> basis;        // m
  std::vector<std::size_t> nz;   // nonzero columns of the pivot row
  std::vector<double> rhs;       // m
  std::vector<char> flip;        // m: row negated so that rhs >= 0
  std::vector<Sense> sense;      // m: sense after the flip
};

thread_local Workspace tls_workspace;

/// Dense simplex tableau in canonical equality form.
///
/// Layout: rows 0..m-1 are constraints, columns 0..n-1 are variables,
/// column n is the right-hand side; row i starts at a + i*(n+1).
/// `basis[i]` is the variable basic in row i; basic columns are kept as
/// unit columns.  `obj` is the reduced cost row (length n+1); obj[n] is
/// the *negated* current objective value.
struct Tableau {
  std::size_t m = 0, n = 0;
  double* a = nullptr;
  double* obj = nullptr;
  int* basis = nullptr;
  std::size_t* nz = nullptr;  // n+1 slots
  std::size_t iterations = 0;

  double* row(std::size_t i) const { return a + i * (n + 1); }

  // A zero entry of the pivot row leaves the other rows' entries in its
  // column unchanged up to the sign of a zero, which no comparison and no
  // nonzero result depends on; so only the nonzero columns are updated.
  // This needs finite entries, which LinearProgram guarantees outside the
  // rhs column (coefficients and objective must be finite).  The rhs
  // column is always updated, which keeps the solution's bits (zero signs
  // included) equal to a dense elimination.
  void pivot(std::size_t r, std::size_t col) {
    double* pr = row(r);
    const double piv = pr[col];
    std::size_t k = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (pr[j] != 0.0) {
        pr[j] /= piv;
        nz[k++] = j;
      }
    }
    pr[n] /= piv;
    nz[k++] = n;
    for (std::size_t i = 0; i < m; ++i) {
      if (i == r) continue;
      double* ri = row(i);
      const double f = ri[col];
      if (f == 0.0) continue;
      for (std::size_t q = 0; q < k; ++q) ri[nz[q]] -= f * pr[nz[q]];
    }
    const double f = obj[col];
    if (f != 0.0)
      for (std::size_t q = 0; q < k; ++q) obj[nz[q]] -= f * pr[nz[q]];
    basis[r] = static_cast<int>(col);
    ++iterations;
  }

  /// Runs the simplex loop.  `allowed(j)` filters entering columns (used
  /// to ban artificials in phase 2).  Returns Optimal / Unbounded /
  /// IterationLimit.
  template <typename Allowed>
  LpStatus run(Allowed&& allowed) {
    std::size_t degenerate_streak = 0;
    while (true) {
      if (iterations > kMaxIters) return LpStatus::IterationLimit;
      const bool bland = degenerate_streak > 2 * (m + n);

      // Entering column: most negative reduced cost (Dantzig), or the
      // lowest-index negative one under Bland's anti-cycling rule.
      std::size_t enter = n;
      double best = -kTol;
      for (std::size_t j = 0; j < n; ++j) {
        if (!allowed(j)) continue;
        if (obj[j] < best) {
          best = obj[j];
          enter = j;
          if (bland) break;
        }
      }
      if (enter == n) return LpStatus::Optimal;

      // Leaving row: minimum ratio; Bland tie-break on basis index.
      std::size_t leave = m;
      double best_ratio = kInf;
      for (std::size_t i = 0; i < m; ++i) {
        const double* ri = row(i);
        if (ri[enter] <= kTol) continue;
        const double ratio = ri[n] / ri[enter];
        if (ratio < best_ratio - kTol ||
            (ratio < best_ratio + kTol && leave != m &&
             basis[i] < basis[leave])) {
          best_ratio = ratio;
          leave = i;
        }
      }
      if (leave == m) return LpStatus::Unbounded;

      const double before = obj[n];
      pivot(leave, enter);
      degenerate_streak = std::abs(obj[n] - before) < kTol
                              ? degenerate_streak + 1
                              : 0;
    }
  }
};

void check_bounds(double lo, double hi) {
  if (!std::isfinite(lo)) throw SolverError("lp: lower bound must be finite");
  if (std::isnan(hi)) throw SolverError("lp: upper bound must not be NaN");
  if (hi < lo) throw SolverError("lp: empty variable domain");
}

void check_var(const LinearProgram& lp, int var) {
  if (var < 0 || var >= lp.num_vars())
    throw SolverError("lp: unknown variable");
}

void check_obj(double obj) {
  if (!std::isfinite(obj))
    throw SolverError("lp: objective coefficient must be finite");
}

/// 2^-e for amax in [2^(e-1), 2^e), so that amax * result is in [0.5, 1).
double pow2_inv(double amax) {
  if (amax <= 0.0 || !std::isfinite(amax)) return 1.0;
  int e = 0;
  std::frexp(amax, &e);
  return std::ldexp(1.0, -e);
}

/// Releases an oversized tableau when a solve ends, on every path.
struct TrimOnExit {
  Workspace& w;
  ~TrimOnExit() {
    if (w.a.capacity() > kKeepEntries) std::vector<double>().swap(w.a);
  }
};

}  // namespace

const char* to_string(LpStatus s) {
  switch (s) {
    case LpStatus::Optimal:
      return "optimal";
    case LpStatus::Infeasible:
      return "infeasible";
    case LpStatus::Unbounded:
      return "unbounded";
    case LpStatus::IterationLimit:
      return "iteration-limit";
  }
  return "?";
}

int LinearProgram::add_var(double lo, double hi, double obj) {
  check_bounds(lo, hi);
  check_obj(obj);
  lo_.push_back(lo);
  hi_.push_back(hi);
  obj_.push_back(obj);
  return static_cast<int>(obj_.size()) - 1;
}

void LinearProgram::add_row(std::vector<std::pair<int, double>> terms,
                            Sense sense, double rhs) {
  for (const auto& [v, coeff] : terms) {
    if (v < 0 || v >= num_vars())
      throw SolverError("lp: row references unknown variable");
    if (!std::isfinite(coeff))
      throw SolverError("lp: row coefficient must be finite");
  }
  if (std::isnan(rhs))
    throw SolverError("lp: right-hand side must not be NaN");
  rows_.push_back(Row{std::move(terms), sense, rhs});
}

void LinearProgram::set_bounds(int var, double lo, double hi) {
  check_var(*this, var);
  check_bounds(lo, hi);
  lo_[static_cast<std::size_t>(var)] = lo;
  hi_[static_cast<std::size_t>(var)] = hi;
}

void LinearProgram::set_obj(int var, double obj) {
  check_var(*this, var);
  check_obj(obj);
  obj_[static_cast<std::size_t>(var)] = obj;
}

PreparedLp prepare(const LinearProgram& lp) {
  PreparedLp p;
  const std::size_t nv = static_cast<std::size_t>(lp.num_vars());
  p.nv_ = nv;
  p.rows_ = lp.num_rows();
  p.term_begin_.reserve(p.rows_ + 1);
  p.term_begin_.push_back(0);
  for (const auto& r : lp.rows()) {
    for (const auto& [v, c] : r.terms) {
      p.term_var_.push_back(v);
      p.term_coeff_.push_back(c);
    }
    p.term_begin_.push_back(p.term_var_.size());
    p.rhs_.push_back(r.rhs);
    p.sense_.push_back(r.sense);
  }
  p.has_bound_.assign(nv, 0);
  for (std::size_t j = 0; j < nv; ++j) {
    if (std::isfinite(lp.upper_bound(static_cast<int>(j)))) {
      p.bounded_.push_back(static_cast<int>(j));
      p.has_bound_[j] = 1;
    }
  }

  // Dense rows over the variables shifted to z_j = x_j - lo_j >= 0: the
  // constraint rows, then an LE row z_j <= hi_j - lo_j per finite upper
  // bound.  Only right-hand sides depend on the bounds.
  const std::size_t m = p.rows_ + p.bounded_.size();
  p.coeff_.assign(m * nv, 0.0);
  for (std::size_t i = 0; i < p.rows_; ++i)
    for (std::size_t k = p.term_begin_[i]; k < p.term_begin_[i + 1]; ++k)
      p.coeff_[i * nv + static_cast<std::size_t>(p.term_var_[k])] +=
          p.term_coeff_[k];
  for (std::size_t k = 0; k < p.bounded_.size(); ++k)
    p.coeff_[(p.rows_ + k) * nv + static_cast<std::size_t>(p.bounded_[k])] =
        1.0;

  // ---- Power-of-two equilibration. ----
  // Models with hardened decorations (analysis/ multiplies BAS costs by
  // factors up to ~1e9) put coefficients of wildly different magnitude
  // into one tableau.  The pivoting tolerances here are absolute, so at
  // that scale accumulated rounding noise (~1e9 * 1e-16) dwarfs kTol:
  // phantom negative reduced costs keep the loop pivoting between noise
  // vertices until the iteration limit.  Scaling rows and columns by
  // powers of two is *exact* in binary floating point (mantissas are
  // untouched), and the variable bound rows built above anchor every
  // column near 1 — so a few alternating passes bring all row and column
  // maxima into [0.5, 1) without introducing a single rounding error.
  // The scales depend on |coefficients| only, so the sign flips solve()
  // applies per bounds commute with them.  Each pass's row scales are
  // kept so that solve() scales a right-hand side by the same sequence
  // of factors.  The solution maps back as z_j = colscale_j * z'_j.
  p.colscale_.assign(nv, 1.0);
  std::vector<double> colmax(nv);
  for (int pass = 0; pass < 4; ++pass) {
    bool changed = false;
    for (std::size_t i = 0; i < m; ++i) {
      double* ci = p.coeff_.data() + i * nv;
      double amax = 0.0;
      for (std::size_t j = 0; j < nv; ++j)
        amax = std::max(amax, std::abs(ci[j]));
      const double s = pow2_inv(amax);
      p.row_scale_.push_back(s);
      if (s != 1.0) {
        for (std::size_t j = 0; j < nv; ++j) ci[j] *= s;
        changed = true;
      }
    }
    ++p.passes_;
    std::fill(colmax.begin(), colmax.end(), 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      const double* ci = p.coeff_.data() + i * nv;
      for (std::size_t j = 0; j < nv; ++j)
        colmax[j] = std::max(colmax[j], std::abs(ci[j]));
    }
    for (std::size_t j = 0; j < nv; ++j) {
      colmax[j] = pow2_inv(colmax[j]);
      if (colmax[j] != 1.0) {
        p.colscale_[j] *= colmax[j];
        changed = true;
      }
    }
    for (std::size_t i = 0; i < m; ++i) {
      double* ci = p.coeff_.data() + i * nv;
      for (std::size_t j = 0; j < nv; ++j) ci[j] *= colmax[j];
    }
    if (!changed) break;
  }
  // Scaled phase-2 objective (the reported objective value is recomputed
  // from the original coefficients at the end, so this only conditions
  // the reduced-cost row).
  p.obj_.resize(nv);
  p.sobj_.resize(nv);
  double obj_amax = 0.0;
  for (std::size_t j = 0; j < nv; ++j) {
    p.obj_[j] = lp.objective_coeff(static_cast<int>(j));
    p.sobj_[j] = p.obj_[j] * p.colscale_[j];
    obj_amax = std::max(obj_amax, std::abs(p.sobj_[j]));
  }
  const double objscale = pow2_inv(obj_amax);
  for (double& c : p.sobj_) c *= objscale;
  return p;
}

LpResult solve(const PreparedLp& p, std::span<const double> lo,
               std::span<const double> hi) {
  const std::size_t nv = p.nv_;
  if (lo.size() != nv || hi.size() != nv)
    throw SolverError("lp: bound arrays do not match the program");
  for (std::size_t j = 0; j < nv; ++j) {
    check_bounds(lo[j], hi[j]);
    if (std::isfinite(hi[j]) != (p.has_bound_[j] != 0))
      throw SolverError(
          "lp: finite upper bounds differ from the prepared program");
  }
  Workspace& w = tls_workspace;
  const TrimOnExit trim{w};

  // Right-hand sides of the shifted rows, term by term; then negate rows
  // with a negative rhs (LE <-> GE) and apply the row scales.
  const std::size_t m = p.rows_ + p.bounded_.size();
  w.rhs.resize(m);
  w.flip.resize(m);
  w.sense.resize(m);
  for (std::size_t i = 0; i < p.rows_; ++i) {
    double r = p.rhs_[i];
    for (std::size_t k = p.term_begin_[i]; k < p.term_begin_[i + 1]; ++k)
      r -= p.term_coeff_[k] * lo[static_cast<std::size_t>(p.term_var_[k])];
    w.rhs[i] = r;
    w.sense[i] = p.sense_[i];
  }
  for (std::size_t k = 0; k < p.bounded_.size(); ++k) {
    const auto j = static_cast<std::size_t>(p.bounded_[k]);
    w.rhs[p.rows_ + k] = hi[j] - lo[j];
    w.sense[p.rows_ + k] = Sense::LE;
  }
  std::size_t n_slack = 0, n_art = 0;
  for (std::size_t i = 0; i < m; ++i) {
    double& r = w.rhs[i];
    Sense& sense = w.sense[i];
    w.flip[i] = r < 0.0;
    if (w.flip[i]) {
      r = -r;
      if (sense == Sense::LE)
        sense = Sense::GE;
      else if (sense == Sense::GE)
        sense = Sense::LE;
    }
    for (std::size_t pass = 0; pass < p.passes_; ++pass)
      r *= p.row_scale_[pass * m + i];
    if (sense != Sense::EQ) ++n_slack;
    if (sense != Sense::LE) ++n_art;
  }

  // Column layout: [structural | slacks/surpluses | artificials].
  const std::size_t n = nv + n_slack + n_art;
  const std::size_t art_begin = nv + n_slack;
  w.a.assign(m * (n + 1), 0.0);
  w.obj.resize(n + 1);
  w.basis.assign(m, -1);
  w.nz.resize(n + 1);
  Tableau t;
  t.m = m;
  t.n = n;
  t.a = w.a.data();
  t.obj = w.obj.data();
  t.basis = w.basis.data();
  t.nz = w.nz.data();

  std::size_t slack_at = nv, art_at = art_begin;
  for (std::size_t i = 0; i < m; ++i) {
    double* ri = t.row(i);
    const double* ci = p.coeff_.data() + i * nv;
    if (w.flip[i]) {
      for (std::size_t j = 0; j < nv; ++j) ri[j] = -ci[j];
    } else {
      std::copy(ci, ci + nv, ri);
    }
    ri[n] = w.rhs[i];
    switch (w.sense[i]) {
      case Sense::LE:
        ri[slack_at] = 1.0;
        t.basis[i] = static_cast<int>(slack_at++);
        break;
      case Sense::GE:
        ri[slack_at++] = -1.0;
        ri[art_at] = 1.0;
        t.basis[i] = static_cast<int>(art_at++);
        break;
      case Sense::EQ:
        ri[art_at] = 1.0;
        t.basis[i] = static_cast<int>(art_at++);
        break;
    }
  }

  LpResult result;

  // ---- Phase 1: minimize the sum of artificials. ----
  if (n_art > 0) {
    std::fill(t.obj, t.obj + n + 1, 0.0);
    // Reduced costs of c1 = (0,...,0,1,...,1) w.r.t. the artificial basis:
    // subtract every artificial-basic row from the objective row.
    for (std::size_t i = 0; i < m; ++i) {
      if (static_cast<std::size_t>(t.basis[i]) >= art_begin) {
        const double* ri = t.row(i);
        for (std::size_t j = 0; j <= n; ++j) t.obj[j] -= ri[j];
      }
    }
    for (std::size_t j = art_begin; j < n; ++j) t.obj[j] += 1.0;

    const LpStatus s1 = t.run([](std::size_t) { return true; });
    if (s1 == LpStatus::IterationLimit) {
      result.status = s1;
      result.iterations = t.iterations;
      return result;
    }
    if (-t.obj[n] > 1e-7) {  // phase-1 optimum > 0
      result.status = LpStatus::Infeasible;
      result.iterations = t.iterations;
      return result;
    }
    // Drive remaining artificials out of the basis where possible.
    for (std::size_t i = 0; i < m; ++i) {
      if (static_cast<std::size_t>(t.basis[i]) < art_begin) continue;
      const double* ri = t.row(i);
      std::size_t col = n;
      for (std::size_t j = 0; j < art_begin; ++j)
        if (std::abs(ri[j]) > 1e-7) {
          col = j;
          break;
        }
      if (col < n) t.pivot(i, col);
      // else: redundant row; the artificial stays basic at value 0 and is
      // banned from re-entering in phase 2.
    }
  }

  // ---- Phase 2: scaled objective over the shifted, scaled variables. ----
  std::fill(t.obj, t.obj + n + 1, 0.0);
  std::copy(p.sobj_.begin(), p.sobj_.end(), t.obj);
  // Make reduced costs of basic variables zero.
  for (std::size_t i = 0; i < m; ++i) {
    const auto b = static_cast<std::size_t>(t.basis[i]);
    const double cb = b < nv ? p.sobj_[b] : 0.0;
    if (cb != 0.0) {
      const double* ri = t.row(i);
      for (std::size_t j = 0; j <= n; ++j) t.obj[j] -= cb * ri[j];
    }
  }

  const LpStatus s2 =
      t.run([art_begin](std::size_t j) { return j < art_begin; });
  result.iterations = t.iterations;
  if (s2 != LpStatus::Optimal) {
    result.status = s2;
    return result;
  }

  // Extract the solution, un-scale, and un-shift.
  result.x.assign(nv, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    const auto b = static_cast<std::size_t>(t.basis[i]);
    if (b < nv) result.x[b] = t.row(i)[n];
  }
  result.objective = 0.0;
  for (std::size_t j = 0; j < nv; ++j) {
    result.x[j] = p.colscale_[j] * result.x[j] + lo[j];
    result.objective += p.obj_[j] * result.x[j];
  }
  result.status = LpStatus::Optimal;
  return result;
}

LpResult solve(const LinearProgram& lp) {
  return solve(prepare(lp), lp.lower_bounds(), lp.upper_bounds());
}

}  // namespace atcd::lp
