#include "ilp/ilp.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>

namespace atcd::ilp {
namespace {

/// A search node: bound overrides relative to the root LP, stored as a
/// chain to keep nodes O(1) in size.
struct Node {
  std::shared_ptr<const Node> parent;
  int var = -1;
  double lo = 0.0, hi = 0.0;  // override for `var`
  double bound = -lp::kInf;   // LP relaxation value at the *parent*
  std::size_t depth = 0;
};

struct QueueEntry {
  std::shared_ptr<const Node> node;
  double bound;
  std::size_t depth;
  std::uint64_t seq;  // deterministic FIFO tie-break
};

struct BestFirst {
  bool operator()(const QueueEntry& a, const QueueEntry& b) const {
    if (a.bound != b.bound) return a.bound > b.bound;  // min-bound first
    if (a.depth != b.depth) return a.depth < b.depth;  // deeper first
    return a.seq > b.seq;
  }
};

}  // namespace

const char* to_string(IlpStatus s) {
  switch (s) {
    case IlpStatus::Optimal:
      return "optimal";
    case IlpStatus::Infeasible:
      return "infeasible";
    case IlpStatus::NodeLimit:
      return "node-limit";
  }
  return "?";
}

IlpResult solve(const IntegerProgram& ip, const IlpOptions& opt) {
  for (int v : ip.integer_vars) {
    if (v < 0 || v >= ip.base.num_vars())
      throw SolverError("ilp: unknown integer variable");
    if (!std::isfinite(ip.base.upper_bound(v)))
      throw SolverError("ilp: integer variables must be bounded");
  }

  IlpResult result;
  bool have_incumbent = false;

  // The LP structure is the same at every node; only the bounds differ.
  const lp::PreparedLp root = lp::prepare(ip.base);
  const auto base_lo = ip.base.lower_bounds();
  const auto base_hi = ip.base.upper_bounds();
  std::vector<double> lo(base_lo.begin(), base_lo.end());
  std::vector<double> hi(base_hi.begin(), base_hi.end());
  // applied[v] == nodes_explored marks v as overridden at the current node.
  std::vector<std::size_t> applied(lo.size(), 0);

  std::priority_queue<QueueEntry, std::vector<QueueEntry>, BestFirst> open;
  std::uint64_t seq = 0;
  open.push({std::make_shared<Node>(), -lp::kInf, 0, seq++});

  while (!open.empty()) {
    const QueueEntry entry = open.top();
    open.pop();
    if (have_incumbent &&
        entry.bound >= result.objective - opt.absolute_gap)
      continue;  // cannot improve the incumbent
    if (result.nodes_explored >= opt.node_limit) {
      result.status = IlpStatus::NodeLimit;
      return result;
    }
    ++result.nodes_explored;

    // Walk leaf -> root; the leaf-most override of a variable is the
    // tightest (child intervals are nested), so apply only the first one.
    std::copy(base_lo.begin(), base_lo.end(), lo.begin());
    std::copy(base_hi.begin(), base_hi.end(), hi.begin());
    for (const Node* n = entry.node.get(); n && n->var >= 0;
         n = n->parent.get()) {
      const auto v = static_cast<std::size_t>(n->var);
      if (applied[v] != result.nodes_explored) {
        applied[v] = result.nodes_explored;
        lo[v] = n->lo;
        hi[v] = n->hi;
      }
    }
    const lp::LpResult rel = lp::solve(root, lo, hi);
    result.lp_iterations += rel.iterations;
    if (rel.status == lp::LpStatus::Infeasible) continue;
    if (rel.status == lp::LpStatus::Unbounded)
      throw SolverError("ilp: LP relaxation unbounded");
    if (rel.status == lp::LpStatus::IterationLimit)
      throw SolverError("ilp: simplex iteration limit hit");
    if (have_incumbent &&
        rel.objective >= result.objective - opt.absolute_gap)
      continue;

    // Most-fractional integer variable.
    int branch_var = -1;
    double branch_val = 0.0, best_frac = opt.integrality_tol;
    for (int v : ip.integer_vars) {
      const double val = rel.x[static_cast<std::size_t>(v)];
      const double frac = std::abs(val - std::round(val));
      if (frac > best_frac) {
        best_frac = frac;
        branch_var = v;
        branch_val = val;
      }
    }

    if (branch_var < 0) {
      // Integral: new incumbent.
      result.objective = rel.objective;
      result.x = rel.x;
      for (int v : ip.integer_vars) {
        auto& xv = result.x[static_cast<std::size_t>(v)];
        xv = std::round(xv);
      }
      have_incumbent = true;
      continue;
    }

    // The effective bounds of branch_var at this node.
    const double var_lo = lo[static_cast<std::size_t>(branch_var)];
    const double var_hi = hi[static_cast<std::size_t>(branch_var)];
    const double floor_v = std::floor(branch_val);
    // Down child: x <= floor(v); up child: x >= floor(v)+1.
    if (floor_v >= var_lo) {
      auto child = std::make_shared<Node>();
      child->parent = entry.node;
      child->var = branch_var;
      child->lo = var_lo;
      child->hi = floor_v;
      child->depth = entry.depth + 1;
      open.push({std::move(child), rel.objective, entry.depth + 1, seq++});
    }
    if (floor_v + 1.0 <= var_hi) {
      auto child = std::make_shared<Node>();
      child->parent = entry.node;
      child->var = branch_var;
      child->lo = floor_v + 1.0;
      child->hi = var_hi;
      child->depth = entry.depth + 1;
      open.push({std::move(child), rel.objective, entry.depth + 1, seq++});
    }
  }

  result.status = have_incumbent ? IlpStatus::Optimal : IlpStatus::Infeasible;
  return result;
}

}  // namespace atcd::ilp
