#include <cmath>
#include <exception>

#include "api/json.hpp"
#include "at/structure.hpp"
#include "bench.hpp"
#include "engine/batch.hpp"

namespace perfbench {
namespace {

using atcd::engine::Problem;

bool close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(a) + std::fabs(b));
}

std::string num(double v) { return std::to_string(v); }

/// Drops every front point whose damage does not exceed the previous
/// kept point's by more than rounding.  Expected damages that are equal
/// in exact arithmetic can differ in the last bits depending on the
/// summation order, so two exact engines may disagree on whether such a
/// point is dominated (seen between bottom-up and enumerative CEDPF on
/// 10-12 BAS models); the check compares the fronts without those ties.
std::vector<std::pair<double, double>> drop_ties(
    std::vector<std::pair<double, double>> pts) {
  std::vector<std::pair<double, double>> out;
  for (const auto& pt : pts)
    if (out.empty() || (pt.second > out.back().second &&
                        !close(pt.second, out.back().second)))
      out.push_back(pt);
  return out;
}

/// "{a, b}" -> the attack activating BAS a and b.
atcd::Attack parse_attack(const atcd::AttackTree& tree, const std::string& s) {
  if (s.size() < 2 || s.front() != '{' || s.back() != '}')
    throw std::runtime_error("witness '" + s + "' is not {..}");
  std::vector<std::string> names;
  const std::string body = s.substr(1, s.size() - 2);
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t end = body.find(", ", pos);
    if (end == std::string::npos) end = body.size();
    names.push_back(body.substr(pos, end - pos));
    pos = end + 2;
  }
  return atcd::make_attack(tree, names);
}

/// Cost and (expected) damage of \p x on the reference model.
std::pair<double, double> evaluate(const ModelRef& ref, const atcd::Attack& x) {
  const atcd::CdpAt& m = *ref.model;
  const double cost = atcd::total_cost(m, x);
  const double damage = atcd::engine::is_probabilistic(ref.problem)
                            ? atcd::expected_damage(m, x)
                            : atcd::total_damage(m.deterministic(), x);
  return {cost, damage};
}

std::pair<double, double> evaluate(const ModelRef& ref,
                                   const std::string& witness) {
  return evaluate(ref, parse_attack(ref.model->tree, witness));
}

}  // namespace

std::string check_witnesses(const ModelRef& ref,
                            const atcd::api::SolvePayload& p) {
  try {
    if (p.problem != ref.problem) return "problem echoed wrongly";
    if (atcd::engine::is_front(ref.problem)) {
      if (p.points.empty()) return "empty front";
      for (std::size_t i = 0; i < p.points.size(); ++i) {
        const auto& fp = p.points[i];
        const auto [c, d] = evaluate(ref, fp.attack);
        if (!close(c, fp.cost) || !close(d, fp.damage))
          return "front point " + std::to_string(i) + " reports (" +
                 num(fp.cost) + "," + num(fp.damage) + ") but its witness " +
                 "evaluates to (" + num(c) + "," + num(d) + ")";
        if (i > 0 && !(fp.cost > p.points[i - 1].cost &&
                       fp.damage > p.points[i - 1].damage))
          return "front not strictly increasing at point " + std::to_string(i);
      }
      return "";
    }
    const bool budgeted =
        ref.problem == Problem::Dgc || ref.problem == Problem::Edgc;
    if (!p.feasible) {
      // A budget always admits the empty attack.
      if (budgeted) return "budgeted problem reported infeasible";
      // Damage only grows with the attack, so the full attack meets every
      // threshold up to its own (expected) damage.
      atcd::Attack all(ref.model->tree.bas_count());
      for (std::size_t i = 0; i < ref.model->tree.bas_count(); ++i) all.set(i);
      const double full = evaluate(ref, all).second;
      if (ref.bound < full && !close(ref.bound, full))
        return "threshold " + num(ref.bound) +
               " reported infeasible, but the full attack reaches " +
               num(full);
      return "";
    }
    const auto [c, d] = evaluate(ref, p.attack);
    if (!close(c, p.cost) || !close(d, p.damage))
      return "witness evaluates to (" + num(c) + "," + num(d) +
             ") but the response reports (" + num(p.cost) + "," +
             num(p.damage) + ")";
    if (budgeted && c > ref.bound * (1 + 1e-12))
      return "witness cost " + num(c) + " exceeds budget " + num(ref.bound);
    if (!budgeted && d < ref.bound * (1 - 1e-12))
      return "witness damage " + num(d) + " misses threshold " +
             num(ref.bound);
    return "";
  } catch (const std::exception& e) {
    return std::string("witness check: ") + e.what();
  }
}

std::string check_against(const ModelRef& ref,
                          const atcd::api::SolvePayload& p,
                          const atcd::engine::SolveResult& oracle) {
  if (!oracle.ok) return "oracle failed: " + oracle.error;
  if (atcd::engine::is_front(ref.problem)) {
    std::vector<std::pair<double, double>> got, want;
    for (const auto& fp : p.points) got.emplace_back(fp.cost, fp.damage);
    for (const auto& fp : oracle.front) want.emplace_back(fp.value.cost, fp.value.damage);
    got = drop_ties(std::move(got));
    want = drop_ties(std::move(want));
    if (got.size() != want.size())
      return "front has " + std::to_string(got.size()) +
             " distinct points, oracle " + std::to_string(want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      if (!close(got[i].first, want[i].first) ||
          !close(got[i].second, want[i].second))
        return "front point " + std::to_string(i) + " differs from oracle";
    return "";
  }
  const bool budgeted =
      ref.problem == Problem::Dgc || ref.problem == Problem::Edgc;
  // An attack whose (expected) damage equals a threshold in exact
  // arithmetic can land on either side of it in floating point, so two
  // exact engines may disagree there (seen on CgED: 14 vs 15 with a
  // threshold of 23.6).  Such a disagreement is accepted when the answer
  // that looks better meets the threshold only to within rounding.
  const auto on_threshold = [&](double damage) {
    return !budgeted && close(damage, ref.bound);
  };
  const double oracle_damage =
      oracle.attack.feasible ? evaluate(ref, oracle.attack.witness).second
                             : 0.0;
  if (oracle.attack.feasible != p.feasible) {
    if (on_threshold(p.feasible ? p.damage : oracle_damage)) return "";
    return "feasibility differs from oracle";
  }
  if (!p.feasible) return "";
  if (budgeted ? close(oracle.attack.damage, p.damage)
               : close(oracle.attack.cost, p.cost))
    return "";
  if (on_threshold(p.cost < oracle.attack.cost ? p.damage : oracle_damage))
    return "";
  return "optimum differs from oracle (" + num(p.cost) + "," + num(p.damage) +
         ") vs (" + num(oracle.attack.cost) + "," + num(oracle.attack.damage) +
         ")";
}

std::string check_solve_response(const ModelRef& ref,
                                 const std::string& response, bool enumerate) {
  const auto dec = atcd::api::decode_response(response);
  if (dec.code != atcd::api::ErrorCode::Ok) return "undecodable response";
  const atcd::api::Response& r = dec.value;
  if (r.code != atcd::api::ErrorCode::Ok)
    return std::string("error response ") + atcd::api::to_string(r.code) +
           ": " + r.error;
  const auto* p = std::get_if<atcd::api::SolvePayload>(&r.payload);
  if (!p) return "response carries no solve payload";
  if (std::string err = check_witnesses(ref, *p); !err.empty()) return err;
  if (!enumerate) return "";
  const atcd::CdAt det = ref.model->deterministic();
  const auto in =
      atcd::engine::is_probabilistic(ref.problem)
          ? atcd::engine::Instance::of(ref.problem, *ref.model, ref.bound,
                                       "enumerative")
          : atcd::engine::Instance::of(ref.problem, det, ref.bound,
                                       "enumerative");
  return check_against(ref, *p, atcd::engine::solve_one(in));
}

}  // namespace perfbench
