// Unit cases for the benchmark's answer checks (src/checks.cpp): each one
// feeds a solve payload, as the service answered it or deliberately made
// wrong, and expects the check's verdict.
//
//   cmake --build <build dir> --target perfbench_check_cases
//   <build dir>/perfbench_check_cases
//
// perfbench/test_bench.py builds and runs it.  Exits 1 on a wrong verdict.
#include <cstdio>
#include <string>
#include <variant>

#include "api/json.hpp"
#include "engine/backend.hpp"
#include "gen.hpp"
#include "pipeline.hpp"

namespace {

using namespace perfbench;
namespace api = atcd::api;
using atcd::engine::Problem;

int failures = 0;

void expect_pass(const std::string& what, const std::string& verdict) {
  if (verdict.empty()) {
    std::printf("ok   %s\n", what.c_str());
  } else {
    ++failures;
    std::printf("FAIL %s: rejected (%s)\n", what.c_str(), verdict.c_str());
  }
}

void expect_fail(const std::string& what, const std::string& verdict) {
  if (!verdict.empty()) {
    std::printf("ok   %s (%s)\n", what.c_str(), verdict.c_str());
  } else {
    ++failures;
    std::printf("FAIL %s: accepted\n", what.c_str());
  }
}

/// A generated 10-14 node treelike model, its reference and the
/// service's answer for \p problem.
struct Solved {
  ModelRef ref;
  api::SolvePayload payload;
};

Solved solve(Problem problem, std::uint64_t seed) {
  atcd::Rng rng(seed);
  const GenModel g = random_model(rng, 10, 14, false, "t");
  Solved out;
  out.ref.model = std::make_shared<atcd::CdpAt>(g.build());
  out.ref.problem = problem;
  out.ref.bound = random_bound(rng, *out.ref.model, problem);
  api::Dispatcher d;
  const std::string line =
      solve_line("t", problem, out.ref.bound,
                 g.text(atcd::engine::is_probabilistic(problem)));
  const auto dec = api::decode_response(serve_line(d, line));
  out.payload = std::get<api::SolvePayload>(dec.value.payload);
  return out;
}

std::string response_line(const api::SolvePayload& p) {
  api::Response r;
  r.payload = p;
  return api::encode_response(r, false);
}

/// \p p with no feasible attack, as a wrong engine would report it.
api::SolvePayload infeasible(api::SolvePayload p) {
  p.feasible = false;
  p.cost = p.damage = 0.0;
  p.attack.clear();
  return p;
}

}  // namespace

int main() {
  for (Problem problem : {Problem::Dgc, Problem::Edgc, Problem::Cgd,
                          Problem::Cged, Problem::Cdpf, Problem::Cedpf}) {
    const std::string name = atcd::engine::to_string(problem);
    const Solved s = solve(problem, 11);
    expect_pass(name + " answer passes the witness check",
                check_witnesses(s.ref, s.payload));
    expect_pass(name + " answer agrees with the enumerative engine",
                check_solve_response(s.ref, response_line(s.payload), true));
    if (atcd::engine::is_front(problem)) {
      api::SolvePayload wrong = s.payload;
      wrong.points.back().damage += 1.0;
      expect_fail(name + " front point with a wrong damage",
                  check_witnesses(s.ref, wrong));
      continue;
    }
    expect_fail(name + " reported infeasible below the full attack's damage",
                check_witnesses(s.ref, infeasible(s.payload)));
    api::SolvePayload wrong = s.payload;
    wrong.damage += 1.0;
    expect_fail(name + " witness with a wrong damage",
                check_witnesses(s.ref, wrong));
  }

  // A threshold above the full attack's damage is truly infeasible.
  Solved s = solve(Problem::Cgd, 12);
  s.ref.bound = 1e9;
  expect_pass("cgd reported infeasible above the full attack's damage",
              check_witnesses(s.ref, infeasible(s.payload)));

  std::printf("%d wrong verdict(s)\n", failures);
  return failures ? 1 : 0;
}
