#include "gen.hpp"

#include <algorithm>
#include <cmath>

#include "api/json.hpp"
#include "at/parser.hpp"

namespace perfbench {

using atcd::NodeType;
using atcd::engine::Problem;

int GenModel::add_subtree(atcd::Rng& rng, std::size_t n_bas,
                          const std::string& prefix, double share) {
  std::vector<int> open;
  std::vector<int> used;
  for (std::size_t i = 0; i < n_bas; ++i) {
    Node n;
    n.name = prefix + "b" + std::to_string(i);
    n.cost = static_cast<double>(rng.range(1, 10));
    n.prob = 0.1 * static_cast<double>(rng.range(1, 10));
    n.damage = static_cast<double>(rng.range(0, 10));
    open.push_back(static_cast<int>(nodes.size()));
    nodes.push_back(std::move(n));
  }
  int gates = 0;
  while (open.size() > 1) {
    const std::size_t arity = std::min<std::size_t>(open.size(), 2 + rng.below(2));
    Node g;
    for (std::size_t i = 0; i < arity; ++i) {
      const std::size_t pick = rng.below(open.size());
      g.kids.push_back(open[pick]);
      open.erase(open.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    if (share > 0.0 && !used.empty() && rng.chance(share)) {
      const int extra = used[rng.below(used.size())];
      if (std::find(g.kids.begin(), g.kids.end(), extra) == g.kids.end())
        g.kids.push_back(extra);
    }
    used.insert(used.end(), g.kids.begin(), g.kids.end());
    g.name = prefix + "g" + std::to_string(gates++);
    g.type = rng.chance(0.5) ? NodeType::OR : NodeType::AND;
    g.damage = static_cast<double>(rng.range(0, 10));
    open.push_back(static_cast<int>(nodes.size()));
    nodes.push_back(std::move(g));
  }
  return open.front();
}

std::vector<int> GenModel::reachable(int from) const {
  std::vector<int> order;
  std::vector<char> seen(nodes.size(), 0);
  // Iterative post-order: (node, next child index).
  std::vector<std::pair<int, std::size_t>> stack{{from, 0}};
  seen[static_cast<std::size_t>(from)] = 1;
  while (!stack.empty()) {
    auto& [v, next] = stack.back();
    const auto& kids = nodes[static_cast<std::size_t>(v)].kids;
    if (next < kids.size()) {
      const int c = kids[next++];
      if (!seen[static_cast<std::size_t>(c)]) {
        seen[static_cast<std::size_t>(c)] = 1;
        stack.push_back({c, 0});
      }
      continue;
    }
    order.push_back(v);
    stack.pop_back();
  }
  return order;
}

atcd::CdpAt GenModel::build(int from) const {
  const std::vector<int> order = reachable(from);
  std::vector<atcd::NodeId> id(nodes.size(), atcd::kNoNode);
  atcd::AttackTree t;
  for (int v : order) {
    const Node& n = nodes[static_cast<std::size_t>(v)];
    if (n.type == NodeType::BAS) {
      id[static_cast<std::size_t>(v)] = t.add_bas(n.name);
    } else {
      std::vector<atcd::NodeId> cs;
      for (int c : n.kids) cs.push_back(id[static_cast<std::size_t>(c)]);
      id[static_cast<std::size_t>(v)] = t.add_gate(n.type, n.name, std::move(cs));
    }
  }
  t.set_root(id[static_cast<std::size_t>(from)]);
  t.finalize();
  atcd::CdpAt m;
  m.cost.resize(t.bas_count());
  m.prob.resize(t.bas_count());
  m.damage.resize(t.node_count());
  for (int v : order) {
    const Node& n = nodes[static_cast<std::size_t>(v)];
    const atcd::NodeId u = id[static_cast<std::size_t>(v)];
    m.damage[u] = n.damage;
    if (n.type == NodeType::BAS) {
      m.cost[t.bas_index(u)] = n.cost;
      m.prob[t.bas_index(u)] = n.prob;
    }
  }
  m.tree = std::move(t);
  return m;
}

std::string GenModel::text(int from, bool with_prob) const {
  const atcd::CdpAt m = build(from);
  return atcd::serialize_model(m.tree, m.cost, m.damage,
                               with_prob ? &m.prob : nullptr);
}

GenModel GenModel::isomorph(atcd::Rng& rng, const std::string& tag) const {
  GenModel out = *this;
  for (Node& n : out.nodes) {
    n.name = tag + n.name;
    for (std::size_t i = n.kids.size(); i > 1; --i)
      std::swap(n.kids[i - 1], n.kids[rng.below(i)]);
  }
  return out;
}

GenModel random_model(atcd::Rng& rng, std::size_t lo, std::size_t hi, bool dag,
                      const std::string& prefix) {
  // A gate of arity 2-3 consumes 1.5 open nodes on average, so n leaves
  // give about 5n/3 nodes.
  const std::size_t bas_lo = std::max<std::size_t>(2, lo * 3 / 5);
  const std::size_t bas_hi = std::max(bas_lo, hi * 3 / 5);
  while (true) {
    GenModel m;
    const std::size_t n_bas =
        bas_lo + rng.below(bas_hi - bas_lo + 1);
    m.root = m.add_subtree(rng, n_bas, prefix, dag ? 0.35 : 0.0);
    const std::size_t size = m.reachable().size();
    if (size < lo || size > hi) continue;
    if (dag && m.build().tree.is_treelike()) continue;
    return m;
  }
}

double random_bound(atcd::Rng& rng, const atcd::CdpAt& m, Problem problem) {
  const double frac = 0.2 + 0.4 * rng.uniform();
  atcd::Attack all(m.tree.bas_count());
  for (std::size_t i = 0; i < m.tree.bas_count(); ++i) all.set(i);
  switch (problem) {
    case Problem::Cdpf:
    case Problem::Cedpf:
      return 0.0;
    case Problem::Dgc:
    case Problem::Edgc:
      return std::floor(frac * atcd::total_cost(m, all));
    case Problem::Cgd:
      return std::floor(frac * atcd::total_damage(m.deterministic(), all));
    case Problem::Cged:
      return std::floor(100.0 * frac * atcd::expected_damage(m, all)) / 100.0;
  }
  return 0.0;
}

std::string encode_line(std::string id, atcd::api::Operation op) {
  atcd::api::Request r;
  r.id = std::move(id);
  r.op = std::move(op);
  return atcd::api::encode_request(r);
}

std::string solve_line(const std::string& id, Problem problem, double bound,
                       const std::string& model_text) {
  atcd::api::SolveRequest s;
  s.spec.problem = problem;
  s.spec.bound = bound;
  s.spec.has_bound = !atcd::engine::is_front(problem);
  s.spec.model = model_text;
  return encode_line(id, std::move(s));
}

}  // namespace perfbench
