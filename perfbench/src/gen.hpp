// Seeded model and request-line generation for the benchmark.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "bench.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// A generated attack tree the benchmark owns and edits: the program
/// only ever sees its serialised text.  Nodes no longer reachable from
/// the root (after a subtree replacement) are simply left behind.
struct GenModel {
  struct Node {
    std::string name;
    atcd::NodeType type = atcd::NodeType::BAS;
    std::vector<int> kids;
    double cost = 0.0;
    double prob = 1.0;
    double damage = 0.0;
  };
  std::vector<Node> nodes;
  int root = -1;

  /// Appends a random AND/OR tree over \p n_bas fresh leaves (names
  /// prefixed by \p prefix; gates of arity 2-3) and returns its root.
  /// With \p share > 0 a gate also takes an already-used node as an extra
  /// child with that probability, which makes the model a DAG.
  int add_subtree(atcd::Rng& rng, std::size_t n_bas, const std::string& prefix,
                  double share = 0.0);

  /// Nodes reachable from \p from, children before parents, each once.
  std::vector<int> reachable(int from) const;
  std::vector<int> reachable() const { return reachable(root); }

  /// The model below \p from as library types.
  atcd::CdpAt build(int from) const;
  atcd::CdpAt build() const { return build(root); }

  /// The model below \p from in the parser's text format.
  std::string text(int from, bool with_prob) const;
  std::string text(bool with_prob) const { return text(root, with_prob); }

  /// The same model with every name prefixed by \p tag and every child
  /// list shuffled: textually different, canonically identical.
  GenModel isomorph(atcd::Rng& rng, const std::string& tag) const;
};

/// A model whose reachable node count lies in [lo, hi] (treelike unless
/// \p dag), drawn by rejection from GenModel::add_subtree.
GenModel random_model(atcd::Rng& rng, std::size_t lo, std::size_t hi, bool dag,
                      const std::string& prefix);

/// A budget or threshold for \p problem on \p m: 20-60% of the total
/// cost (budgets) or of the full attack's (expected) damage
/// (thresholds); 0 for the fronts.
double random_bound(atcd::Rng& rng, const atcd::CdpAt& m,
                    atcd::engine::Problem problem);

/// The v1 JSON line of a solve request.
std::string solve_line(const std::string& id, atcd::engine::Problem problem,
                       double bound, const std::string& model_text);

std::string encode_line(std::string id, atcd::api::Operation op);

}  // namespace perfbench
