/// Tests for service/subtree_cache.hpp: cross-model subtree reuse,
/// budget keying, LRU/byte budgets, the byte-accounting independence
/// of the subtree cache and the whole-model result cache when both are
/// enabled on one BatchOptions, equivalence of the AoS (pointer sweep)
/// and SoA (arena sweep) visitor paths on multi-word witnesses, and a
/// pinned snapshot image of a fixed solve set.

#include "service/subtree_cache.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <numeric>

#include "at/parser.hpp"
#include "core/bottom_up_core.hpp"
#include "core/enumerative.hpp"
#include "helpers.hpp"
#include "persist/snapshot.hpp"
#include "service/cache.hpp"
#include "util/rng.hpp"

namespace atcd {
namespace {

using engine::BatchOptions;
using engine::Instance;
using engine::Problem;
using service::ResultCache;
using service::SubtreeCache;
using testing::fronts_equal;

/// A small handmade model: OR(sub, extra) with sub = AND(a, b).
CdAt host_with_shared_subtree(const std::string& prefix, double extra_cost) {
  AttackTree t;
  const NodeId a = t.add_bas(prefix + "a");
  const NodeId b = t.add_bas(prefix + "b");
  const NodeId sub = t.add_gate(NodeType::AND, prefix + "sub", {a, b});
  const NodeId x = t.add_bas(prefix + "x");
  t.add_gate(NodeType::OR, prefix + "root", {sub, x});
  t.finalize();
  CdAt m;
  m.tree = std::move(t);
  // BAS order: a, b, x.
  m.cost = {2.0, 3.0, extra_cost};
  m.damage = std::vector<double>(m.tree.node_count(), 0.0);
  m.damage[a] = 4.0;
  m.damage[b] = 1.0;
  m.damage[sub] = 5.0;
  return m;
}

TEST(SubtreeCache, ReusesFrontsAcrossDistinctModels) {
  SubtreeCache cache;
  BatchOptions opt;
  opt.subtree = &cache;

  // Two different models (different extra leaf, different names) that
  // share the decorated AND(a,b) subtree.
  const CdAt m1 = host_with_shared_subtree("p.", 7.0);
  const CdAt m2 = host_with_shared_subtree("q.", 9.0);

  const auto r1 = engine::solve_one(Instance::of(Problem::Cdpf, m1), opt);
  ASSERT_TRUE(r1.ok) << r1.error;
  EXPECT_EQ(r1.backend, "bottom-up");
  const auto after_first = cache.stats();
  EXPECT_GT(after_first.insertions, 0u);
  EXPECT_EQ(after_first.hits, 0u);

  const auto r2 = engine::solve_one(Instance::of(Problem::Cdpf, m2), opt);
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_GT(cache.stats().hits, after_first.hits);  // the shared subtree

  // Results are unchanged by memoization.
  EXPECT_TRUE(fronts_equal(r1.front, cdpf_enumerative(m1)));
  EXPECT_TRUE(fronts_equal(r2.front, cdpf_enumerative(m2)));
}

TEST(SubtreeCache, SecondSolveOfSameModelHitsEverywhere) {
  SubtreeCache::Config cfg;
  cfg.min_leaves = 2;
  SubtreeCache cache(cfg);
  BatchOptions opt;
  opt.subtree = &cache;

  Rng rng(99);
  const CdAt m = testing::random_cdat(rng, 9, /*treelike=*/true);
  const auto r1 = engine::solve_one(Instance::of(Problem::Cdpf, m), opt);
  ASSERT_TRUE(r1.ok) << r1.error;
  const auto s1 = cache.stats();
  const auto r2 = engine::solve_one(Instance::of(Problem::Cdpf, m), opt);
  ASSERT_TRUE(r2.ok) << r2.error;
  const auto s2 = cache.stats();
  // The root front comes straight from the cache: exactly one hit, no
  // new insertions (every reachable node short-circuits at the root).
  EXPECT_EQ(s2.hits, s1.hits + 1);
  EXPECT_EQ(s2.insertions, s1.insertions);
  EXPECT_TRUE(fronts_equal(r1.front, r2.front));
}

TEST(SubtreeCache, RenamedAndPermutedSubtreesShareEntries) {
  SubtreeCache cache;
  BatchOptions opt;
  opt.subtree = &cache;

  // Same decorated structure, different names and child order.
  const auto parse = [](const std::string& text) {
    ParsedModel p = parse_model(text);
    CdAt m;
    m.tree = std::move(p.tree);
    m.cost = std::move(p.cost);
    m.damage = std::move(p.damage);
    return m;
  };
  const CdAt m1 = parse(
      "bas a cost=1 damage=2\n"
      "bas b cost=4 damage=1\n"
      "and g = a, b damage=3\n");
  const CdAt m2 = parse(
      "bas u cost=4 damage=1\n"
      "bas v cost=1 damage=2\n"
      "and h = u, v damage=3\n");

  ASSERT_TRUE(engine::solve_one(Instance::of(Problem::Cdpf, m1), opt).ok);
  const auto r = engine::solve_one(Instance::of(Problem::Cdpf, m2), opt);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_TRUE(fronts_equal(r.front, cdpf_enumerative(m2)));
  // The reused witnesses are re-indexed into m2's BAS space: every front
  // point's witness must evaluate to its own (cost, damage).
  for (const auto& p : r.front) {
    EXPECT_NEAR(total_cost(m2, p.witness), p.value.cost, 1e-9);
    EXPECT_NEAR(total_damage(m2, p.witness), p.value.damage, 1e-9);
  }
}

TEST(SubtreeCache, BudgetIsPartOfTheKey) {
  SubtreeCache cache;
  BatchOptions opt;
  opt.subtree = &cache;

  Rng rng(7);
  const CdAt m = testing::random_cdat(rng, 8, /*treelike=*/true);
  const auto r1 =
      engine::solve_one(Instance::of(Problem::Dgc, m, /*bound=*/10.0), opt);
  ASSERT_TRUE(r1.ok) << r1.error;
  const auto s1 = cache.stats();
  // A different budget prunes differently: it must not see budget-10
  // entries (no hits), and its results stay exact.
  const auto r2 =
      engine::solve_one(Instance::of(Problem::Dgc, m, /*bound=*/5.0), opt);
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_EQ(cache.stats().hits, s1.hits);
  const auto oracle = dgc_enumerative(m, 5.0);
  EXPECT_EQ(r2.attack.feasible, oracle.feasible);
  if (oracle.feasible) EXPECT_NEAR(r2.attack.damage, oracle.damage, 1e-9);
}

TEST(SubtreeCache, DagModelsBypassTheCache) {
  SubtreeCache cache;
  Rng rng(3);
  const CdAt dag = testing::random_cdat(rng, 6, /*treelike=*/false);
  EXPECT_EQ(cache.bind(dag, kNoBudget), nullptr);
}

TEST(SubtreeCache, EvictsToEntryBudget) {
  SubtreeCache::Config cfg;
  cfg.shards = 1;
  cfg.max_entries = 4;
  SubtreeCache cache(cfg);
  BatchOptions opt;
  opt.subtree = &cache;
  Rng rng(11);
  for (int i = 0; i < 8; ++i) {
    const CdAt m = testing::random_cdat(rng, 10, /*treelike=*/true);
    ASSERT_TRUE(engine::solve_one(Instance::of(Problem::Cdpf, m), opt).ok);
  }
  const auto s = cache.stats();
  EXPECT_LE(s.entries, 4u);
  EXPECT_GT(s.evictions, 0u);
  EXPECT_EQ(s.entries + s.evictions, s.insertions);
}

TEST(SubtreeCache, ClearResetsResidency) {
  SubtreeCache cache;
  BatchOptions opt;
  opt.subtree = &cache;
  Rng rng(12);
  const CdAt m = testing::random_cdat(rng, 8, /*treelike=*/true);
  ASSERT_TRUE(engine::solve_one(Instance::of(Problem::Cdpf, m), opt).ok);
  EXPECT_GT(cache.stats().entries, 0u);
  EXPECT_GT(cache.stats().bytes, 0u);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

/// The double-count guard: SubtreeCache entries retain only signatures
/// and local fronts, ResultCache entries retain models and results —
/// enabling both on one BatchOptions must account every byte exactly
/// once, i.e. each cache's byte counter equals what it reports when
/// enabled alone, and a whole-model hit must not re-run (or re-store)
/// the subtree path.
TEST(SubtreeCache, NoDoubleCountingWithResultCache) {
  Rng rng(21);
  std::vector<CdAt> models;
  for (int i = 0; i < 6; ++i)
    models.push_back(testing::random_cdat(rng, 9, /*treelike=*/true));

  const auto run = [&](ResultCache* rc, SubtreeCache* sc) {
    BatchOptions opt;
    opt.cache = rc;
    opt.subtree = sc;
    for (const CdAt& m : models) {
      const auto r = engine::solve_one(Instance::of(Problem::Cdpf, m), opt);
      ASSERT_TRUE(r.ok) << r.error;
    }
  };

  ResultCache rc_alone, rc_both;
  SubtreeCache sc_alone, sc_both;
  run(&rc_alone, nullptr);
  run(nullptr, &sc_alone);
  run(&rc_both, &sc_both);

  // Byte/entry accounting is independent: enabling the other cache does
  // not inflate (or deflate) either counter.
  EXPECT_EQ(rc_both.stats().bytes, rc_alone.stats().bytes);
  EXPECT_EQ(rc_both.stats().entries, rc_alone.stats().entries);
  EXPECT_EQ(sc_both.stats().bytes, sc_alone.stats().bytes);
  EXPECT_EQ(sc_both.stats().insertions, sc_alone.stats().insertions);

  // A whole-model result-cache hit short-circuits before the subtree
  // memo is bound: replaying the same workload adds result-cache hits
  // but leaves the subtree counters untouched.
  const auto sc_before = sc_both.stats();
  const auto rc_hits_before = rc_both.stats().hits;
  run(&rc_both, &sc_both);
  EXPECT_EQ(rc_both.stats().hits, rc_hits_before + models.size());
  const auto sc_after = sc_both.stats();
  EXPECT_EQ(sc_after.hits, sc_before.hits);
  EXPECT_EQ(sc_after.misses, sc_before.misses);
  EXPECT_EQ(sc_after.insertions, sc_before.insertions);
  EXPECT_EQ(sc_after.bytes, sc_before.bytes);
}

/// Memoized solves must be bit-compatible with unmemoized ones across
/// problems and model kinds.
TEST(SubtreeCache, MemoizedEqualsUnmemoized) {
  Rng rng(31);
  SubtreeCache cache;
  BatchOptions with, without;
  with.subtree = &cache;
  for (int i = 0; i < 20; ++i) {
    const CdpAt mp = testing::random_cdpat(rng, 8, /*treelike=*/true);
    const CdAt md = mp.deterministic();
    for (const Problem p : {Problem::Cdpf, Problem::Dgc, Problem::Cgd}) {
      const double bound = p == Problem::Cdpf ? 0.0 : rng.uniform(0.0, 30.0);
      const auto a = engine::solve_one(Instance::of(p, md, bound), with);
      const auto b = engine::solve_one(Instance::of(p, md, bound), without);
      ASSERT_EQ(a.ok, b.ok) << a.error << b.error;
      if (engine::is_front(p)) {
        EXPECT_TRUE(fronts_equal(a.front, b.front));
      } else {
        EXPECT_EQ(a.attack.feasible, b.attack.feasible);
        if (a.attack.feasible) {
          EXPECT_DOUBLE_EQ(a.attack.cost, b.attack.cost);
          EXPECT_DOUBLE_EQ(a.attack.damage, b.attack.damage);
        }
      }
    }
    for (const Problem p : {Problem::Cedpf, Problem::Edgc, Problem::Cged}) {
      const double bound = p == Problem::Cedpf ? 0.0 : rng.uniform(0.0, 30.0);
      const auto a = engine::solve_one(Instance::of(p, mp, bound), with);
      const auto b = engine::solve_one(Instance::of(p, mp, bound), without);
      ASSERT_EQ(a.ok, b.ok) << a.error << b.error;
      if (engine::is_front(p)) {
        EXPECT_TRUE(fronts_equal(a.front, b.front));
      } else {
        EXPECT_EQ(a.attack.feasible, b.attack.feasible);
        if (a.attack.feasible) {
          EXPECT_DOUBLE_EQ(a.attack.cost, b.attack.cost);
          EXPECT_DOUBLE_EQ(a.attack.damage, b.attack.damage);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Multi-word witnesses: hosts with > 64 BAS sharing a > 64-leaf subtree.
// ---------------------------------------------------------------------------

/// A treelike host OR(shared, rest) with zero root damage.  `shared` is
/// one fixed decorated subtree over \p shared leaves (the same in every
/// host); `rest` groups \p extra further leaves in a shape drawn from
/// \p host_seed, and BAS indices are handed out in an order shuffled by
/// \p host_seed — so two hosts share an isomorphic subtree whose leaves
/// sit at different host indices, spread over several witness words.
/// *shared_root receives the shared subtree's root.
CdAt wide_host(std::uint64_t host_seed, NodeId* shared_root = nullptr,
               std::size_t shared = 70, std::size_t extra = 60) {
  const std::size_t n = shared + extra;
  Rng host_rng(host_seed);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = n; i > 1; --i)
    std::swap(order[i - 1], order[host_rng.below(i)]);
  AttackTree t;
  std::vector<NodeId> leaf(n);
  for (std::size_t k : order) leaf[k] = t.add_bas("l" + std::to_string(k));

  // Decorations depend on leaf labels and gate creation order only, so
  // the shared subtree is decorated identically in every host.
  std::vector<std::pair<NodeId, double>> gate_damage;
  int g = 0;
  const auto group = [&](Rng& rng, std::size_t lo, std::size_t hi) {
    std::vector<NodeId> open(leaf.begin() + static_cast<std::ptrdiff_t>(lo),
                             leaf.begin() + static_cast<std::ptrdiff_t>(hi));
    while (open.size() > 1) {
      const std::size_t arity =
          std::min<std::size_t>(open.size(), 2 + rng.below(2));
      std::vector<NodeId> cs;
      for (std::size_t i = 0; i < arity; ++i) {
        const std::size_t pick = rng.below(open.size());
        cs.push_back(open[pick]);
        open.erase(open.begin() + static_cast<std::ptrdiff_t>(pick));
      }
      const NodeId gate =
          t.add_gate(rng.chance(0.5) ? NodeType::OR : NodeType::AND,
                     "g" + std::to_string(g), cs);
      gate_damage.emplace_back(gate, (g % 4 == 0) ? 5.0 : 0.0);
      ++g;
      open.push_back(gate);
    }
    return open[0];
  };
  Rng shape(424242);
  const NodeId s = group(shape, 0, shared);
  const NodeId r = group(host_rng, shared, n);
  t.set_root(t.add_gate(NodeType::OR, "root", {s, r}));
  t.finalize();
  if (shared_root) *shared_root = s;

  CdAt m;
  m.cost.assign(n, 0.0);
  m.damage.assign(t.node_count(), 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    m.cost[t.bas_index(leaf[k])] = 1.0 + static_cast<double>(k % 3);
    m.damage[leaf[k]] = 1.0 + static_cast<double>((k * 7) % 10);
  }
  for (const auto& [gate, d] : gate_damage) m.damage[gate] = d;
  m.tree = std::move(t);
  return m;
}

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

bool triples_identical(const std::vector<AttrTriple>& a,
                       const std::vector<AttrTriple>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (bits_of(a[i].t.cost) != bits_of(b[i].t.cost) ||
        bits_of(a[i].t.damage) != bits_of(b[i].t.damage) ||
        bits_of(a[i].t.act) != bits_of(b[i].t.act) ||
        !(a[i].witness == b[i].witness))
      return false;
  return true;
}

struct SweepRun {
  std::vector<std::vector<AttrTriple>> fronts;
  SubtreeCache::Stats stats;
  std::vector<SubtreeCache::ExportedEntry> entries;
};

/// Sweeps every model through one fresh cache, on the pointer sweep
/// (AoS lookup()/store()) or the arena sweep (lookup_view()/store_soa()).
SweepRun sweep_all(const std::vector<CdAt>& models, double budget,
                   bool pointer_path) {
  SubtreeCache::Config cfg;
  cfg.shards = 2;
  SubtreeCache cache(cfg);
  SweepRun run;
  for (const CdAt& m : models) {
    const std::vector<double> ones(m.tree.bas_count(), 1.0);
    const auto visitor = cache.bind(m.tree, m.cost, m.damage, nullptr, budget);
    detail::BottomUpOptions opt;
    opt.budget = budget;
    opt.pointer_path = pointer_path;
    opt.visitor = visitor.get();
    run.fronts.push_back(
        detail::bottom_up_root_front(m.tree, m.cost, m.damage, ones, opt));
  }
  run.stats = cache.stats();
  run.entries = cache.export_entries();
  return run;
}

TEST(SubtreeCache, SoaAndAosPathsStoreAndServeIdentically) {
  std::vector<CdAt> models;
  for (const std::uint64_t seed : {1u, 2u, 1u, 3u})
    models.push_back(wide_host(seed));
  ASSERT_GT(models[0].tree.bas_count(), 128u);  // three host words

  const double budget = 24.0;
  const SweepRun aos = sweep_all(models, budget, /*pointer_path=*/true);
  const SweepRun soa = sweep_all(models, budget, /*pointer_path=*/false);

  for (std::size_t i = 0; i < models.size(); ++i) {
    EXPECT_TRUE(triples_identical(aos.fronts[i], soa.fronts[i])) << i;
    // Memoization never changes a front's values, and every remapped
    // witness evaluates to its point (among value-equal attacks a
    // memoized subtree may keep a different, isomorphic witness).
    const CdAt& m = models[i];
    const std::vector<double> ones(m.tree.bas_count(), 1.0);
    detail::BottomUpOptions plain;
    plain.budget = budget;
    const auto ref =
        detail::bottom_up_root_front(m.tree, m.cost, m.damage, ones, plain);
    ASSERT_EQ(soa.fronts[i].size(), ref.size()) << i;
    for (std::size_t k = 0; k < ref.size(); ++k) {
      const AttrTriple& p = soa.fronts[i][k];
      EXPECT_EQ(bits_of(p.t.cost), bits_of(ref[k].t.cost));
      EXPECT_EQ(bits_of(p.t.damage), bits_of(ref[k].t.damage));
      EXPECT_EQ(bits_of(p.t.act), bits_of(ref[k].t.act));
      EXPECT_DOUBLE_EQ(total_cost(m, p.witness), p.t.cost);
      EXPECT_DOUBLE_EQ(total_damage(m, p.witness), p.t.damage);
    }
  }

  // The repeated host and the shared subtree hit on both paths.
  EXPECT_GE(soa.stats.hits, 2u);
  EXPECT_EQ(aos.stats.hits, soa.stats.hits);
  EXPECT_EQ(aos.stats.misses, soa.stats.misses);
  EXPECT_EQ(aos.stats.insertions, soa.stats.insertions);
  EXPECT_EQ(aos.stats.evictions, soa.stats.evictions);
  EXPECT_EQ(aos.stats.collisions, soa.stats.collisions);
  EXPECT_EQ(aos.stats.entries, soa.stats.entries);
  EXPECT_EQ(aos.stats.bytes, soa.stats.bytes);

  ASSERT_EQ(aos.entries.size(), soa.entries.size());
  bool saw_wide_entry = false;
  for (std::size_t i = 0; i < aos.entries.size(); ++i) {
    const auto& a = aos.entries[i];
    const auto& b = soa.entries[i];
    EXPECT_EQ(a.hash, b.hash);
    EXPECT_EQ(bits_of(a.budget), bits_of(b.budget));
    EXPECT_EQ(*a.sig, *b.sig);
    EXPECT_EQ(a.front->nbits, b.front->nbits);
    EXPECT_EQ(a.front->nbits, SubtreeCache::signature_leaves(*a.sig));
    EXPECT_EQ(a.front->buf.wpa(), b.front->buf.wpa());
    EXPECT_EQ(a.front->buf.cost, b.front->buf.cost);
    EXPECT_EQ(a.front->buf.damage, b.front->buf.damage);
    EXPECT_EQ(a.front->buf.act, b.front->buf.act);
    EXPECT_EQ(a.front->buf.wit, b.front->buf.wit);
    saw_wide_entry |= a.front->nbits > 64;
  }
  EXPECT_TRUE(saw_wide_entry);  // local witnesses span several words too
}

TEST(SubtreeCache, CrossModelHitOnWideSubtreeRemapsWitnesses) {
  NodeId shared2 = 0;
  const CdAt h1 = wide_host(11);
  const CdAt h2 = wide_host(12, &shared2);
  // The shared leaves carry different host BAS indices in the two hosts.
  const auto shared_indices = [](const CdAt& h) {
    std::vector<std::uint32_t> idx;
    for (int k = 0; k < 70; ++k)
      idx.push_back(h.tree.bas_index(*h.tree.find("l" + std::to_string(k))));
    return idx;
  };
  ASSERT_NE(shared_indices(h1), shared_indices(h2));

  SubtreeCache cache;
  BatchOptions opt;
  opt.subtree = &cache;
  const double budget = 30.0;
  const auto r1 =
      engine::solve_one(Instance::of(Problem::Dgc, h1, budget), opt);
  ASSERT_TRUE(r1.ok) << r1.error;

  // The shared 70-leaf subtree's front, looked up in the second host's
  // BAS numbering: a hit whose every witness evaluates to its point.
  {
    const auto visitor = cache.bind(h2, budget);
    ASSERT_NE(visitor, nullptr);
    std::vector<AttrTriple> front;
    ASSERT_TRUE(visitor->lookup(shared2, &front));
    ASSERT_FALSE(front.empty());
    for (const AttrTriple& p : front) {
      ASSERT_EQ(p.witness.size(), h2.tree.bas_count());
      EXPECT_DOUBLE_EQ(total_cost(h2, p.witness), p.t.cost);
      EXPECT_DOUBLE_EQ(total_damage(h2, p.witness), p.t.damage);
    }
  }

  const auto before = cache.stats();
  const auto r2 =
      engine::solve_one(Instance::of(Problem::Dgc, h2, budget), opt);
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_GT(cache.stats().hits, before.hits);
  const auto plain =
      engine::solve_one(Instance::of(Problem::Dgc, h2, budget), {});
  ASSERT_TRUE(plain.ok) << plain.error;
  EXPECT_EQ(r2.attack.feasible, plain.attack.feasible);
  EXPECT_DOUBLE_EQ(r2.attack.cost, plain.attack.cost);
  EXPECT_DOUBLE_EQ(r2.attack.damage, plain.attack.damage);
  EXPECT_DOUBLE_EQ(total_cost(h2, r2.attack.witness), r2.attack.cost);
  EXPECT_DOUBLE_EQ(total_damage(h2, r2.attack.witness), r2.attack.damage);

  // The whole front, end to end.
  const auto f2 = engine::solve_one(Instance::of(Problem::Cdpf, h2), opt);
  ASSERT_TRUE(f2.ok) << f2.error;
  EXPECT_TRUE(fronts_equal(
      f2.front, engine::solve_one(Instance::of(Problem::Cdpf, h2), {}).front));
  for (const auto& p : f2.front) {
    EXPECT_DOUBLE_EQ(total_cost(h2, p.witness), p.value.cost);
    EXPECT_DOUBLE_EQ(total_damage(h2, p.witness), p.value.damage);
  }
}

/// A memo layer that speaks only the AoS lookup()/store() protocol,
/// forwarding to a SubtreeCache — the shape of a user-supplied memo.
class AosOnlyMemo final : public engine::SubtreeMemo {
 public:
  explicit AosOnlyMemo(SubtreeCache* inner) : inner_(inner) {}
  std::unique_ptr<detail::SubtreeVisitor> bind(const CdAt& m,
                                               double budget) override {
    return wrap(inner_->bind(m, budget));
  }
  std::unique_ptr<detail::SubtreeVisitor> bind(const CdpAt& m,
                                               double budget) override {
    return wrap(inner_->bind(m, budget));
  }

 private:
  struct Visitor final : detail::SubtreeVisitor {
    std::unique_ptr<detail::SubtreeVisitor> inner;
    bool lookup(NodeId v, std::vector<AttrTriple>* out) override {
      return inner->lookup(v, out);
    }
    void store(NodeId v, const std::vector<AttrTriple>& front) override {
      inner->store(v, front);
    }
  };
  static std::unique_ptr<detail::SubtreeVisitor> wrap(
      std::unique_ptr<detail::SubtreeVisitor> inner) {
    if (!inner) return nullptr;
    auto v = std::make_unique<Visitor>();
    v->inner = std::move(inner);
    return v;
  }
  SubtreeCache* inner_;
};

/// A chain whose layers speak SoA serves and counts exactly like one
/// where either layer speaks only AoS: the arena sweep's lookup_view()
/// and store_soa() on the chain fall back per layer, promotion included.
TEST(SubtreeCache, ChainedMemoMatchesAcrossLayerProtocols) {
  std::vector<CdAt> models;
  for (const std::uint64_t seed : {31u, 32u, 31u})
    models.push_back(wide_host(seed));
  Rng rng(77);
  for (int i = 0; i < 6; ++i)
    models.push_back(testing::random_cdat(rng, 12, /*treelike=*/true));

  struct Layers {
    SubtreeCache primary, fallback;
  };
  const auto run = [&](Layers& l, bool aos_primary, bool aos_fallback) {
    AosOnlyMemo p_aos(&l.primary), f_aos(&l.fallback);
    service::ChainedSubtreeMemo chain(
        aos_primary ? static_cast<engine::SubtreeMemo*>(&p_aos) : &l.primary,
        aos_fallback ? static_cast<engine::SubtreeMemo*>(&f_aos)
                     : &l.fallback);
    std::vector<std::vector<AttrTriple>> fronts;
    for (std::size_t i = 0; i < models.size(); ++i) {
      const CdAt& m = models[i];
      // Clearing the primary before the repeated host forces its hits
      // through the fallback and the promotion path.
      if (i == 2) l.primary.clear();
      const auto visitor = chain.bind(m, 24.0);
      const std::vector<double> ones(m.tree.bas_count(), 1.0);
      detail::BottomUpOptions opt;
      opt.budget = 24.0;
      opt.visitor = visitor.get();
      fronts.push_back(
          detail::bottom_up_root_front(m.tree, m.cost, m.damage, ones, opt));
    }
    return fronts;
  };
  const auto same_stats = [](const SubtreeCache::Stats& a,
                             const SubtreeCache::Stats& b) {
    return a.hits == b.hits && a.misses == b.misses &&
           a.insertions == b.insertions && a.entries == b.entries &&
           a.bytes == b.bytes;
  };

  Layers ref;
  const auto expect = run(ref, false, false);
  EXPECT_GT(ref.fallback.stats().hits, 0u);
  EXPECT_GT(ref.primary.stats().insertions, 0u);
  for (const auto [aos_primary, aos_fallback] :
       {std::pair{true, false}, std::pair{false, true},
        std::pair{true, true}}) {
    SCOPED_TRACE(::testing::Message() << "aos primary " << aos_primary
                                      << ", aos fallback " << aos_fallback);
    Layers l;
    const auto got = run(l, aos_primary, aos_fallback);
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_TRUE(triples_identical(got[i], expect[i])) << i;
    EXPECT_TRUE(same_stats(l.primary.stats(), ref.primary.stats()));
    EXPECT_TRUE(same_stats(l.fallback.stats(), ref.fallback.stats()));
  }
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// The snapshot image of a fixed solve set is pinned byte for byte: the
/// cache's entry layout may change, the exported format (v1) may not.
TEST(SubtreeCache, SnapshotImageOfFixedSolveSetIsPinned) {
  SubtreeCache::Config cfg;
  cfg.shards = 2;
  SubtreeCache cache(cfg);
  BatchOptions opt;
  opt.subtree = &cache;
  ASSERT_TRUE(
      engine::solve_one(Instance::of(Problem::Dgc, wide_host(21), 20.0), opt)
          .ok);
  ASSERT_TRUE(
      engine::solve_one(Instance::of(Problem::Dgc, wide_host(22), 20.0), opt)
          .ok);
  Rng rng(5);
  for (int i = 0; i < 4; ++i) {
    const CdpAt mp = testing::random_cdpat(rng, 10, /*treelike=*/true);
    ASSERT_TRUE(engine::solve_one(Instance::of(Problem::Cedpf, mp), opt).ok);
    ASSERT_TRUE(
        engine::solve_one(Instance::of(Problem::Cdpf, mp.deterministic()), opt)
            .ok);
  }
  const ResultCache no_results;
  persist::SnapshotInfo info;
  const std::string image = persist::encode_snapshot(no_results, cache, &info);
  EXPECT_EQ(info.subtree_entries, cache.stats().entries);
  EXPECT_EQ(info.bytes, 208221u);
  EXPECT_EQ(fnv1a(image), 17242969693555542931ull);
}

}  // namespace
}  // namespace atcd
