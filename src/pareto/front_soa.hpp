#pragma once
/// \file front_soa.hpp
/// Structure-of-arrays Pareto-front storage and kernels — the hot-path
/// companion of triple.hpp / front2d.hpp.
///
/// The pointer-based sweep spends its time in two places: combining two
/// child fronts (cross product of AttrTriples, each carrying its own
/// heap-allocated DynBitset witness — one allocation per candidate) and
/// pruning (stable_sort moving whole AttrTriples, a std::map staircase
/// allocating a node per kept point).  Both are memory-latency bound,
/// not compute bound.
///
/// This file stores fronts as parallel columns instead: cost / damage /
/// activation arrays plus one flat witness-word array (every witness is
/// `wpa` consecutive uint64 words).  The kernels then become linear
/// passes:
///
///   * combine_soa     — cross product with witnesses OR-ed word-wise
///                       into pre-sized flat storage; zero allocations
///                       in steady state.
///   * prune_soa       — budget filter + index stable-sort (moving u32
///                       indices, not triples) + a flat vector staircase,
///                       then one gather pass.  Exactly prune_min()'s
///                       semantics, point for point.
///   * TripleFrontStack— per-node front storage for the arena sweep:
///                       shared columns with per-frame spans under stack
///                       discipline, so live memory tracks the DFS
///                       fringe (≈ depth), not the node count.
///
/// For 2-D (cost, damage) fronts, FrontSoaStore packs many fronts into
/// shared columns with per-front spans and a versioned, trivially
/// memcpy-able byte layout — the designated serialization substrate for
/// cache snapshots (ROADMAP item 2).  merge_fronts / minkowski_fronts
/// are the matching sorted-input kernels.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "at/attack_tree.hpp"
#include "pareto/front2d.hpp"
#include "pareto/triple.hpp"

namespace atcd {

/// Read-only SoA view of a triple front: parallel columns of length n,
/// plus n * wpa packed witness words.
struct TripleView {
  const double* cost = nullptr;
  const double* damage = nullptr;
  const double* act = nullptr;
  const std::uint64_t* wit = nullptr;
  std::size_t n = 0;
};

/// Owning SoA buffer of attribute triples.  `wpa` (witness words per
/// attack) is fixed per model: ceil(bas_count / 64).
class TripleBuf {
 public:
  TripleBuf() = default;
  explicit TripleBuf(std::uint32_t wpa) : wpa_(wpa) {}

  std::uint32_t wpa() const { return wpa_; }
  void set_wpa(std::uint32_t wpa) { wpa_ = wpa; }
  std::size_t size() const { return cost.size(); }
  bool empty() const { return cost.empty(); }

  void clear() {
    cost.clear();
    damage.clear();
    act.clear();
    wit.clear();
  }

  void reserve(std::size_t n) {
    cost.reserve(n);
    damage.reserve(n);
    act.reserve(n);
    wit.reserve(n * wpa_);
  }

  /// Appends a triple with an all-zero witness; returns its row.
  std::size_t push_zero(double c, double d, double a) {
    cost.push_back(c);
    damage.push_back(d);
    act.push_back(a);
    wit.resize(wit.size() + wpa_, 0);
    return cost.size() - 1;
  }

  std::uint64_t* witness(std::size_t row) { return wit.data() + row * wpa_; }
  const std::uint64_t* witness(std::size_t row) const {
    return wit.data() + row * wpa_;
  }

  TripleView view() const {
    return {cost.data(), damage.data(), act.data(), wit.data(), cost.size()};
  }

  /// Conversions for visitors that speak only the AoS protocol (the
  /// pointer sweep's lookup()/store()); the memos themselves — session
  /// memo and subtree cache — store SoA.  \p nbits is the witness bit
  /// width.
  static TripleBuf from_aos(const std::vector<AttrTriple>& xs,
                            std::size_t nbits);
  std::vector<AttrTriple> to_aos(std::size_t nbits) const;

  std::vector<double> cost, damage, act;
  std::vector<std::uint64_t> wit;  ///< size() * wpa() words

 private:
  std::uint32_t wpa_ = 0;
};

/// out = a × b under \p gate: costs and damages add, activations combine
/// by the gate operator (AND: p·q, OR: p + q − pq), witnesses union.
/// Iterates a-major then b-minor — the exact order of the pointer path's
/// combine(), so downstream stable sorts see the same sequence.  Rows
/// whose cost exceeds \p budget are elided during generation (before the
/// witness OR is paid) — exactly the rows prune's min_U filter would drop
/// first, so the surviving sequence is unchanged.
/// \p out is cleared first; its wpa must match.
void combine_soa(const TripleView& a, const TripleView& b, NodeType gate,
                 TripleBuf* out, double budget = kNoBudget);

/// Reusable scratch for prune_soa (index arrays, staircase, gather
/// target); hoisted out so a whole sweep allocates only while warming.
struct PruneScratch {
  std::vector<std::uint32_t> idx;
  std::vector<std::pair<double, double>> stair;  // (damage, act), damage asc
  TripleBuf tmp;
};

/// min_U over SoA storage: drops rows with cost > budget, keeps exactly
/// the ⊑-minimal remainder value-deduplicated (first witness wins), in
/// (cost asc, damage desc, act desc) order — point-for-point identical
/// to prune_min() on the same sequence.  In-place on \p io.
void prune_soa(TripleBuf* io, double budget, PruneScratch* scratch);

/// The selection half of prune_soa: fills scratch->idx with the surviving
/// row indices of \p v, in the final output order, without touching the
/// rows themselves.  Callers that gather straight into their destination
/// (TripleFrontStack::push_select / compact_top) skip prune_soa's bounce
/// copy entirely.
void prune_select(const TripleView& v, double budget, PruneScratch* scratch);

/// SoA view -> AoS triples into a caller-owned vector, reusing its
/// elements and witness storage (alloc-free in steady state).  \p v's
/// witness stride is ceil(nbits / 64) words per row.
void view_to_aos_into(const TripleView& v, std::size_t nbits,
                      std::vector<AttrTriple>* out);

/// Stack-disciplined pool of triple fronts in shared SoA columns.  The
/// arena sweep pushes one frame per completed subtree and pops the top k
/// to fold a k-ary gate, so the live set is exactly the DFS fringe.
class TripleFrontStack {
 public:
  explicit TripleFrontStack(std::uint32_t wpa) : wpa_(wpa) {}

  std::uint32_t wpa() const { return wpa_; }
  std::size_t frames() const { return frame_off_.size(); }

  /// View of the k-th frame from the top (k = 0 is the top).
  TripleView from_top(std::size_t k) const;

  /// Appends \p buf as a new top frame (rows copied into the pool).
  void push(const TripleBuf& buf);

  /// Appends a new top frame holding rows[i] of \p v, in order — the
  /// gather-on-push companion of prune_select().  \p v must not alias
  /// this stack's storage (pushing can reallocate the columns).
  void push_select(const TripleView& v,
                   const std::vector<std::uint32_t>& rows);

  /// Appends a new top frame straight from AoS triples — the memo-hit
  /// path, with no TripleBuf bounce.  \p nbits is the witness bit width;
  /// short witnesses are zero-padded to wpa() words.
  void push_aos(const std::vector<AttrTriple>& xs, std::size_t nbits);

  /// Appends a new top frame from an SoA view whose witness stride
  /// already equals wpa() — four contiguous column copies, the fastest
  /// memo-hit path.  \p v must not alias this stack's storage.
  void push_view(const TripleView& v);

  /// Replaces the top frame by its own rows[i] (frame-relative indices,
  /// any order), via \p bounce — in-place prune of the top frame.
  void compact_top(const std::vector<std::uint32_t>& rows, TripleBuf* bounce);

  /// Mutable damage column of the top frame (the gate-finish own-damage
  /// add runs directly on the pool).
  double* top_damage();

  /// Drops the top \p k frames (their rows are reclaimed).
  void pop(std::size_t k);

  /// AoS copy of the top frame — what SubtreeVisitor::store receives.
  std::vector<AttrTriple> top_to_aos(std::size_t nbits) const;

  /// top_to_aos into a caller-owned vector, reusing its triples and
  /// witness storage — alloc-free in steady state (same output, element
  /// for element).
  void top_to_aos_into(std::size_t nbits, std::vector<AttrTriple>* out) const;

  void clear();

  /// clear() plus a new witness stride — re-arms a pooled stack for a
  /// model with a different BAS count while keeping column capacity.
  void reset(std::uint32_t wpa) {
    wpa_ = wpa;
    clear();
  }

 private:
  std::uint32_t wpa_;
  std::vector<double> cost_, damage_, act_;
  std::vector<std::uint64_t> wit_;
  std::vector<std::size_t> frame_off_;  ///< first row of each frame
};

// ---------------------------------------------------------------------------
// 2-D packed fronts: the snapshot substrate.
// ---------------------------------------------------------------------------

/// Many (cost, damage) Pareto fronts packed into shared columns with
/// per-front spans, each point carrying its witness in a flat word
/// array.  The in-memory layout is plain contiguous arrays, and
/// to_bytes()/from_bytes() is a straight memcpy of those arrays behind a
/// small versioned header — the serialization substrate for result- and
/// subtree-cache snapshots (ROADMAP item 2).
class FrontSoaStore {
 public:
  /// Appends a front; returns its index.
  std::uint32_t add(const Front2d& f);

  std::size_t size() const { return meta_.size(); }
  std::size_t point_count() const { return xs_.size(); }

  /// Number of points of front \p i.
  std::size_t front_size(std::uint32_t i) const { return meta_[i].count; }

  /// Reconstructs front \p i (points + witnesses, same order).
  Front2d get(std::uint32_t i) const;

  /// Versioned binary image; from_bytes() returns nullopt on a
  /// truncated, corrupt, or version-mismatched image.
  std::string to_bytes() const;
  static std::optional<FrontSoaStore> from_bytes(const std::string& bytes);

  bool operator==(const FrontSoaStore&) const = default;

 private:
  struct Meta {
    std::uint64_t point_off = 0;  ///< first row in xs_/ys_
    std::uint64_t wit_off = 0;    ///< first word in wit_
    std::uint32_t count = 0;      ///< points in this front
    std::uint32_t nbits = 0;      ///< witness bit width
    bool operator==(const Meta&) const = default;
  };
  std::vector<double> xs_, ys_;        // cost / damage columns
  std::vector<std::uint64_t> wit_;     // packed witness words
  std::vector<Meta> meta_;
};

/// Union of two fronts, minimized: one linear merge pass over the two
/// sorted inputs (no re-sort — both are in (cost asc, damage asc) front
/// order, which is also (cost asc, damage desc) candidate order since
/// fronts hold at most one point per cost).  First witness wins on
/// value-equal points, `a` before `b`.
Front2d merge_fronts(const Front2d& a, const Front2d& b);

/// Minkowski sum of two fronts, minimized: all pairwise (cost + cost,
/// damage + damage) points with witnesses unioned — the 2-D AND-gate
/// composition of independent sub-AT fronts.
Front2d minkowski_fronts(const Front2d& a, const Front2d& b);

}  // namespace atcd
