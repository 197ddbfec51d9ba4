// The three workloads.  Each one generates its request lines from the
// seed and checks every response: serve_warm against references it
// solves and deep-checks during set-up, solve_cold and edit_session by
// deep-checking the first answer to each line when its segment ends and
// comparing every later answer with it by hash (the cache disposition
// normalised).
#include <algorithm>
#include <cmath>
#include <thread>

#include "api/json.hpp"
#include "engine/batch.hpp"
#include "gen.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "persist/snapshot.hpp"
#include "pipeline.hpp"

namespace perfbench {
namespace {

namespace api = atcd::api;
using atcd::Rng;
using atcd::engine::Problem;

/// Models up to this many BAS are also solved by the enumerative engine.
constexpr std::size_t kEnumerateMaxBas = 12;

/// Keeps the first few failure reasons for the report.
void note(std::vector<std::string>& problems, std::string what) {
  if (problems.size() < 8) problems.push_back(std::move(what));
}

Counts& operator+=(Counts& a, const Counts& b) {
  a.cache_hits += b.cache_hits;
  a.cache_misses += b.cache_misses;
  a.subtree_hits += b.subtree_hits;
  a.subtree_misses += b.subtree_misses;
  a.memo_hits += b.memo_hits;
  a.memo_misses += b.memo_misses;
  a.engine_solves += b.engine_solves;
  a.front_points += b.front_points;
  return a;
}

/// Request \p n of a traced replay: served untraced on \p plain and traced
/// on \p stack back to back, so both see the same host noise, in an order
/// that alternates with \p n so neither profits from the other's warm
/// caches throughout.  Returns the normalised traced answer; an untraced
/// answer that differs from it counts as a failure.
std::string replay(std::size_t n, api::Dispatcher& plain, TracedStack& stack,
                   const std::string& line, TraceResult& tr) {
  std::string untraced, traced;
  const auto untraced_call = [&] {
    const Clock::time_point t0 = Clock::now();
    untraced = serve_line(plain, line);
    tr.untraced_us.push_back(us_between(t0, Clock::now()));
  };
  const auto traced_call = [&] {
    const Clock::time_point t0 = Clock::now();
    traced = stack.handle(line, tr);
    tr.request_us.push_back(us_between(t0, Clock::now()));
  };
  if (n % 2) {
    untraced_call();
    traced_call();
  } else {
    traced_call();
    untraced_call();
  }
  std::string norm = normalise(traced);
  if (normalise(untraced) != norm) {
    ++tr.failed;
    note(tr.problems, "traced and untraced replays answer differently: " +
                          traced.substr(0, 160));
  }
  return norm;
}

/// The j-th of a stratified sequence of sizes over [lo, hi]: a Weyl
/// sequence, so every stretch of the stream covers the range evenly and
/// two seeds differ in the models' structure, not in their size mix.
std::size_t stratified(std::size_t j, std::size_t lo, std::size_t hi,
                       double phase) {
  const double u = std::fmod(phase + 0.6180339887498949 * static_cast<double>(j), 1.0);
  return lo + static_cast<std::size_t>(u * static_cast<double>(hi - lo + 1));
}

/// A model of about \p target nodes (within +-2, clipped to [lo, hi]).
GenModel sized_model(Rng& rng, std::size_t target, std::size_t lo,
                     std::size_t hi, bool dag, const std::string& prefix) {
  return random_model(rng, std::max(lo, target - std::min(target, std::size_t{2})),
                      std::min(hi, target + 2), dag, prefix);
}

/// Shared by the in-process workloads: one caller sends a long stream of
/// generated request lines in order.  The stream is cut into segments,
/// each served by a fresh Dispatcher, so the caches stay the size a
/// segment fills and every segment starts from the same state.  Each
/// measured window serves exactly one segment, so every window holds the
/// same mix of requests whichever windows the figures come from; windows
/// follow each other until they add up to the budget.  The caller runs
/// each window on the next of the process's CPUs in turn: on a shared
/// host each core's speed moves on its own, and a caller the scheduler
/// leaves on one core would measure that core.  Should a run
/// outlast the stream, it starts over and must answer identically.  Of
/// each line's first answer only a hash is kept, for those repeats and
/// the traced replay; the answers themselves are deep-checked when their
/// segment ends, outside the window, and then freed.
class StreamReplay : public Workload {
 public:
  RunResult run(const Budget& budget) override {
    RunResult out;
    first_.assign(lines_.size(), 0);
    std::vector<char> seen(lines_.size(), 0);
    const std::vector<int> cpus = allowed_cpus();
    std::size_t i = 0, segment = 0;
    double measured_s = 0.0;
    const auto done = [&] {
      return budget.requests ? out.attempted >= budget.requests
                             : measured_s >= budget.seconds;
    };
    while (!done()) {
      // Dispatcher turnover, the deep check and the stats op fall
      // between windows.
      if (!cpus.empty())
        pin_thread({cpus[out.rounds.size() % cpus.size()]});
      api::Dispatcher d;
      std::vector<std::string> answers;  ///< first answers of the segment
      Round round;
      round.begin();
      const Clock::time_point start = Clock::now();
      do {
        const Clock::time_point t0 = Clock::now();
        std::string resp = serve_line(d, lines_[i]);
        round.latency_us.push_back(us_between(t0, Clock::now()));
        ++out.attempted;
        std::string norm = normalise(resp);
        out.digest = fnv1a(out.digest, norm);
        const std::uint64_t h = fnv1a(kFnvOffset, norm);
        if (!seen[i]) {
          seen[i] = 1;
          first_[i] = h;
          answers.push_back(std::move(norm));
        } else if (h != first_[i]) {
          ++out.failed;
          note(out.problems, "request " + std::to_string(i) +
                                 " answered differently on a later pass");
        }
        i = (i + 1) % lines_.size();
      } while (!segment_start_[i] &&
               !(budget.requests && out.attempted >= budget.requests));
      round.elapsed_s = us_between(start, Clock::now()) * 1e-6;
      round.end();
      measured_s += round.elapsed_s;
      out.rounds.push_back(std::move(round));
      out.counts += stats_counts(d);
      if (!answers.empty()) check_segment(segment, answers, out);
      segment = i == 0 ? 0 : segment + 1;
    }
    if (!cpus.empty()) pin_thread(cpus);
    out.per_caller = {out.attempted};
    return out;
  }

  /// Replays exactly the requests the run served, each traced and
  /// untraced (see replay()), with the same segment turnover.
  TraceResult trace(const RunResult& run) override {
    TraceResult tr;
    std::unique_ptr<TracedStack> stack;
    std::unique_ptr<api::Dispatcher> plain;
    for (std::size_t n = 0, i = 0; n < run.attempted;
         ++n, i = (i + 1) % lines_.size()) {
      if (segment_start_[i]) {
        if (stack) stack->add_counts(tr.counts);
        stack = std::make_unique<TracedStack>();
        plain = std::make_unique<api::Dispatcher>();
      }
      const std::string norm = replay(n, *plain, *stack, lines_[i], tr);
      tr.digest = fnv1a(tr.digest, norm);
      if (fnv1a(kFnvOffset, norm) != first_[i]) {
        ++tr.failed;
        note(tr.problems, "traced request " + std::to_string(i) +
                              " differs from the measured run's answer");
      }
    }
    if (stack) stack->add_counts(tr.counts);
    return tr;
  }

  SetupFacts facts() const override {
    SetupFacts f;
    for (const std::string& line : lines_)
      f.request_bytes += static_cast<double>(line.size());
    return f;
  }

 protected:
  /// Deep-checks \p answers, the first answers to the leading lines of
  /// segment \p segment (all of them unless the run ended inside it);
  /// adds failures to \p out.
  virtual void check_segment(std::size_t segment,
                             const std::vector<std::string>& answers,
                             RunResult& out) = 0;

  /// Appends a request line; \p fresh starts a new segment with it.
  void add_line(std::string line, bool fresh) {
    segment_start_.push_back(lines_.empty() || fresh);
    lines_.push_back(std::move(line));
  }

  void clear_lines() {
    lines_.clear();
    segment_start_.clear();
  }

  /// Serves the first \p n lines on a throwaway Dispatcher so code and
  /// allocator are warm; the measured run starts on a fresh one.
  void warm_up(std::size_t n) {
    api::Dispatcher d;
    for (std::size_t i = 0; i < std::min(n, lines_.size()); ++i)
      serve_line(d, lines_[i]);
  }

  std::vector<std::string> lines_;
  std::vector<char> segment_start_;
  std::vector<std::uint64_t> first_;  ///< FNV-1a of each first answer
};

// ---------------------------------------------------------------------------
// solve_cold: engine-bound, every request a cache miss.
// ---------------------------------------------------------------------------

class SolveCold final : public StreamReplay {
 public:
  /// Distinct models in the stream: a run at the measured 600-900
  /// requests/s replays it several times, so only the first pass pays
  /// for the deep checks and every model weighs about the same.
  static constexpr std::size_t kStream = 4096;
  /// Requests per Dispatcher: the result cache never reaches its 4096
  /// entry budget, so a run measures inserts, not evictions.
  static constexpr std::size_t kSegment = 512;

  std::string setup(std::uint64_t seed) override {
    seed_ = seed;
    clear_lines();
    for (std::size_t k = 0; k * kSegment < kStream; ++k)
      generate(k, [&](std::size_t i, const ModelRef&, std::string line) {
        add_line(std::move(line), i % kSegment == 0);
      });
    warm_up(64);
    return "";
  }

 protected:
  /// Every witness is re-evaluated; models with few BAS are also solved
  /// by the enumerative engine.  The segment's models are generated
  /// again rather than kept, so the benchmark's own memory stays small.
  void check_segment(std::size_t segment,
                     const std::vector<std::string>& answers,
                     RunResult& out) override {
    generate(segment, [&](std::size_t i, const ModelRef& ref,
                          const std::string&) {
      const std::size_t j = i - segment * kSegment;
      if (j >= answers.size()) return;
      const bool small = ref.model->tree.bas_count() <= kEnumerateMaxBas;
      if (std::string err = check_solve_response(ref, answers[j], small);
          !err.empty()) {
        ++out.failed;
        note(out.problems, "request " + std::to_string(i) + ": " + err);
      }
    });
  }

 private:
  /// Calls \p f with each request of segment \p k in order; each segment
  /// draws from its own seeded Rng.  A fixed cycle of 16 request classes:
  /// every treelike problem twice (deterministic ones on 10-100 nodes,
  /// probabilistic ones on 10-60), three DAG DgC/CgD requests (10-30
  /// nodes) and one DAG CDPF (10-14 nodes).
  template <typename F>
  void generate(std::size_t k, F&& f) const {
    static constexpr Problem kTree[] = {Problem::Cdpf,  Problem::Dgc,
                                        Problem::Cgd,   Problem::Cedpf,
                                        Problem::Edgc,  Problem::Cged};
    Rng rng(seed_ * 0x9E3779B97F4A7C15ull + 0xC01D +
            k * 0xD1B54A32D192ED03ull);
    for (std::size_t i = k * kSegment;
         i < std::min(kStream, (k + 1) * kSegment); ++i) {
      const std::size_t slot = i % 16;
      const std::size_t cycle = i / 16;
      const double phase = 0.1 * static_cast<double>(slot);
      const std::string prefix = "m" + std::to_string(i) + "_";
      GenModel g;
      Problem p;
      if (slot < 12) {
        p = kTree[slot % 6];
        const std::size_t hi = atcd::engine::is_probabilistic(p) ? 60 : 100;
        g = sized_model(rng, stratified(cycle, 10, hi, phase), 10, hi, false,
                        prefix);
      } else if (slot < 15) {
        p = (slot == 12 || (slot == 14 && cycle % 2 == 0)) ? Problem::Dgc
                                                           : Problem::Cgd;
        g = sized_model(rng, stratified(cycle, 10, 30, phase), 10, 30, true,
                        prefix);
      } else {
        p = Problem::Cdpf;
        g = sized_model(rng, stratified(cycle, 10, 14, phase), 10, 14, true,
                        prefix);
      }
      ModelRef ref;
      ref.model = std::make_shared<atcd::CdpAt>(g.build());
      ref.problem = p;
      ref.bound = random_bound(rng, *ref.model, p);
      f(i, ref,
        solve_line("c" + std::to_string(i), p, ref.bound,
                   g.text(atcd::engine::is_probabilistic(p))));
    }
  }

  std::uint64_t seed_ = 0;
};

// ---------------------------------------------------------------------------
// edit_session: session memo and subtree cache, edits beside resolves.
// ---------------------------------------------------------------------------

class EditSession final : public StreamReplay {
 public:
  /// Sessions open at a time; the stream runs group after group, each
  /// group a segment of its own.
  static constexpr std::size_t kGroup = 16;
  static constexpr std::size_t kGroups = 16;
  static constexpr std::size_t kRounds = 16;
  static constexpr std::size_t kReplaceEvery = 16;

  std::string setup(std::uint64_t seed) override {
    seed_ = seed;
    clear_lines();
    for (std::size_t g = 0; g < kGroups; ++g) {
      Group group;
      if (std::string err = make_group(g, group); !err.empty()) return err;
      for (std::size_t j = 0; j < group.lines.size(); ++j)
        add_line(std::move(group.lines[j]), j == 0);
    }
    warm_up(64);
    return "";
  }

 protected:
  /// Every answer must be a success, and each session whose final
  /// resolve the run reached must match a from-scratch solve of the
  /// model as the benchmark edited it.  The group is generated again
  /// rather than kept.
  void check_segment(std::size_t segment,
                     const std::vector<std::string>& answers,
                     RunResult& out) override {
    Group group;
    make_group(segment, group);
    for (std::size_t j = 0; j < answers.size(); ++j) {
      const auto dec = api::decode_response(answers[j]);
      if (dec.code != api::ErrorCode::Ok ||
          dec.value.code != api::ErrorCode::Ok) {
        ++out.failed;
        note(out.problems, "group " + std::to_string(segment) + " line " +
                               std::to_string(j) + " failed: " +
                               answers[j].substr(0, 160));
      }
    }
    for (std::size_t s = 0; s < group.sessions.size(); ++s) {
      const Script& sc = group.sessions[s];
      if (sc.last_resolve >= answers.size()) continue;
      const auto dec = api::decode_response(answers[sc.last_resolve]);
      const auto* p = std::get_if<api::SolvePayload>(&dec.value.payload);
      std::string err = "final resolve carries no solve payload";
      if (p) {
        const atcd::CdAt det = sc.ref.model->deterministic();
        const auto in =
            sc.ref.problem == Problem::Edgc
                ? atcd::engine::Instance::of(sc.ref.problem, *sc.ref.model,
                                             sc.ref.bound)
                : atcd::engine::Instance::of(sc.ref.problem, det,
                                             sc.ref.bound);
        err = check_witnesses(sc.ref, *p);
        if (err.empty())
          err = check_against(sc.ref, *p, atcd::engine::solve_one(in));
      }
      if (!err.empty()) {
        ++out.failed;
        note(out.problems, "session " +
                               std::to_string(segment * kGroup + s) +
                               " final resolve: " + err);
      }
    }
  }

 private:
  struct Script {
    GenModel model;
    ModelRef ref;                 ///< problem, bound, final model
    std::size_t last_resolve = 0; ///< group line of the last resolve
  };

  /// One group's request lines and the sessions they drive.
  struct Group {
    std::vector<std::string> lines;
    std::vector<Script> sessions;
  };

  /// Generates group \p g from its own seeded Rng: kGroup opens, kRounds
  /// rounds of 1-4 leaf edits and a resolve per session (a
  /// replace-subtree every kReplaceEvery-th round), then a 1-D cost sweep
  /// and a close per session.
  std::string make_group(std::size_t g, Group& out) const {
    Rng rng(seed_ * 0x9E3779B97F4A7C15ull + 0xED17 +
            g * 0xD1B54A32D192ED03ull);
    // Each group has a fresh Dispatcher, which numbers the sessions from
    // 1 in open order.
    const auto id_of = [](std::size_t s) {
      return static_cast<std::uint64_t>(s + 1);
    };
    for (std::size_t s = 0; s < kGroup; ++s) {
      Script sc;
      const std::size_t n = g * kGroup + s;
      const std::string prefix = "s" + std::to_string(n) + "_";
      // CDPF stays at <= 150 nodes and EDgC at <= 120: an EDgC session
      // open measured 0.1-0.9 s at 150-200 nodes and 4-7 s (or a
      // front-size failure) at 250-290 nodes, and single EDgC sessions at
      // 140-150 nodes took 50-60 ms per resolve and raised the peak RSS
      // by 38 MB, so one such session set a seed's peak_rss_mb.
      const std::size_t kind = n % 3;
      sc.ref.problem = kind == 0 ? Problem::Dgc
                       : kind == 1 ? Problem::Edgc
                                   : Problem::Cdpf;
      const std::size_t hi = kind == 0 ? 400 : kind == 1 ? 120 : 150;
      sc.model = sized_model(rng, stratified(n / 3, 100, hi, 0.3 * kind), 100,
                             hi, false, prefix);
      // Budgets of 5-15% of the total cost: with the 20-60% budgets of
      // solve_cold, one resolve on these sizes measured 3-24 ms and a
      // single seed's sessions could grow a front past 500 MB.
      sc.ref.bound = sc.ref.problem == Problem::Cdpf
                         ? 0.0
                         : std::floor(0.25 * random_bound(rng, sc.model.build(),
                                                          Problem::Dgc));
      api::SessionOpenRequest open;
      open.spec.problem = sc.ref.problem;
      open.spec.bound = sc.ref.bound;
      open.spec.has_bound = sc.ref.problem != Problem::Cdpf;
      open.spec.model = sc.model.text(sc.ref.problem == Problem::Edgc);
      out.lines.push_back(encode_line(prefix + "open", std::move(open)));
      out.sessions.push_back(std::move(sc));
    }
    for (std::size_t r = 0; r < kRounds; ++r) {
      for (std::size_t s = 0; s < kGroup; ++s) {
        Script& sc = out.sessions[s];
        const std::string tag = "s" + std::to_string(g * kGroup + s) + "r" +
                                std::to_string(r) + "_";
        const bool prob = sc.ref.problem == Problem::Edgc;
        std::vector<int> leaves;
        for (int v : sc.model.reachable())
          if (sc.model.nodes[static_cast<std::size_t>(v)].type ==
              atcd::NodeType::BAS)
            leaves.push_back(v);
        const std::size_t edits = 1 + rng.below(4);
        for (std::size_t e = 0; e < edits; ++e) {
          GenModel::Node& leaf = sc.model.nodes[static_cast<std::size_t>(
              leaves[rng.below(leaves.size())])];
          api::SessionEditRequest edit;
          edit.session = id_of(s);
          edit.target = leaf.name;
          switch (rng.below(prob ? 3 : 2)) {
            case 0:
              edit.op = api::EditOp::SetCost;
              edit.value = leaf.cost = static_cast<double>(rng.range(1, 10));
              break;
            case 1:
              edit.op = api::EditOp::SetDamage;
              edit.value = leaf.damage = static_cast<double>(rng.range(0, 10));
              break;
            default:
              edit.op = api::EditOp::SetProb;
              edit.value = leaf.prob =
                  0.1 * static_cast<double>(rng.range(1, 10));
              break;
          }
          out.lines.push_back(
              encode_line(tag + "e" + std::to_string(e), std::move(edit)));
        }
        if (r % kReplaceEvery == kReplaceEvery - 1) {
          if (std::string err =
                  replace_line(sc.model, rng, id_of(s), tag, prob, out.lines);
              !err.empty())
            return err;
        }
        api::SessionResolveRequest resolve;
        resolve.session = id_of(s);
        sc.last_resolve = out.lines.size();
        out.lines.push_back(encode_line(tag + "resolve", resolve));
      }
    }
    for (std::size_t s = 0; s < kGroup; ++s) {
      Script& sc = out.sessions[s];
      const std::string prefix = "s" + std::to_string(g * kGroup + s) + "_";
      std::string leaf;
      for (int v : sc.model.reachable())
        if (sc.model.nodes[static_cast<std::size_t>(v)].type ==
            atcd::NodeType::BAS)
          leaf = sc.model.nodes[static_cast<std::size_t>(v)].name;
      api::AnalyzeSweepRequest sweep;
      sweep.problem = sc.ref.problem;
      sweep.axes = {"cost:" + leaf + ":1:10:4"};
      sweep.bound = sc.ref.bound;
      sweep.has_bound = sc.ref.problem != Problem::Cdpf;
      sweep.model = sc.model.text(sc.ref.problem == Problem::Edgc);
      out.lines.push_back(encode_line(prefix + "sweep", std::move(sweep)));
      api::SessionCloseRequest close;
      close.session = id_of(s);
      out.lines.push_back(encode_line(prefix + "close", close));
      sc.ref.model = std::make_shared<atcd::CdpAt>(sc.model.build());
      // The edit history lives in the lines; only the final model is
      // needed for the check.
      sc.model = GenModel{};
    }
    return "";
  }

  /// Appends to \p lines a replace-subtree edit swapping a random small
  /// gate (2-16 leaves) of \p model for a fresh subtree with as many
  /// leaves.
  static std::string replace_line(GenModel& model, Rng& rng, std::uint64_t id,
                                  const std::string& tag, bool prob,
                                  std::vector<std::string>& lines) {
    const std::vector<int> order = model.reachable();
    std::vector<std::size_t> leaves(model.nodes.size(), 0);
    std::vector<int> parent(model.nodes.size(), -1);
    std::vector<int> candidates;
    for (int v : order) {
      const auto& n = model.nodes[static_cast<std::size_t>(v)];
      if (n.type == atcd::NodeType::BAS) {
        leaves[static_cast<std::size_t>(v)] = 1;
        continue;
      }
      for (int c : n.kids) {
        leaves[static_cast<std::size_t>(v)] += leaves[static_cast<std::size_t>(c)];
        parent[static_cast<std::size_t>(c)] = v;
      }
      const std::size_t l = leaves[static_cast<std::size_t>(v)];
      if (v != model.root && l >= 2 && l <= 16) candidates.push_back(v);
    }
    if (candidates.empty()) return "edit_session: no subtree to replace";
    const int target = candidates[rng.below(candidates.size())];
    const int fresh = model.add_subtree(
        rng, leaves[static_cast<std::size_t>(target)], tag + "n");
    for (int& c : model.nodes[static_cast<std::size_t>(
             parent[static_cast<std::size_t>(target)])].kids)
      if (c == target) c = fresh;
    api::SessionEditRequest edit;
    edit.session = id;
    edit.op = api::EditOp::ReplaceSubtree;
    edit.target = model.nodes[static_cast<std::size_t>(target)].name;
    edit.model = model.text(fresh, prob);
    lines.push_back(encode_line(tag + "replace", std::move(edit)));
    return "";
  }

  std::uint64_t seed_ = 0;
};

// ---------------------------------------------------------------------------
// serve_warm: two TCP clients on a warm-restarted server, all cache hits.
// ---------------------------------------------------------------------------

class ServeWarm final : public Workload {
 public:
  static constexpr std::size_t kModels = 64;
  static constexpr Problem kProblems[] = {Problem::Dgc, Problem::Cdpf,
                                          Problem::Edgc, Problem::Cgd};
  static constexpr std::size_t kClients = 2;

  ~ServeWarm() override {
    server_.reset();  // drains and joins before the dispatcher goes
  }

  std::string setup(std::uint64_t seed) override {
    seed_ = seed;
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x5E7E);
    // Line index: (model * 4 + problem) * 2 + variant, variant 1 being a
    // renamed, child-permuted isomorph of variant 0.
    std::vector<ModelRef> refs;
    for (std::size_t k = 0; k < kModels; ++k) {
      const std::string prefix = "w" + std::to_string(k) + "_";
      // Sizes by zipf rank are fixed, so the hottest models weigh the
      // same under every seed.
      const GenModel g = sized_model(rng, stratified(k, 10, 60, 0.0), 10, 60,
                                     false, prefix);
      const GenModel iso = g.isomorph(rng, "i");
      const auto model = std::make_shared<atcd::CdpAt>(g.build());
      const auto iso_model = std::make_shared<atcd::CdpAt>(iso.build());
      for (std::size_t p = 0; p < 4; ++p) {
        const Problem problem = kProblems[p];
        const double bound = random_bound(rng, *model, problem);
        const bool prob = atcd::engine::is_probabilistic(problem);
        const std::string id = "w" + std::to_string(k) + "." + std::to_string(p);
        lines_.push_back(solve_line(id, problem, bound, g.text(prob)));
        lines_.push_back(solve_line(id + "i", problem, bound, iso.text(prob)));
        refs.push_back({model, problem, bound});
        refs.push_back({iso_model, problem, bound});
      }
    }
    double total = 0.0;
    for (std::size_t k = 0; k < kModels; ++k) {
      total += 1.0 / static_cast<double>(k + 1);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;

    // Cold-solve the originals, then the isomorphs (hits that remap the
    // witnesses); both are deep-checked and kept as references.
    api::Dispatcher cold;
    expected_.assign(lines_.size(), "");
    for (std::size_t variant = 0; variant < 2; ++variant)
      for (std::size_t i = variant; i < lines_.size(); i += 2) {
        const std::string resp = serve_line(cold, lines_[i]);
        const bool small = refs[i].model->tree.bas_count() <= kEnumerateMaxBas;
        if (std::string err = check_solve_response(refs[i], resp, small);
            !err.empty())
          return "serve_warm reference " + std::to_string(i) + ": " + err;
        expected_[i] = normalise(resp);
      }

    // Warm restart: snapshot the cold caches, load them into a fresh
    // dispatcher and serve from that.
    atcd::persist::SnapshotInfo info;
    Clock::time_point t0 = Clock::now();
    snapshot_ = atcd::persist::encode_snapshot(
        cold.service().cache(), cold.service().subtree_cache(), &info);
    facts_.persist_save_us = us_between(t0, Clock::now());
    facts_.snapshot_bytes = static_cast<double>(snapshot_.size());
    for (const std::string& line : lines_)
      facts_.request_bytes += static_cast<double>(line.size());
    warm_ = std::make_unique<api::Dispatcher>();
    t0 = Clock::now();
    std::string error;
    const auto status = atcd::persist::decode_snapshot(
        snapshot_, &warm_->service().cache(),
        &warm_->service().subtree_cache(), nullptr, &error);
    facts_.persist_load_us = us_between(t0, Clock::now());
    if (status != atcd::persist::LoadStatus::Ok)
      return std::string("serve_warm: snapshot load failed: ") +
             atcd::persist::to_string(status) + " " + error;

    atcd::net::ServerOptions opt;
    server_ = std::make_unique<atcd::net::Server>(*warm_, opt);
    if (!server_->start(&error)) return "serve_warm: server start: " + error;

    // Warm-up: every line once over the socket, each checked against its
    // reference, so the snapshot round trip is verified for all of them.
    atcd::net::Client c("127.0.0.1", server_->port(), &error);
    if (!c.valid()) return "serve_warm: connect: " + error;
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      std::string resp;
      if (!c.request(lines_[i], &resp)) return "serve_warm: warm-up transport";
      if (normalise(resp) != expected_[i])
        return "serve_warm: warm-up line " + std::to_string(i) +
               " differs from its reference after the snapshot load";
    }
    return "";
  }

  RunResult run(const Budget& budget) override {
    RunResult out;
    std::string error;
    atcd::net::Client control("127.0.0.1", server_->port(), &error);
    const Counts before = remote_counts(control);

    // Each caller keeps its connection and its request sequence across
    // the rounds; every round is a fresh start/stop of both.
    struct Caller {
      std::unique_ptr<atcd::net::Client> client;
      Rng rng;
      std::vector<double> latency_us;  ///< this round's
      std::size_t attempted = 0, failed = 0;
      std::uint64_t digest = kFnvOffset;
      std::vector<std::string> problems;
      bool broken = false;
    };
    std::vector<Caller> callers(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      callers[c].client = std::make_unique<atcd::net::Client>(
          "127.0.0.1", server_->port(), &error);
      callers[c].rng = caller_rng(c);
    }
    const auto body = [&](std::size_t c, Clock::time_point deadline,
                          std::size_t quota) {
      Caller& me = callers[c];
      std::string resp;
      while (!me.broken && me.attempted < quota) {
        const std::size_t i = pick(me.rng);
        const Clock::time_point t0 = Clock::now();
        const bool ok =
            me.client->valid() && me.client->request(lines_[i], &resp);
        const Clock::time_point t1 = Clock::now();
        ++me.attempted;
        if (!ok) {
          ++me.failed;
          me.broken = true;
          note(me.problems, "transport error on caller " + std::to_string(c));
          break;
        }
        me.latency_us.push_back(us_between(t0, t1));
        const std::string norm = normalise(resp);
        me.digest = fnv1a(me.digest, norm);
        if (norm != expected_[i]) {
          ++me.failed;
          note(me.problems, "line " + std::to_string(i) +
                                " differs from its reference: " +
                                resp.substr(0, 160));
        }
        if (t1 >= deadline) break;
      }
    };
    for (std::size_t r = 0; r < budget.windows(); ++r) {
      Round round;
      round.begin();
      const Clock::time_point start = Clock::now();
      const Clock::time_point deadline =
          budget.requests
              ? Clock::time_point::max()
              : start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                budget.round_seconds()));
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < kClients; ++c) {
        const std::size_t quota =
            budget.requests ? (budget.requests + kClients - 1 - c) / kClients
                            : SIZE_MAX;
        threads.emplace_back(body, c, deadline, quota);
      }
      for (auto& t : threads) t.join();
      round.elapsed_s = us_between(start, Clock::now()) * 1e-6;
      round.end();
      for (Caller& c : callers) {
        round.latency_us.insert(round.latency_us.end(), c.latency_us.begin(),
                                c.latency_us.end());
        c.latency_us.clear();
      }
      out.rounds.push_back(std::move(round));
    }

    for (Caller& c : callers) {
      out.attempted += c.attempted;
      out.failed += c.failed;
      out.per_caller.push_back(c.attempted);
      out.digest = fnv1a(out.digest, std::to_string(c.digest));
      for (auto& p : c.problems) note(out.problems, std::move(p));
    }
    const Counts after = remote_counts(control);
    out.counts.cache_hits = after.cache_hits - before.cache_hits;
    out.counts.cache_misses = after.cache_misses - before.cache_misses;
    out.counts.subtree_hits = after.subtree_hits - before.subtree_hits;
    out.counts.subtree_misses = after.subtree_misses - before.subtree_misses;
    return out;
  }

  /// Replays each caller's requests in process, traced and untraced (see
  /// replay()), on a TracedStack and a Dispatcher both loaded from the
  /// set-up snapshot.
  TraceResult trace(const RunResult& run) override {
    TraceResult tr;
    TracedStack stack;
    api::Dispatcher plain;
    std::string error;
    const auto load = [&](atcd::service::ResultCache& cache,
                          atcd::service::SubtreeCache& subtree) {
      return atcd::persist::decode_snapshot(snapshot_, &cache, &subtree,
                                            nullptr, &error) ==
             atcd::persist::LoadStatus::Ok;
    };
    if (!load(stack.cache(), stack.subtree()) ||
        !load(plain.service().cache(), plain.service().subtree_cache())) {
      ++tr.failed;
      note(tr.problems, "replay snapshot load failed: " + error);
      return tr;
    }
    for (std::size_t c = 0; c < run.per_caller.size(); ++c) {
      Rng rng = caller_rng(c);
      std::uint64_t digest = kFnvOffset;
      for (std::size_t n = 0; n < run.per_caller[c]; ++n) {
        const std::size_t i = pick(rng);
        const std::string norm = replay(n, plain, stack, lines_[i], tr);
        digest = fnv1a(digest, norm);
        if (norm != expected_[i]) {
          ++tr.failed;
          note(tr.problems, "traced line " + std::to_string(i) +
                                " differs from its reference");
        }
      }
      tr.digest = fnv1a(tr.digest, std::to_string(digest));
    }
    stack.add_counts(tr.counts);
    return tr;
  }

  SetupFacts facts() const override { return facts_; }

 private:
  Rng caller_rng(std::size_t c) const {
    return Rng(seed_ * 0xD1B54A32D192ED03ull + 0xCA11 + c);
  }

  /// Zipf(1/(k+1)) model, uniform problem, original or isomorph.
  std::size_t pick(Rng& rng) const {
    const double u = rng.uniform();
    const std::size_t k = static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    const std::size_t model = std::min(k, kModels - 1);
    return (model * 4 + rng.below(4)) * 2 + rng.below(2);
  }

  static Counts remote_counts(atcd::net::Client& control) {
    api::Request req;
    req.op = api::StatsRequest{};
    std::string resp;
    if (!control.valid() || !control.request(api::encode_request(req), &resp))
      return {};
    const auto dec = api::decode_response(resp);
    const auto* s = std::get_if<api::StatsPayload>(&dec.value.payload);
    return s ? stats_counts(*s) : Counts{};
  }

  std::uint64_t seed_ = 0;
  std::vector<std::string> lines_;
  std::vector<std::string> expected_;
  std::vector<double> cdf_;
  std::string snapshot_;
  SetupFacts facts_;
  std::unique_ptr<api::Dispatcher> warm_;
  std::unique_ptr<atcd::net::Server> server_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "solve_cold") return std::make_unique<SolveCold>();
  if (name == "serve_warm") return std::make_unique<ServeWarm>();
  if (name == "edit_session") return std::make_unique<EditSession>();
  return nullptr;
}

}  // namespace perfbench
