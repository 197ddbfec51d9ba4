#include "pipeline.hpp"

#include <exception>
#include <variant>

#include "analysis/sweep.hpp"
#include "api/json.hpp"
#include "at/parser.hpp"
#include "at/structure.hpp"
#include "engine/batch.hpp"

namespace perfbench {
namespace {

namespace api = atcd::api;
namespace service = atcd::service;
using atcd::engine::Problem;

/// Records the time from construction to destruction under one layer.
class Span {
 public:
  Span(TraceResult& tr, Layer layer)
      : tr_(tr), layer_(layer), t0_(Clock::now()) {}
  ~Span() { tr_.layer_us[layer_].push_back(us_between(t0_, Clock::now())); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  TraceResult& tr_;
  Layer layer_;
  Clock::time_point t0_;
};

/// Witness rendering as the Dispatcher does it for solve and resolve
/// responses.
api::SolvePayload render(const service::Response& r) {
  api::SolvePayload p;
  p.problem = r.problem;
  p.backend = r.result.backend;
  p.cache = r.cache_hit ? "hit" : r.coalesced ? "coalesced" : "miss";
  p.hash = r.model_hash;
  p.is_front = atcd::engine::is_front(r.problem);
  const atcd::AttackTree& tree = r.det ? r.det->tree : r.prob->tree;
  if (p.is_front) {
    p.points.reserve(r.result.front.size());
    for (const atcd::FrontPoint& fp : r.result.front)
      p.points.push_back({fp.value.cost, fp.value.damage,
                          atcd::attack_to_string(tree, fp.witness)});
  } else {
    const atcd::OptAttack& a = r.result.attack;
    p.feasible = a.feasible;
    if (a.feasible) {
      p.cost = a.cost;
      p.damage = a.damage;
      p.attack = atcd::attack_to_string(tree, a.witness);
    }
  }
  return p;
}

/// parse_model plus the typed model for \p problem.
void parse_typed(Problem problem, const std::string& text,
                 std::shared_ptr<const atcd::CdAt>* det,
                 std::shared_ptr<const atcd::CdpAt>* prob) {
  atcd::ParsedModel parsed = atcd::parse_model(text);
  if (atcd::engine::is_probabilistic(problem)) {
    auto m = std::make_shared<atcd::CdpAt>();
    m->tree = std::move(parsed.tree);
    m->cost = std::move(parsed.cost);
    m->damage = std::move(parsed.damage);
    m->prob = std::move(parsed.prob);
    m->validate();
    *prob = std::move(m);
  } else {
    auto m = std::make_shared<atcd::CdAt>();
    m->tree = std::move(parsed.tree);
    m->cost = std::move(parsed.cost);
    m->damage = std::move(parsed.damage);
    m->validate();
    *det = std::move(m);
  }
}

struct Failed {
  api::ErrorCode code;
  std::string message;
};

}  // namespace

std::string serve_line(api::Dispatcher& d, const std::string& line) {
  api::Decoded<api::Request> dec = api::decode_request(line);
  const api::Response r =
      dec.code == api::ErrorCode::Ok
          ? d.dispatch(dec.value)
          : api::error_response(dec.value.id, dec.code, dec.error);
  return api::encode_response(r, false);
}

Counts stats_counts(const api::StatsPayload& s) {
  Counts c;
  c.cache_hits = s.cache.hits;
  c.cache_misses = s.cache.misses;
  c.subtree_hits = s.subtree.hits;
  c.subtree_misses = s.subtree.misses;
  return c;
}

Counts stats_counts(api::Dispatcher& d) {
  api::Request req;
  req.op = api::StatsRequest{};
  const api::Response r = d.dispatch(req);
  return stats_counts(std::get<api::StatsPayload>(r.payload));
}

void TracedStack::add_counts(Counts& c) const {
  const auto cs = cache_.stats();
  const auto ss = subtree_.stats();
  c.cache_hits += cs.hits;
  c.cache_misses += cs.misses;
  c.subtree_hits += ss.hits;
  c.subtree_misses += ss.misses;
  c.memo_hits += closed_memo_.hits;
  c.memo_misses += closed_memo_.misses;
  for (const auto& [id, s] : sessions_) {
    const auto m = s->memo_stats();
    c.memo_hits += m.hits;
    c.memo_misses += m.misses;
  }
}

api::Payload TracedStack::solve(const api::SolveSpec& spec, TraceResult& tr) {
  std::shared_ptr<const atcd::CdAt> det;
  std::shared_ptr<const atcd::CdpAt> prob;
  {
    Span s(tr, kParse);
    parse_typed(spec.problem, spec.model, &det, &prob);
  }
  atcd::engine::Instance in;
  in.problem = spec.problem;
  in.det = det.get();
  in.prob = prob.get();
  in.bound = spec.bound;
  in.backend = spec.engine;
  std::optional<service::CacheKey> key;
  {
    Span s(tr, kHash);
    key = service::make_key(in);
  }
  if (!key) throw Failed{api::ErrorCode::InvalidArgument, "uncacheable"};
  service::Response r;
  r.problem = spec.problem;
  r.model_hash = key->model;
  r.det = det;
  r.prob = prob;
  std::optional<atcd::engine::SolveResult> hit;
  {
    Span s(tr, kLookup);
    hit = cache_.lookup(*key, det.get(), prob.get());
  }
  if (hit) {
    r.result = std::move(*hit);
    r.cache_hit = true;
  } else {
    {
      Span s(tr, kSolve);
      atcd::engine::BatchOptions opt;
      opt.subtree = &subtree_;
      r.result = atcd::engine::solve_one(in, opt);
    }
    ++tr.counts.engine_solves;
    if (!r.result.ok)
      throw Failed{api::ErrorCode::SolverFailure, r.result.error};
    Span s(tr, kInsert);
    cache_.insert(*key, det, prob, r.result);
  }
  tr.counts.front_points += r.result.front.size();
  Span s(tr, kRender);
  return render(r);
}

std::string TracedStack::handle(const std::string& line, TraceResult& tr) {
  api::Decoded<api::Request> dec;
  {
    Span s(tr, kDecode);
    dec = api::decode_request(line);
  }
  api::Response resp;
  resp.id = dec.value.id;
  try {
    if (dec.code != api::ErrorCode::Ok) throw Failed{dec.code, dec.error};
    const api::Operation& op = dec.value.op;
    if (const auto* r = std::get_if<api::SolveRequest>(&op)) {
      resp.payload = solve(r->spec, tr);
    } else if (const auto* r = std::get_if<api::SessionOpenRequest>(&op)) {
      service::Session::Options sopt;
      sopt.problem = r->spec.problem;
      sopt.bound = r->spec.bound;
      sopt.engine_name = r->spec.engine;
      sopt.shared = &subtree_;
      sopt.metrics = &registry_;
      std::unique_ptr<service::Session> session;
      {
        Span s(tr, kSessionOpen);
        session = std::make_unique<service::Session>(r->spec.model, sopt);
      }
      sessions_[next_session_] = std::move(session);
      resp.payload = api::SessionOpenedPayload{next_session_++};
    } else if (const auto* r = std::get_if<api::SessionEditRequest>(&op)) {
      const auto it = sessions_.find(r->session);
      if (it == sessions_.end())
        throw Failed{api::ErrorCode::NoSuchSession,
                     "no session " + std::to_string(r->session)};
      service::Session& session = *it->second;
      std::string err;
      {
        Span s(tr, kSessionEdit);
        switch (r->op) {
          case api::EditOp::SetCost: err = session.set_cost(r->target, r->value); break;
          case api::EditOp::SetProb: err = session.set_prob(r->target, r->value); break;
          case api::EditOp::SetDamage: err = session.set_damage(r->target, r->value); break;
          case api::EditOp::ToggleDefense: err = session.toggle_defense(r->target); break;
          case api::EditOp::ReplaceSubtree:
            err = session.replace_subtree(r->target, r->model);
            break;
        }
      }
      if (!err.empty()) throw Failed{api::ErrorCode::InvalidArgument, err};
      resp.payload = api::EditAppliedPayload{};
    } else if (const auto* r = std::get_if<api::SessionResolveRequest>(&op)) {
      const auto it = sessions_.find(r->session);
      if (it == sessions_.end())
        throw Failed{api::ErrorCode::NoSuchSession,
                     "no session " + std::to_string(r->session)};
      service::Response sr;
      {
        Span s(tr, kSessionResolve);
        sr = it->second->resolve();
      }
      ++tr.counts.engine_solves;
      if (!sr.result.ok)
        throw Failed{api::ErrorCode::SolverFailure, sr.result.error};
      tr.counts.front_points += sr.result.front.size();
      Span s(tr, kRender);
      resp.payload = render(sr);
    } else if (const auto* r = std::get_if<api::SessionCloseRequest>(&op)) {
      const auto it = sessions_.find(r->session);
      if (it == sessions_.end())
        throw Failed{api::ErrorCode::NoSuchSession,
                     "no session " + std::to_string(r->session)};
      const auto m = it->second->memo_stats();
      closed_memo_.hits += m.hits;
      closed_memo_.misses += m.misses;
      sessions_.erase(it);
      resp.payload = api::SessionClosedPayload{};
    } else if (const auto* r = std::get_if<api::AnalyzeSweepRequest>(&op)) {
      std::vector<atcd::analysis::Axis> axes;
      for (const std::string& spec : r->axes) {
        std::string err;
        const auto axis = atcd::analysis::parse_axis(spec, &err);
        if (!axis) throw Failed{api::ErrorCode::InvalidArgument, err};
        axes.push_back(*axis);
      }
      atcd::analysis::Options aopt;
      aopt.problem = r->problem;
      aopt.bound = r->has_bound ? r->bound : 0.0;
      aopt.engine_name = r->engine;
      aopt.batch.cache = &cache_;
      aopt.shared = &subtree_;
      std::shared_ptr<const atcd::CdAt> det;
      std::shared_ptr<const atcd::CdpAt> prob;
      {
        Span s(tr, kParse);
        parse_typed(r->problem, r->model, &det, &prob);
      }
      atcd::analysis::SweepResult result;
      {
        Span s(tr, kSweep);
        result = det ? atcd::analysis::sweep(*det, axes, aopt)
                     : atcd::analysis::sweep(*prob, axes, aopt);
      }
      tr.counts.engine_solves += result.cells.size();
      Span s(tr, kRender);
      resp.payload =
          api::AnalysisPayload{"sweep", atcd::analysis::to_table(result)};
    } else {
      throw Failed{api::ErrorCode::UnknownOperation,
                   std::string("traced path does not serve ") +
                       api::op_name(op)};
    }
  } catch (const Failed& f) {
    resp = api::error_response(dec.value.id, f.code, f.message);
  } catch (const std::exception& e) {
    resp = api::error_response(dec.value.id, api::ErrorCode::Internal, e.what());
  }
  Span s(tr, kEncode);
  return api::encode_response(resp, false);
}

}  // namespace perfbench
