/// Tests for the versioned typed API facade (src/api/): the JSON wire
/// codec (round-trip byte-stability, strict malformed-input handling),
/// dispatch parity across the envelope round trip for every operation,
/// pipelined out-of-order serving with request ids, the unified stats
/// counters, the structured shutdown responses, and the CLI exit-code
/// mapping.
///
/// The round-trip property and the malformed tables scale with
/// ATCD_FUZZ_ITERS (default 60; CI's nightly job raises it).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "api/dispatcher.hpp"
#include "api/json.hpp"
#include "api/server.hpp"
#include "util/rng.hpp"

namespace atcd {
namespace {

using namespace atcd::api;

std::size_t fuzz_iters() {
  if (const char* env = std::getenv("ATCD_FUZZ_ITERS"))
    return std::strtoull(env, nullptr, 10);
  return 60;
}

const char* kDetModel =
    "bas a cost=1 damage=2\n"
    "bas b cost=4 damage=1\n"
    "or r = a, b damage=10\n";

const char* kProbModel =
    "bas a cost=1 damage=2 prob=0.5\n"
    "bas b cost=4 damage=1 prob=0.25\n"
    "or r = a, b damage=10\n";

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

// ---------------------------------------------------------------------------
// JSON value layer.
// ---------------------------------------------------------------------------

TEST(Json, ParsesScalarsAndNesting) {
  json::Value v;
  std::string err;
  ASSERT_TRUE(json::parse("{\"a\":[1,2.5,-3e2],\"b\":{\"c\":true,"
                          "\"d\":null},\"e\":\"x\\ny\"}",
                          &v, &err))
      << err;
  ASSERT_EQ(v.kind, json::Value::Kind::Object);
  const json::Value* a = v.find("a");
  ASSERT_TRUE(a && a->kind == json::Value::Kind::Array);
  ASSERT_EQ(a->items.size(), 3u);
  EXPECT_EQ(a->items[0].number, 1.0);
  EXPECT_EQ(a->items[1].number, 2.5);
  EXPECT_EQ(a->items[2].number, -300.0);
  const json::Value* e = v.find("e");
  ASSERT_TRUE(e);
  EXPECT_EQ(e->string, "x\ny");
  // dump() is canonical and reparseable.
  const std::string dumped = json::dump(v);
  json::Value v2;
  ASSERT_TRUE(json::parse(dumped, &v2, &err)) << err;
  EXPECT_EQ(json::dump(v2), dumped);
}

TEST(Json, EscapesRoundTrip) {
  json::Value v;
  v.kind = json::Value::Kind::String;
  v.string = "quote\" back\\ nl\n tab\t ctl\x01 utf\xC3\xA9";
  const std::string dumped = json::dump(v);
  json::Value v2;
  std::string err;
  ASSERT_TRUE(json::parse(dumped, &v2, &err)) << err;
  EXPECT_EQ(v2.string, v.string);
  EXPECT_EQ(json::dump(v2), dumped);
}

TEST(Json, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",          "{",           "[1,2",        "{\"a\":}",
      "nullx",     "tru",         "01x",         "\"unterminated",
      "\"\\u12\"", "\"\\ud800\"", "{\"a\":1,}",  "[1 2]",
      "{\"a\" 1}", "1 2",         "\"a\"junk",   "{\"a\":1}}",
  };
  for (const char* text : bad) {
    json::Value v;
    std::string err;
    EXPECT_FALSE(json::parse(text, &v, &err)) << text;
    EXPECT_FALSE(err.empty()) << text;
  }
  // Depth cap: garbage nesting cannot blow the stack.
  std::string deep(512, '[');
  json::Value v;
  std::string err;
  EXPECT_FALSE(json::parse(deep, &v, &err));
}

// ---------------------------------------------------------------------------
// Error taxonomy.
// ---------------------------------------------------------------------------

TEST(ErrorTaxonomy, WireStringsRoundTrip) {
  for (ErrorCode c :
       {ErrorCode::Ok, ErrorCode::MalformedRequest,
        ErrorCode::UnsupportedVersion, ErrorCode::UnknownOperation,
        ErrorCode::InvalidArgument, ErrorCode::ParseError,
        ErrorCode::ModelError, ErrorCode::NoSuchSession, ErrorCode::Capacity,
        ErrorCode::SolverFailure, ErrorCode::Internal}) {
    const auto back = parse_error_code(to_string(c));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, c);
  }
  EXPECT_FALSE(parse_error_code("nope").has_value());
}

TEST(ErrorTaxonomy, ExitCodesAreDeterministic) {
  EXPECT_EQ(exit_code(ErrorCode::Ok), 0);
  // Usage-class failures exit 2.
  EXPECT_EQ(exit_code(ErrorCode::MalformedRequest), 2);
  EXPECT_EQ(exit_code(ErrorCode::UnknownOperation), 2);
  EXPECT_EQ(exit_code(ErrorCode::InvalidArgument), 2);
  EXPECT_EQ(exit_code(ErrorCode::NoSuchSession), 2);
  // Model-class failures exit 3.
  EXPECT_EQ(exit_code(ErrorCode::ParseError), 3);
  EXPECT_EQ(exit_code(ErrorCode::ModelError), 3);
  // Solver-class failures exit 4.
  EXPECT_EQ(exit_code(ErrorCode::SolverFailure), 4);
  EXPECT_EQ(exit_code(ErrorCode::Capacity), 4);
  EXPECT_EQ(exit_code(ErrorCode::Internal), 4);
}

// ---------------------------------------------------------------------------
// Request round-trip property: encode -> decode -> encode is
// byte-stable over random requests (the nightly CI check).
// ---------------------------------------------------------------------------

std::string random_text(Rng& rng, std::size_t max_len) {
  static const char* pool[] = {"a", "b",  "Z", "0",  "_",  " ",  ":",
                               "\n", "\t", "\"", "\\", "{",  "}",
                               "\xC3\xA9" /* é */, "\xE2\x82\xAC" /* € */,
                               "\x01", "\x1f"};
  std::string out;
  const std::size_t len = rng.below(max_len + 1);
  for (std::size_t i = 0; i < len; ++i)
    out += pool[rng.below(sizeof pool / sizeof pool[0])];
  return out;
}

double random_double(Rng& rng) {
  switch (rng.below(5)) {
    case 0: return 0.0;
    case 1: return static_cast<double>(rng.range(-1000, 1000));
    case 2: return rng.uniform(-10.0, 10.0);
    case 3: return rng.uniform() * 1e-9;
    default: return rng.uniform() * 1e12;
  }
}

engine::Problem random_problem(Rng& rng) {
  const engine::Problem all[] = {engine::Problem::Cdpf, engine::Problem::Dgc,
                                 engine::Problem::Cgd, engine::Problem::Cedpf,
                                 engine::Problem::Edgc, engine::Problem::Cged};
  return all[rng.below(6)];
}

SolveSpec random_spec(Rng& rng) {
  SolveSpec s;
  s.problem = random_problem(rng);
  if (rng.chance(0.5)) {
    s.bound = random_double(rng);
    s.has_bound = true;
  }
  if (rng.chance(0.4)) s.engine = random_text(rng, 12);
  s.model = random_text(rng, 64);
  return s;
}

Request random_request(Rng& rng) {
  Request req;
  if (rng.chance(0.8)) req.id = random_text(rng, 16);
  switch (rng.below(13)) {
    case 0: req.op = SolveRequest{random_spec(rng)}; break;
    case 1: {
      BatchRequest b;
      if (rng.chance(0.5)) b.threads = rng.below(16);
      const std::size_t n = rng.below(4);
      for (std::size_t i = 0; i < n; ++i) b.items.push_back(random_spec(rng));
      req.op = std::move(b);
      break;
    }
    case 2: req.op = SessionOpenRequest{random_spec(rng)}; break;
    case 3: {
      SessionEditRequest e;
      e.session = rng.below(1u << 20);
      e.op = static_cast<EditOp>(rng.below(5));
      e.target = random_text(rng, 12);
      if (e.op == EditOp::SetCost || e.op == EditOp::SetProb ||
          e.op == EditOp::SetDamage)
        e.value = random_double(rng);
      if (e.op == EditOp::ReplaceSubtree) e.model = random_text(rng, 40);
      req.op = std::move(e);
      break;
    }
    case 4: req.op = SessionResolveRequest{rng.below(1u << 20)}; break;
    case 5: req.op = SessionCloseRequest{rng.below(1u << 20)}; break;
    case 6: {
      AnalyzeSweepRequest a;
      a.problem = random_problem(rng);
      const std::size_t n = rng.below(3);
      for (std::size_t i = 0; i < n; ++i)
        a.axes.push_back(random_text(rng, 20));
      if (rng.chance(0.5)) {
        a.bound = random_double(rng);
        a.has_bound = true;
      }
      if (rng.chance(0.4)) a.engine = random_text(rng, 8);
      a.model = random_text(rng, 64);
      req.op = std::move(a);
      break;
    }
    case 7: {
      AnalyzeSensitivityRequest a;
      a.problem = random_problem(rng);
      if (rng.chance(0.5)) {
        a.step = rng.uniform(1e-6, 10.0);
        a.has_step = true;
      }
      if (rng.chance(0.4)) a.engine = random_text(rng, 8);
      a.model = random_text(rng, 64);
      req.op = std::move(a);
      break;
    }
    case 8: {
      AnalyzePortfolioRequest a;
      a.problem = random_problem(rng);
      const std::size_t n = rng.below(3);
      for (std::size_t i = 0; i < n; ++i)
        a.defenses.push_back(random_text(rng, 20));
      if (rng.chance(0.5)) {
        a.budget = rng.uniform(0.0, 1e6);
        a.has_budget = true;
      }
      if (rng.chance(0.5)) {
        a.bound = random_double(rng);
        a.has_bound = true;
      }
      if (rng.chance(0.4)) a.engine = random_text(rng, 8);
      a.model = random_text(rng, 64);
      req.op = std::move(a);
      break;
    }
    case 9: req.op = StatsRequest{}; break;
    case 10: req.op = SnapshotSaveRequest{random_text(rng, 24)}; break;
    case 11: req.op = SnapshotLoadRequest{random_text(rng, 24)}; break;
    default: req.op = ShutdownRequest{}; break;
  }
  return req;
}

TEST(JsonCodec, RequestRoundTripIsByteStable) {
  Rng rng(20260729);
  const std::size_t iters = fuzz_iters();
  for (std::size_t i = 0; i < iters; ++i) {
    const Request req = random_request(rng);
    const std::string once = encode_request(req);
    const Decoded<Request> dec = decode_request(once);
    ASSERT_EQ(dec.code, ErrorCode::Ok)
        << "iter " << i << ": " << dec.error << "\n" << once;
    EXPECT_EQ(dec.value.id, req.id);
    EXPECT_EQ(dec.value.op.index(), req.op.index());
    const std::string twice = encode_request(dec.value);
    ASSERT_EQ(once, twice) << "iter " << i;
  }
}

TEST(JsonCodec, NumericIdsAreAccepted) {
  const Decoded<Request> dec =
      decode_request("{\"v\":1,\"id\":42,\"op\":\"stats\"}");
  ASSERT_EQ(dec.code, ErrorCode::Ok) << dec.error;
  EXPECT_EQ(dec.value.id, "42");
}

// ---------------------------------------------------------------------------
// Response round-trip through the codec.
// ---------------------------------------------------------------------------

TEST(JsonCodec, ResponseRoundTripIsByteStable) {
  Dispatcher d;
  std::vector<Request> reqs;
  Request r;
  r.id = "front";
  r.op = SolveRequest{{engine::Problem::Cdpf, 0.0, false, "", kDetModel}};
  reqs.push_back(r);
  r.id = "attack";
  r.op = SolveRequest{{engine::Problem::Dgc, 2.0, true, "", kDetModel}};
  reqs.push_back(r);
  r.id = "err";
  r.op = SolveRequest{{engine::Problem::Cdpf, 0.0, false, "", "garbage!"}};
  reqs.push_back(r);
  r.id = "open";
  r.op = SessionOpenRequest{{engine::Problem::Dgc, 5.0, true, "", kDetModel}};
  reqs.push_back(r);
  r.id = "edit";
  r.op = SessionEditRequest{1, EditOp::SetCost, "a", 3.0, ""};
  reqs.push_back(r);
  r.id = "resolve";
  r.op = SessionResolveRequest{1};
  reqs.push_back(r);
  r.id = "close";
  r.op = SessionCloseRequest{1};
  reqs.push_back(r);
  r.id = "sweep";
  {
    AnalyzeSweepRequest a;
    a.problem = engine::Problem::Dgc;
    a.axes = {"cost:a:1:3:3"};
    a.bound = 5.0;
    a.has_bound = true;
    a.model = kDetModel;
    r.op = std::move(a);
  }
  reqs.push_back(r);
  r.id = "batch";
  {
    BatchRequest b;
    b.items.push_back({engine::Problem::Cdpf, 0.0, false, "", kDetModel});
    b.items.push_back({engine::Problem::Cdpf, 0.0, false, "", "broken"});
    r.op = std::move(b);
  }
  reqs.push_back(r);
  r.id = "stats";
  r.op = StatsRequest{};
  reqs.push_back(r);

  for (const Request& req : reqs) {
    const Response resp = d.dispatch(req);
    for (const bool with_micros : {false, true}) {
      const std::string once = encode_response(resp, with_micros);
      const Decoded<Response> dec = decode_response(once);
      ASSERT_EQ(dec.code, ErrorCode::Ok)
          << req.id << ": " << dec.error << "\n" << once;
      EXPECT_EQ(dec.value.id, resp.id);
      EXPECT_EQ(dec.value.code, resp.code);
      const std::string twice = encode_response(dec.value, with_micros);
      EXPECT_EQ(once, twice) << req.id;
    }
  }
}

// ---------------------------------------------------------------------------
// Envelope parity: every operation round-trips through the v1 JSON
// envelope and produces the identical response on a fresh dispatcher.
// ---------------------------------------------------------------------------

TEST(Parity, EveryOpRoundTripsTheEnvelopeWithIdenticalResults) {
  const std::string model = kDetModel;
  std::vector<Request> reqs;
  const auto add = [&](Operation op) {
    Request r;
    r.op = std::move(op);
    reqs.push_back(std::move(r));
  };
  add(SolveRequest{{engine::Problem::Cdpf, 0.0, false, "", model}});
  add(SolveRequest{{engine::Problem::Dgc, 2.0, true, "enumerative", model}});
  add(SolveRequest{{engine::Problem::Cedpf, 0.0, false, "", kProbModel}});
  add(SessionOpenRequest{{engine::Problem::Dgc, 5.0, true, "", model}});
  add(SessionEditRequest{1, EditOp::SetCost, "a", 3.0, ""});
  add(SessionEditRequest{1, EditOp::ToggleDefense, "b", 0.0, ""});
  add(SessionResolveRequest{1});
  add(SessionEditRequest{1, EditOp::ReplaceSubtree, "b", 0.0,
                         "bas b2 cost=2 damage=4\n"});
  add(SessionResolveRequest{1});
  add(SessionCloseRequest{1});
  {
    AnalyzeSweepRequest a;
    a.problem = engine::Problem::Dgc;
    a.axes = {"cost:a:1:3:3"};
    a.bound = 5.0;
    a.has_bound = true;
    a.model = model;
    add(std::move(a));
  }
  {
    AnalyzeSensitivityRequest a;
    a.problem = engine::Problem::Cdpf;
    a.step = 0.1;
    a.has_step = true;
    a.model = model;
    add(std::move(a));
  }
  {
    AnalyzePortfolioRequest a;
    a.problem = engine::Problem::Dgc;
    a.defenses = {"cam:1:a", "lock:2:b"};
    a.budget = 3.0;
    a.has_budget = true;
    a.bound = 5.0;
    a.has_bound = true;
    a.model = model;
    add(std::move(a));
  }
  add(StatsRequest{});
  ASSERT_EQ(reqs.size(), 14u);

  // Side A dispatches the typed requests directly; side B first pushes
  // each request through the JSON envelope (encode -> decode) and then
  // dispatches on its own fresh dispatcher.  Byte-identical responses
  // (timing excluded) prove the envelope loses nothing.
  Dispatcher direct_side;
  Dispatcher json_side;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Response a = direct_side.dispatch(reqs[i]);
    const Decoded<Request> dec = decode_request(encode_request(reqs[i]));
    ASSERT_EQ(dec.code, ErrorCode::Ok) << dec.error;
    const Response b = json_side.dispatch(dec.value);
    EXPECT_EQ(encode_response(a, false), encode_response(b, false))
        << "request " << i;
    EXPECT_EQ(a.code, ErrorCode::Ok) << "request " << i << ": " << a.error;
  }

  // Spot-check substance: the first request really produced a front.
  Dispatcher fresh;
  const Response front = fresh.dispatch(reqs[0]);
  ASSERT_TRUE(std::holds_alternative<SolvePayload>(front.payload));
  EXPECT_GT(std::get<SolvePayload>(front.payload).points.size(), 1u);
}

// ---------------------------------------------------------------------------
// Malformed-request handling: every bad input yields a typed error,
// never a crash or a silent drop, and the serving loops keep going.
// ---------------------------------------------------------------------------

TEST(Malformed, JsonRequestsGetTypedErrors) {
  const struct {
    const char* text;
    ErrorCode expect;
  } table[] = {
      {"", ErrorCode::MalformedRequest},
      {"{", ErrorCode::MalformedRequest},
      {"null", ErrorCode::MalformedRequest},
      {"[]", ErrorCode::MalformedRequest},
      {"\"solve\"", ErrorCode::MalformedRequest},
      {"{}", ErrorCode::MalformedRequest},
      {"{\"op\":\"stats\"}", ErrorCode::MalformedRequest},
      {"{\"v\":1}", ErrorCode::MalformedRequest},
      {"{\"v\":\"1\",\"op\":\"stats\"}", ErrorCode::UnsupportedVersion},
      {"{\"v\":2,\"op\":\"stats\"}", ErrorCode::UnsupportedVersion},
      {"{\"v\":1,\"op\":\"frobnicate\"}", ErrorCode::UnknownOperation},
      {"{\"v\":1,\"op\":\"solve\"}", ErrorCode::InvalidArgument},
      {"{\"v\":1,\"op\":\"solve\",\"problem\":\"zzz\",\"model\":\"\"}",
       ErrorCode::InvalidArgument},
      {"{\"v\":1,\"op\":\"solve\",\"problem\":\"cdpf\",\"model\":7}",
       ErrorCode::InvalidArgument},
      {"{\"v\":1,\"op\":\"solve\",\"problem\":\"cdpf\",\"model\":\"\","
       "\"bound\":\"x\"}",
       ErrorCode::InvalidArgument},
      {"{\"v\":1,\"op\":\"solve\",\"problem\":\"cdpf\",\"model\":\"\","
       "\"junk\":1}",
       ErrorCode::InvalidArgument},
      {"{\"v\":1,\"op\":\"edit\",\"session\":-1,\"edit\":\"set-cost\","
       "\"target\":\"a\",\"value\":1}",
       ErrorCode::InvalidArgument},
      {"{\"v\":1,\"op\":\"edit\",\"session\":1,\"edit\":\"warp\","
       "\"target\":\"a\"}",
       ErrorCode::InvalidArgument},
      {"{\"v\":1,\"op\":\"edit\",\"session\":1,\"edit\":\"set-cost\","
       "\"target\":\"a\"}",
       ErrorCode::InvalidArgument},
      {"{\"v\":1,\"op\":\"edit\",\"session\":1,\"edit\":\"toggle-defense\","
       "\"target\":\"a\",\"value\":3}",
       ErrorCode::InvalidArgument},
      {"{\"v\":1,\"op\":\"resolve\"}", ErrorCode::InvalidArgument},
      {"{\"v\":1,\"op\":\"sweep\",\"problem\":\"dgc\",\"model\":\"\"}",
       ErrorCode::InvalidArgument},
      {"{\"v\":1,\"op\":\"sensitivity\",\"problem\":\"cdpf\","
       "\"model\":\"\",\"step\":-1}",
       ErrorCode::InvalidArgument},
      {"{\"v\":1,\"op\":\"portfolio\",\"problem\":\"dgc\",\"model\":\"\","
       "\"defenses\":[1]}",
       ErrorCode::InvalidArgument},
      {"{\"v\":1,\"op\":\"quit\",\"id\":[1]}", ErrorCode::MalformedRequest},
  };
  for (const auto& row : table) {
    const Decoded<Request> dec = decode_request(row.text);
    EXPECT_EQ(dec.code, row.expect) << row.text << " -> " << dec.error;
    EXPECT_NE(dec.code, ErrorCode::Ok) << row.text;
  }
}

TEST(Malformed, DispatcherValidatesArgumentsOnEveryTransport) {
  // The wire codecs reject these too, but CLI and programmatic
  // api::Request callers reach the dispatcher directly — semantic
  // argument validation must live behind every transport.
  Dispatcher d;
  Request r;
  {
    AnalyzeSensitivityRequest a;
    a.problem = engine::Problem::Cdpf;
    a.step = -1.0;
    a.has_step = true;
    a.model = kDetModel;
    r.op = std::move(a);
  }
  EXPECT_EQ(d.dispatch(r).code, ErrorCode::InvalidArgument);
  {
    AnalyzePortfolioRequest a;
    a.problem = engine::Problem::Dgc;
    a.defenses = {"cam:1:a"};
    a.budget = -3.0;
    a.has_budget = true;
    a.model = kDetModel;
    r.op = std::move(a);
  }
  EXPECT_EQ(d.dispatch(r).code, ErrorCode::InvalidArgument);
  r.op = SolveRequest{{engine::Problem::Dgc,
                       std::numeric_limits<double>::quiet_NaN(), true, "",
                       kDetModel}};
  EXPECT_EQ(d.dispatch(r).code, ErrorCode::InvalidArgument);
  // An infinite solve bound stays legal: an unbounded DgC budget is a
  // meaningful instance (the cache simply declines such keys).
  r.op = SolveRequest{{engine::Problem::Dgc,
                       std::numeric_limits<double>::infinity(), true, "",
                       kDetModel}};
  EXPECT_EQ(d.dispatch(r).code, ErrorCode::Ok);
}

TEST(Malformed, NonFiniteNumbersNeverSilentlyReachTheWire) {
  // encode_request renders a non-finite optional number as JSON null;
  // the decoder then rejects the field with a typed error instead of
  // the server silently optimizing under an inverted value.
  AnalyzePortfolioRequest a;
  a.problem = engine::Problem::Dgc;
  a.defenses = {"cam:1:a"};
  a.budget = std::numeric_limits<double>::infinity();
  a.has_budget = true;
  a.model = kDetModel;
  Request r;
  r.op = std::move(a);
  const std::string wire = encode_request(r);
  EXPECT_NE(wire.find("\"budget\":null"), std::string::npos) << wire;
  const Decoded<Request> dec = decode_request(wire);
  EXPECT_EQ(dec.code, ErrorCode::InvalidArgument);
}

TEST(Malformed, NonFiniteDecorationsAreModelErrors) {
  // The parser reads "inf" and "nan" like std::stod does; validation
  // must reject them before an engine answers with a null on the wire.
  const struct {
    engine::Problem problem;
    const char* model;
    const char* error;
  } table[] = {
      {engine::Problem::Dgc, "bas a cost=1 damage=inf\nor top = a\n",
       "cd-AT: damages must be finite"},
      {engine::Problem::Cdpf, "bas a cost=inf damage=1\nor top = a\n",
       "cd-AT: costs must be finite"},
      {engine::Problem::Cgd, "bas a cost=1\nor top = a damage=INFINITY\n",
       "cd-AT: damages must be finite"},
      {engine::Problem::Cedpf,
       "bas a cost=1e308 prob=0.5\nbas b cost=inf\nor top = a, b\n",
       "cd-AT: costs must be finite"},
      // NaN and negative values keep their existing messages.
      {engine::Problem::Cdpf, "bas a cost=nan\nor top = a\n",
       "cd-AT: costs must be >= 0"},
      {engine::Problem::Cdpf, "bas a cost=-inf\nor top = a\n",
       "cd-AT: costs must be >= 0"},
      {engine::Problem::Dgc, "bas a damage=-1\nor top = a\n",
       "cd-AT: damages must be >= 0"},
  };
  Dispatcher d;
  for (const auto& row : table) {
    Request r;
    r.op = SolveRequest{{row.problem, 1.0,
                         row.problem == engine::Problem::Dgc ||
                             row.problem == engine::Problem::Cgd,
                         "", row.model}};
    const Response resp = d.dispatch(r);
    EXPECT_EQ(resp.code, ErrorCode::ModelError) << row.model;
    EXPECT_EQ(resp.error, row.error) << row.model;
    const std::string wire = encode_response(resp, false);
    EXPECT_EQ(wire.find("null"), std::string::npos) << wire;
  }
}

TEST(Malformed, FuzzedJsonNeverCrashesTheDecoder) {
  // Truncations and mutations of a valid request: every outcome must be
  // a clean decode or a typed error — never a crash.
  const std::string valid =
      "{\"v\":1,\"id\":\"7\",\"op\":\"solve\",\"problem\":\"cdpf\","
      "\"bound\":1.5,\"model\":\"bas a cost=1\\n\"}";
  for (std::size_t cut = 0; cut < valid.size(); ++cut)
    (void)decode_request(valid.substr(0, cut));
  Rng rng(42);
  const std::size_t iters = fuzz_iters();
  for (std::size_t i = 0; i < iters; ++i) {
    std::string mutated = valid;
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t k = 0; k < flips; ++k)
      mutated[rng.below(mutated.size())] =
          static_cast<char>(rng.below(256));
    (void)decode_request(mutated);  // must not crash or throw
  }
  SUCCEED();
}

TEST(Malformed, JsonServeAnswersEveryLineAndKeepsGoing) {
  Dispatcher d;
  std::string script;
  script += "{\n";  // malformed: multi-line JSON is not a request
  script += "garbage\n";
  script += "{\"v\":1,\"id\":\"bad\",\"op\":\"nope\"}\n";
  script += "{\"v\":9,\"id\":\"ver\",\"op\":\"stats\"}\n";
  // A valid request after the garbage still works.
  Request solve;
  solve.id = "ok1";
  solve.op = SolveRequest{{engine::Problem::Cdpf, 0.0, false, "", kDetModel}};
  script += encode_request(solve) + "\n";
  // Model-level failures are typed, not crashes.
  Request bad_model;
  bad_model.id = "pe";
  bad_model.op =
      SolveRequest{{engine::Problem::Cdpf, 0.0, false, "", "garbage!"}};
  script += encode_request(bad_model) + "\n";
  Request bad_decor;
  bad_decor.id = "me";
  bad_decor.op = SolveRequest{
      {engine::Problem::Cdpf, 0.0, false, "", "bas a cost=-1 damage=2\n"}};
  script += encode_request(bad_decor) + "\n";
  // Analysis arguments the dispatcher rejects: a bad sweep axis and a
  // portfolio over a problem without a budget.
  Request bad_axis;
  bad_axis.id = "axis";
  {
    AnalyzeSweepRequest a;
    a.problem = engine::Problem::Dgc;
    a.axes = {"zzz"};
    a.bound = 1.0;
    a.has_bound = true;
    a.model = "bas a cost=1 damage=1\n";
    bad_axis.op = std::move(a);
  }
  script += encode_request(bad_axis) + "\n";
  Request bad_portfolio;
  bad_portfolio.id = "pf";
  {
    AnalyzePortfolioRequest a;
    a.problem = engine::Problem::Cdpf;
    a.defenses = {"cam:1:a"};
    a.model = "bas a cost=1 damage=1\n";
    bad_portfolio.op = std::move(a);
  }
  script += encode_request(bad_portfolio) + "\n";
  script += "{\"v\":1,\"id\":\"q\",\"op\":\"quit\"}\n";

  std::istringstream in(script);
  std::ostringstream out;
  const std::size_t handled = serve_json(in, out, d);
  EXPECT_EQ(handled, 3u);  // the three dispatched solves

  const std::vector<std::string> lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 10u);  // one response per input line + shutdown
  std::map<std::string, ErrorCode> by_id;
  std::map<std::string, std::string> error_by_id;
  for (const std::string& line : lines) {
    const Decoded<Response> dec = decode_response(line);
    ASSERT_EQ(dec.code, ErrorCode::Ok) << line;
    by_id[dec.value.id] = dec.value.code;
    error_by_id[dec.value.id] = dec.value.error;
  }
  EXPECT_EQ(by_id["bad"], ErrorCode::UnknownOperation);
  EXPECT_EQ(by_id["ver"], ErrorCode::UnsupportedVersion);
  EXPECT_EQ(by_id["ok1"], ErrorCode::Ok);
  EXPECT_EQ(by_id["pe"], ErrorCode::ParseError);
  EXPECT_EQ(by_id["me"], ErrorCode::ModelError);
  EXPECT_EQ(by_id["axis"], ErrorCode::InvalidArgument);
  EXPECT_NE(error_by_id["axis"].find("bad axis"), std::string::npos);
  EXPECT_EQ(by_id["pf"], ErrorCode::InvalidArgument);
  EXPECT_EQ(error_by_id["pf"], "analyze portfolio takes dgc or edgc");
  EXPECT_EQ(by_id["q"], ErrorCode::Ok);  // the shutdown response
  // The last line is the structured shutdown echoing the quit id.
  const Decoded<Response> last = decode_response(lines.back());
  ASSERT_TRUE(std::holds_alternative<ShutdownPayload>(last.value.payload));
  EXPECT_EQ(last.value.id, "q");
  EXPECT_EQ(std::get<ShutdownPayload>(last.value.payload).handled, 3u);
}

// ---------------------------------------------------------------------------
// Pipelined serving: out-of-order completion matched by request id,
// byte-identical across thread counts.
// ---------------------------------------------------------------------------

std::string pipelined_script(std::size_t n, std::vector<std::string>* ids) {
  // Distinct models (distinct costs) so the responses are genuinely
  // different and cache dispositions are deterministic (all misses).
  std::vector<std::string> reqs;
  for (std::size_t i = 0; i < n; ++i) {
    Request r;
    r.id = "req-" + std::to_string(i);
    ids->push_back(r.id);
    std::ostringstream model;
    model << "bas a cost=" << (i + 1) << " damage=2\n"
          << "bas b cost=4 damage=1\nor r = a, b damage=10\n";
    r.op = SolveRequest{{engine::Problem::Cdpf, 0.0, false, "", model.str()}};
    reqs.push_back(encode_request(r));
  }
  // Shuffle deterministically so arrival order != id order.
  Rng rng(7);
  for (std::size_t i = reqs.size(); i > 1; --i)
    std::swap(reqs[i - 1], reqs[rng.below(i)]);
  std::string script;
  for (const std::string& r : reqs) script += r + "\n";
  script += "{\"v\":1,\"id\":\"quit\",\"op\":\"quit\"}\n";
  return script;
}

TEST(Pipelined, ResponsesMatchIdsAndAreThreadCountInvariant) {
  const std::size_t n = 16;
  std::vector<std::string> ids;
  const std::string script = pipelined_script(n, &ids);

  std::vector<std::vector<std::string>> sorted_runs;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                    std::size_t{8}}) {
    Dispatcher d;
    std::istringstream in(script);
    std::ostringstream out;
    JsonServeOptions opt;
    opt.threads = threads;
    const std::size_t handled = serve_json(in, out, d, opt);
    EXPECT_EQ(handled, n);

    std::vector<std::string> lines = lines_of(out.str());
    ASSERT_EQ(lines.size(), n + 1);
    // The shutdown response is always last and echoes the quit id.
    const Decoded<Response> last = decode_response(lines.back());
    ASSERT_EQ(last.code, ErrorCode::Ok);
    EXPECT_EQ(last.value.id, "quit");
    ASSERT_TRUE(std::holds_alternative<ShutdownPayload>(last.value.payload));
    lines.pop_back();

    // Every id answered exactly once, every response ok.
    std::map<std::string, std::size_t> seen;
    for (const std::string& line : lines) {
      const Decoded<Response> dec = decode_response(line);
      ASSERT_EQ(dec.code, ErrorCode::Ok) << line;
      EXPECT_EQ(dec.value.code, ErrorCode::Ok);
      ++seen[dec.value.id];
    }
    for (const std::string& id : ids) EXPECT_EQ(seen[id], 1u) << id;

    std::sort(lines.begin(), lines.end());
    sorted_runs.push_back(std::move(lines));
  }
  // Sorted by id, the bytes are identical for every --threads setting.
  EXPECT_EQ(sorted_runs[0], sorted_runs[1]);
  EXPECT_EQ(sorted_runs[0], sorted_runs[2]);
}

TEST(Pipelined, ConcurrentMixedOpsAllAnswered) {
  // Sessions, solves, analyses, stats and malformed lines interleaved
  // under a worker pool — exercised under tsan in CI.
  Dispatcher d;
  std::string script;
  Request r;
  r.id = "open";
  r.op = SessionOpenRequest{{engine::Problem::Dgc, 5.0, true, "", kDetModel}};
  script += encode_request(r) + "\n";
  for (int i = 0; i < 6; ++i) {
    r.id = "s" + std::to_string(i);
    std::ostringstream model;
    model << "bas a cost=" << (i + 1) << " damage=2\nbas b cost=4 damage=1\n"
          << "or r = a, b damage=10\n";
    r.op = SolveRequest{{engine::Problem::Dgc, 3.0, true, "", model.str()}};
    script += encode_request(r) + "\n";
  }
  r.id = "an";
  {
    AnalyzeSweepRequest a;
    a.problem = engine::Problem::Dgc;
    a.axes = {"cost:a:1:2:2"};
    a.bound = 5.0;
    a.has_bound = true;
    a.model = kDetModel;
    r.op = std::move(a);
  }
  script += encode_request(r) + "\n";
  r.id = "st";
  r.op = StatsRequest{};
  script += encode_request(r) + "\n";
  script += "not json\n";
  script += "{\"v\":1,\"op\":\"quit\"}\n";

  std::istringstream in(script);
  std::ostringstream out;
  JsonServeOptions opt;
  opt.threads = 4;
  serve_json(in, out, d, opt);
  const std::vector<std::string> lines = lines_of(out.str());
  EXPECT_EQ(lines.size(), 11u);  // 9 requests + 1 malformed + shutdown
  for (const std::string& line : lines)
    EXPECT_EQ(decode_response(line).code, ErrorCode::Ok) << line;
}

// ---------------------------------------------------------------------------
// Stats: one source of truth across every protocol path.
// ---------------------------------------------------------------------------

TEST(Stats, DispatcherCountersCoverEveryPath) {
  Dispatcher d;
  Request r;
  r.op = SolveRequest{{engine::Problem::Dgc, 5.0, true, "", kDetModel}};
  EXPECT_EQ(d.dispatch(r).code, ErrorCode::Ok);
  r.op = SessionOpenRequest{{engine::Problem::Dgc, 5.0, true, "", kDetModel}};
  EXPECT_EQ(d.dispatch(r).code, ErrorCode::Ok);
  r.op = SessionEditRequest{1, EditOp::SetCost, "a", 2.0, ""};
  EXPECT_EQ(d.dispatch(r).code, ErrorCode::Ok);
  r.op = SessionResolveRequest{1};
  EXPECT_EQ(d.dispatch(r).code, ErrorCode::Ok);
  r.op = SessionCloseRequest{1};
  EXPECT_EQ(d.dispatch(r).code, ErrorCode::Ok);
  {
    AnalyzePortfolioRequest a;
    a.problem = engine::Problem::Dgc;
    a.defenses = {"cam:1:a", "lock:2:b"};
    a.budget = 3.0;
    a.has_budget = true;
    a.bound = 5.0;
    a.has_bound = true;
    a.model = kDetModel;
    r.op = std::move(a);
  }
  EXPECT_EQ(d.dispatch(r).code, ErrorCode::Ok);
  r.op = SolveRequest{{engine::Problem::Cdpf, 0.0, false, "", "broken"}};
  EXPECT_EQ(d.dispatch(r).code, ErrorCode::ParseError);

  const StatsPayload s = d.stats();
  EXPECT_EQ(s.api.requests, 7u);
  EXPECT_EQ(s.api.solves, 3u);  // solve + resolve + failed solve
  EXPECT_EQ(s.api.session_opens, 1u);
  EXPECT_EQ(s.api.session_edits, 1u);
  EXPECT_EQ(s.api.session_resolves, 1u);
  EXPECT_EQ(s.api.session_closes, 1u);
  EXPECT_EQ(s.api.analyses, 1u);
  EXPECT_EQ(s.api.errors, 1u);
  // The drift fix: the portfolio's derived solves ran against the
  // service result cache, so the cache counters reflect analysis work
  // (the old protocol bypassed them entirely).
  EXPECT_GT(s.cache.insertions, 1u);

  // The same numbers surface over the wire.
  r.op = StatsRequest{};
  const Response resp = d.dispatch(r);
  const std::string json_line = encode_response(resp, false);
  const Decoded<Response> dec = decode_response(json_line);
  ASSERT_EQ(dec.code, ErrorCode::Ok);
  const auto& p = std::get<StatsPayload>(dec.value.payload);
  EXPECT_EQ(p.api.requests, 8u);  // + the stats request itself
  EXPECT_EQ(p.api.analyses, 1u);
}

// ---------------------------------------------------------------------------
// Structured shutdown, on quit and on EOF.
// ---------------------------------------------------------------------------

TEST(Shutdown, JsonModeAnswersOnEofAndQuit) {
  for (const bool with_quit : {false, true}) {
    Dispatcher d;
    Request r;
    r.id = "x";
    r.op = SolveRequest{{engine::Problem::Cdpf, 0.0, false, "", kDetModel}};
    std::string script = encode_request(r) + "\n";
    if (with_quit) script += "{\"v\":1,\"id\":\"bye\",\"op\":\"quit\"}\n";
    std::istringstream in(script);
    std::ostringstream out;
    EXPECT_EQ(serve_json(in, out, d), 1u);
    const std::vector<std::string> lines = lines_of(out.str());
    ASSERT_EQ(lines.size(), 2u);
    const Decoded<Response> last = decode_response(lines.back());
    ASSERT_EQ(last.code, ErrorCode::Ok);
    // The quit id is echoed; EOF has no request id to echo.
    EXPECT_EQ(last.value.id, with_quit ? "bye" : "");
    ASSERT_TRUE(std::holds_alternative<ShutdownPayload>(last.value.payload));
    EXPECT_EQ(std::get<ShutdownPayload>(last.value.payload).handled, 1u);
  }
}

// ---------------------------------------------------------------------------
// Batch dispatch.
// ---------------------------------------------------------------------------

TEST(Batch, ItemsAreIndexAlignedAndFailIndependently) {
  Dispatcher d;
  BatchRequest b;
  b.threads = 4;
  for (int i = 0; i < 5; ++i) {
    std::ostringstream model;
    model << "bas a cost=" << (i + 1) << " damage=2\nbas b cost=4 damage=1\n"
          << "or r = a, b damage=10\n";
    b.items.push_back(
        {engine::Problem::Dgc, static_cast<double>(i + 1), true, "",
         model.str()});
  }
  b.items.push_back({engine::Problem::Cdpf, 0.0, false, "", "broken"});
  Request r;
  r.op = std::move(b);
  const Response resp = d.dispatch(r);
  ASSERT_EQ(resp.code, ErrorCode::Ok);
  const auto& items = std::get<BatchPayload>(resp.payload).items;
  ASSERT_EQ(items.size(), 6u);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(items[static_cast<std::size_t>(i)].code, ErrorCode::Ok);
    // Item i solved its own model: budget i+1 affords exactly cost a.
    EXPECT_TRUE(items[static_cast<std::size_t>(i)].solve.feasible);
  }
  EXPECT_EQ(items[5].code, ErrorCode::ParseError);

  // Batch results are identical to one-by-one dispatch.
  Dispatcher solo;
  for (int i = 0; i < 5; ++i) {
    Request one;
    std::ostringstream model;
    model << "bas a cost=" << (i + 1) << " damage=2\nbas b cost=4 damage=1\n"
          << "or r = a, b damage=10\n";
    one.op = SolveRequest{{engine::Problem::Dgc, static_cast<double>(i + 1),
                           true, "", model.str()}};
    const Response single = solo.dispatch(one);
    ASSERT_EQ(single.code, ErrorCode::Ok);
    Response as_item;
    as_item.payload = items[static_cast<std::size_t>(i)].solve;
    EXPECT_EQ(encode_response(as_item, false),
              encode_response(single, false));
  }
}

// ---------------------------------------------------------------------------
// Serve-loop hardening regressions: the bounded pipelining queue, the
// input-line / decoder size caps, and write-failure detection.  Each of
// these fails on the pre-hardening serve loop.
// ---------------------------------------------------------------------------

/// Transport double with an instant reader: hands out scripted lines as
/// fast as the loop asks, records how many reads ran ahead of writes.
class CountingTransport final : public LineTransport {
 public:
  explicit CountingTransport(std::vector<std::string> lines)
      : lines_(std::move(lines)) {}

  ReadStatus read_line(std::string& line, std::size_t) override {
    const std::size_t outstanding = reads_ - writes_.load();
    max_outstanding_ = std::max(max_outstanding_, outstanding);
    if (reads_ >= lines_.size()) return ReadStatus::Eof;
    line = lines_[reads_++];
    return ReadStatus::Line;
  }

  bool write_line(const std::string&) override {
    writes_.fetch_add(1);
    return true;
  }

  std::size_t max_outstanding() const { return max_outstanding_; }

 private:
  std::vector<std::string> lines_;
  std::size_t reads_ = 0;
  std::atomic<std::size_t> writes_{0};
  std::size_t max_outstanding_ = 0;
};

TEST(Hardening, PipelineQueueIsBoundedUnderFastReaderSlowWorkers) {
  // 64 distinct-model solves (all cache misses, real solver work) fed by
  // an instant reader.  The unbounded pre-fix loop let the reader race
  // the whole script into the queue; the bounded loop blocks it at
  // max_queue, so reads can never run more than queue depth + in-flight
  // workers ahead of completions.
  std::vector<std::string> script;
  for (int i = 0; i < 64; ++i) {
    Request r;
    r.id = std::to_string(i);
    SolveRequest s;
    s.spec = {engine::Problem::Dgc, 5.0, true, "",
              "bas a cost=" + std::to_string(1 + i) +
                  " damage=2\nbas b cost=4 damage=1\n"
                  "or r = a, b damage=10\n"};
    r.op = std::move(s);
    script.push_back(encode_request(r));
  }
  Dispatcher d;
  CountingTransport t(script);
  JsonServeOptions opt;
  opt.threads = 2;
  opt.max_queue = 3;
  serve_lines(t, d, opt);
  EXPECT_LE(t.max_outstanding(), opt.max_queue + opt.threads)
      << "reader ran ahead of the bounded queue";
}

TEST(Hardening, OversizedLineGetsTypedCapacityAndServeContinues) {
  JsonServeOptions opt;
  opt.max_line_bytes = 128;
  Request ok;
  ok.id = "ok";
  SolveRequest s;
  s.spec = {engine::Problem::Cdpf, 0.0, false, "", kDetModel};
  ok.op = std::move(s);
  const std::string ok_line = encode_request(ok);
  ASSERT_LE(ok_line.size(), opt.max_line_bytes);

  // An overlong line, a comment of exactly the cap (must pass the cap
  // and then be skipped), and a normal request.
  std::istringstream in(std::string(4096, 'x') + "\n" +
                        "#" + std::string(127, 'c') + "\n" + ok_line + "\n");
  std::ostringstream out;
  Dispatcher d;
  serve_json(in, out, d, opt);

  const std::vector<std::string> lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 3u);  // capacity error, solve, shutdown
  const Decoded<Response> cap = decode_response(lines[0]);
  ASSERT_EQ(cap.code, ErrorCode::Ok);
  EXPECT_EQ(cap.value.code, ErrorCode::Capacity);
  const Decoded<Response> solved = decode_response(lines[1]);
  EXPECT_EQ(solved.value.code, ErrorCode::Ok);
  EXPECT_EQ(solved.value.id, "ok");
  EXPECT_TRUE(std::holds_alternative<ShutdownPayload>(
      decode_response(lines[2]).value.payload));
}

TEST(Hardening, DecoderRejectsOversizedPayloads) {
  // The decoder's own entry-point cap guards transports that hand over
  // pre-assembled buffers (HTTP bodies) without a line-length check.
  const Decoded<Request> dec =
      decode_request(std::string(kMaxDecodeBytes + 1, 'x'));
  EXPECT_EQ(dec.code, ErrorCode::Capacity);
  EXPECT_EQ(decode_request("{\"v\":1,\"op\":\"stats\"}").code, ErrorCode::Ok);
}

/// Transport double whose sink is dead from the start: every write
/// fails, reads count how far the loop kept going.
class DeadSinkTransport final : public LineTransport {
 public:
  explicit DeadSinkTransport(std::vector<std::string> lines)
      : lines_(std::move(lines)) {}

  ReadStatus read_line(std::string& line, std::size_t) override {
    if (reads_ >= lines_.size()) return ReadStatus::Eof;
    line = lines_[reads_++];
    return ReadStatus::Line;
  }

  bool write_line(const std::string&) override {
    write_attempts_.fetch_add(1);
    return false;
  }

  std::size_t reads() const { return reads_; }
  std::size_t write_attempts() const { return write_attempts_.load(); }

 private:
  std::vector<std::string> lines_;
  std::size_t reads_ = 0;
  std::atomic<std::size_t> write_attempts_{0};
};

TEST(Hardening, WriteFailureStopsTheLoopAndIsCounted) {
  // The pre-fix loop ignored emit failures and kept dispatching the
  // whole script into a dead sink.  Now the first failed write ends the
  // connection: no further dispatches, no shutdown write into the void,
  // and the failure is visible in atcd_net_write_errors_total.
  std::vector<std::string> script;
  for (int i = 0; i < 10; ++i) {
    Request r;
    r.id = std::to_string(i);
    SolveRequest s;
    s.spec = {engine::Problem::Cdpf, 0.0, false, "", kDetModel};
    r.op = std::move(s);
    script.push_back(encode_request(r));
  }
  Dispatcher d;
  DeadSinkTransport t(script);
  serve_lines(t, d, {});
  EXPECT_EQ(t.write_attempts(), 1u) << "loop kept writing after sink death";
  EXPECT_LT(t.reads(), script.size()) << "loop kept reading after sink death";
  EXPECT_EQ(d.metrics().counter("atcd_net_write_errors_total").value(), 1u);
}

}  // namespace
}  // namespace atcd
