#include "at/parser.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "at/dot.hpp"
#include "casestudies/factory.hpp"
#include "core/cdat.hpp"
#include "core/problems.hpp"
#include "helpers.hpp"

namespace atcd {
namespace {

constexpr const char* kFactoryText = R"(
# Fig. 1 of the paper: factory production shutdown.
bas ca cost=1
bas pb cost=3
bas fd cost=2 damage=10
and dr = pb, fd damage=100
or ps = ca, dr damage=200
root ps
)";

TEST(Parser, ParsesTheFactoryModel) {
  const auto m = parse_model(kFactoryText);
  EXPECT_EQ(m.tree.node_count(), 5u);
  EXPECT_EQ(m.tree.bas_count(), 3u);
  EXPECT_EQ(m.tree.name(m.tree.root()), "ps");
  EXPECT_DOUBLE_EQ(m.cost[m.tree.bas_index(*m.tree.find("pb"))], 3.0);
  EXPECT_DOUBLE_EQ(m.damage[*m.tree.find("dr")], 100.0);
  EXPECT_DOUBLE_EQ(m.prob[0], 1.0);  // default
}

TEST(Parser, ParsedModelMatchesBuiltModel) {
  const auto parsed = parse_model(kFactoryText);
  const CdAt from_text{parsed.tree, parsed.cost, parsed.damage};
  const auto built = casestudies::make_factory();
  EXPECT_TRUE(atcd::testing::fronts_equal(cdpf(from_text), cdpf(built)));
}

TEST(Parser, RootStatementOptionalWhenUnique) {
  const auto m = parse_model("bas a\nbas b\nor top = a, b\n");
  EXPECT_EQ(m.tree.name(m.tree.root()), "top");
}

TEST(Parser, ProbAttribute) {
  const auto m = parse_model("bas a prob=0.25 cost=2\nor top = a\n");
  EXPECT_DOUBLE_EQ(m.prob[0], 0.25);
}

TEST(Parser, ReportsLineNumbers) {
  try {
    parse_model("bas a\nbas a\n");
    FAIL() << "expected ModelError/ParseError";
  } catch (const Error& e) {
    // Duplicate name is a structural error raised while parsing line 2.
    SUCCEED();
  }
  try {
    parse_model("bas a\nxyzzy b\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Parser, RejectsForwardReferences) {
  EXPECT_THROW(parse_model("or top = a\nbas a\n"), ParseError);
}

TEST(Parser, RejectsBadProbability) {
  EXPECT_THROW(parse_model("bas a prob=1.5\n"), ParseError);
}

TEST(Parser, RejectsUnknownAttribute) {
  EXPECT_THROW(parse_model("bas a foo=1\n"), ParseError);
}

TEST(Parser, RejectsUndefinedRoot) {
  EXPECT_THROW(parse_model("bas a\nroot zz\n"), ParseError);
}

TEST(Parser, RoundTripSerialisation) {
  Rng rng(7);
  for (int it = 0; it < 10; ++it) {
    const auto m = atcd::testing::random_cdpat(rng, 8, it % 2 == 0);
    const auto text = serialize_model(m.tree, m.cost, m.damage, &m.prob);
    const auto back = parse_model(text);
    ASSERT_EQ(back.tree.node_count(), m.tree.node_count());
    ASSERT_EQ(back.tree.bas_count(), m.tree.bas_count());
    ASSERT_EQ(back.cost, m.cost);
    ASSERT_EQ(back.prob, m.prob);
    ASSERT_EQ(back.damage, m.damage);
    ASSERT_EQ(back.tree.name(back.tree.root()), m.tree.name(m.tree.root()));
  }
}

// The number grammar is std::stod's.  These literals pin the accepted
// spellings, their exact value bits and the error text of the rejected
// ones, so a faster number reader cannot drift from it.
TEST(Parser, NumberGrammarIsPinned) {
  const struct {
    const char* token;
    std::uint64_t bits;  // value bits when `error` is null
    const char* error;
  } table[] = {
      {"+1", 0x3ff0000000000000ull, nullptr},
      {"0x10", 0x4030000000000000ull, nullptr},
      {"-0x10", 0xc030000000000000ull, nullptr},
      {"0x1p3", 0x4020000000000000ull, nullptr},
      {".5e1", 0x4014000000000000ull, nullptr},
      {"2.", 0x4000000000000000ull, nullptr},
      {"-0", 0x8000000000000000ull, nullptr},
      {"0", 0x0000000000000000ull, nullptr},
      {"1e+2", 0x4059000000000000ull, nullptr},
      {"0.30000000000000004", 0x3fd3333333333334ull, nullptr},
      {"12345678901234567", 0x4345ee2a2eb5a5c4ull, nullptr},
      {"2.2250738585072014e-308", 0x0010000000000000ull, nullptr},
      {"1.7976931348623157e308", 0x7fefffffffffffffull, nullptr},
      {"inf", 0x7ff0000000000000ull, nullptr},
      {"INFINITY", 0x7ff0000000000000ull, nullptr},
      {"nan", 0x7ff8000000000000ull, nullptr},
      {"\v5", 0x4014000000000000ull, nullptr},
      {"1e", 0, "line 1: expected '='"},
      {"5x", 0, "line 1: expected '='"},
      {"00x10", 0, "line 1: expected '='"},
      {"1e-320", 0, "line 1: expected a number"},
      {"4.9e-324", 0, "line 1: expected a number"},
      {"1e-400", 0, "line 1: expected a number"},
      {"1e999", 0, "line 1: expected a number"},
      {"1.8e308", 0, "line 1: expected a number"},
      {"-", 0, "line 1: expected a number"},
      {".", 0, "line 1: expected a number"},
      {"e5", 0, "line 1: expected a number"},
  };
  for (const auto& row : table) {
    for (const char* key : {"cost", "damage"}) {
      const std::string text =
          std::string("bas a ") + key + "=" + row.token + "\n";
      try {
        const auto m = parse_model(text);
        ASSERT_EQ(row.error, nullptr) << text << " parsed";
        const double v = std::string(key) == "cost" ? m.cost[0] : m.damage[0];
        EXPECT_EQ(std::bit_cast<std::uint64_t>(v), row.bits) << text;
      } catch (const ParseError& e) {
        ASSERT_NE(row.error, nullptr) << text << " -> " << e.what();
        EXPECT_STREQ(e.what(), row.error) << text;
      }
    }
  }
}

TEST(Parser, LineHandlingIsPinned) {
  // A final line without '\n', blank lines and '#' comments.
  for (const char* text :
       {"bas a cost=2\nor top = a", "\n\nbas a cost=2\n\n\nor top = a\n\n",
        "# header\nbas a cost=2 # cost=5\nor top = a#tail\n"}) {
    const auto m = parse_model(text);
    EXPECT_EQ(m.tree.node_count(), 2u) << text;
    EXPECT_EQ(m.cost[0], 2.0) << text;
    EXPECT_EQ(m.tree.name(m.tree.root()), "top") << text;
  }
  // '\r' is not whitespace: a CRLF line ends in a non-name character.
  const struct {
    const char* text;
    const char* error;
  } errors[] = {
      {"bas a cost=2\r\nor top = a\r\n", "line 1: expected a name"},
      {"bas a\n\n# c\n\nor top = a\nbogus x\n",
       "line 6: unknown statement 'bogus'"},
      {"bas a\n\n# c\n\nor top = a\nbas b cost=", "line 6: expected a number"},
  };
  for (const auto& row : errors) {
    try {
      parse_model(row.text);
      ADD_FAILURE() << row.text << " parsed";
    } catch (const ParseError& e) {
      EXPECT_STREQ(e.what(), row.error);
    }
  }
  EXPECT_THROW(parse_model(""), ModelError);
  EXPECT_THROW(parse_model("\n"), ModelError);
}

TEST(Dot, ContainsNodesEdgesAndDecorations) {
  const auto m = casestudies::make_factory();
  const auto dot = to_dot(m.tree, m.cost, m.damage);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("ps"), std::string::npos);
  EXPECT_NE(dot.find("d=200"), std::string::npos);
  EXPECT_NE(dot.find("c=3"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(Dot, EscapesQuotes) {
  AttackTree t;
  t.add_bas("a\"b");
  t.finalize();
  const auto dot = to_dot(t);
  EXPECT_NE(dot.find("a\\\"b"), std::string::npos);
}

}  // namespace
}  // namespace atcd
