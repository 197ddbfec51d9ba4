#include "at/parser.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>

namespace atcd {
namespace {

/// std::isalnum's set in the C locale, spelled out: the library never
/// switches locale, and a ctype call per character is a measurable share
/// of a warm parse.
bool is_name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
}

/// Tokenizer over one comment-stripped line; every token is a view into
/// the caller's text.
struct Cursor {
  std::string_view s;
  std::size_t pos = 0;
  int line;

  void skip_ws() {
    while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\t')) ++pos;
  }
  bool eof() {
    skip_ws();
    return pos >= s.size();
  }
  [[noreturn]] void fail(const std::string& msg) const {
    throw ParseError("line " + std::to_string(line) + ": " + msg);
  }
  std::string_view name() {
    skip_ws();
    std::size_t start = pos;
    while (pos < s.size() && is_name_char(s[pos])) ++pos;
    if (pos == start) fail("expected a name");
    return s.substr(start, pos - start);
  }
  /// The number grammar is std::stod's (strtod in the C locale).
  /// from_chars accepts exactly strtod's plain decimal spellings and
  /// rounds the same way, so a finite result clear of the underflow
  /// range is taken from it directly.  Everything else — a leading '+'
  /// or whitespace other than ' '/'\t', 0x hex (from_chars reads only
  /// its "0"), inf/nan, zero, subnormal and out-of-range values — goes
  /// through std::stod, so accepted spellings, values and errors stay
  /// exactly stod's.
  double number() {
    skip_ws();
    const char* first = s.data() + pos;
    double v = 0;
    const auto [end, ec] = std::from_chars(first, s.data() + s.size(), v);
    if (ec == std::errc() && std::isfinite(v) &&
        std::fabs(v) > std::numeric_limits<double>::min()) {
      pos += static_cast<std::size_t>(end - first);
      return v;
    }
    std::size_t consumed = 0;
    try {
      v = std::stod(std::string(s.substr(pos)), &consumed);
    } catch (const std::exception&) {
      fail("expected a number");
    }
    pos += consumed;
    return v;
  }
  bool accept(char c) {
    skip_ws();
    if (pos < s.size() && s[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!accept(c)) fail(std::string("expected '") + c + "'");
  }
};

struct Attrs {
  double cost = 0, damage = 0, prob = 1;
};

Attrs parse_attrs(Cursor& cur) {
  Attrs a;
  while (!cur.eof()) {
    const std::string_view key = cur.name();
    cur.expect('=');
    const double v = cur.number();
    if (key == "cost")
      a.cost = v;
    else if (key == "damage")
      a.damage = v;
    else if (key == "prob")
      a.prob = v;
    else
      cur.fail("unknown attribute '" + std::string(key) + "'");
  }
  return a;
}

/// Open-addressing name -> NodeId index; keys are views into the text.
/// Sized for at most \p n names at load <= 1/2, so probes stay short and
/// a lookup never allocates.
class NameIndex {
 public:
  explicit NameIndex(std::size_t n)
      : keys_(std::bit_ceil(2 * n + 1)), ids_(keys_.size(), kNoNode) {}

  /// The id stored for \p name, or kNoNode.
  NodeId find(std::string_view name) const { return ids_[slot(name)]; }
  void insert(std::string_view name, NodeId id) {
    const std::size_t i = slot(name);
    keys_[i] = name;
    ids_[i] = id;
  }

 private:
  std::size_t slot(std::string_view name) const {
    const std::size_t mask = keys_.size() - 1;
    std::size_t i = std::hash<std::string_view>{}(name) & mask;
    while (ids_[i] != kNoNode && keys_[i] != name) i = (i + 1) & mask;
    return i;
  }

  std::vector<std::string_view> keys_;
  std::vector<NodeId> ids_;
};

}  // namespace

ParsedModel parse_model(const std::string& text) {
  ParsedModel m;
  const std::size_t lines =
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) + 1;
  // Names are views into `text`, which outlives the parse.
  NameIndex by_name(lines);
  m.damage.reserve(lines);  // one entry per node, in NodeId order
  std::string_view root_name;
  bool have_root = false;

  // Line splitting matches std::getline: '\n' terminates a line, and a
  // final line without one is still a line.
  std::string_view rest(text);
  int lineno = 0;
  while (!rest.empty()) {
    const std::size_t nl = rest.find('\n');
    std::string_view raw = rest.substr(0, nl);
    rest = nl == std::string_view::npos ? std::string_view()
                                        : rest.substr(nl + 1);
    ++lineno;
    raw = raw.substr(0, raw.find('#'));  // strip comment
    Cursor cur{raw, 0, lineno};
    if (cur.eof()) continue;
    const std::string_view kw = cur.name();

    if (kw == "root") {
      root_name = cur.name();
      have_root = true;
      if (!cur.eof()) cur.fail("trailing input after root statement");
      continue;
    }

    if (kw == "bas") {
      const std::string_view name = cur.name();
      const Attrs a = parse_attrs(cur);
      const NodeId id = m.tree.add_bas(std::string(name));
      by_name.insert(name, id);
      m.cost.push_back(a.cost);
      if (a.prob < 0.0 || a.prob > 1.0)
        cur.fail("prob must lie in [0,1]");
      m.prob.push_back(a.prob);
      m.damage.push_back(a.damage);
      continue;
    }

    if (kw == "or" || kw == "and") {
      const std::string_view name = cur.name();
      cur.expect('=');
      std::vector<NodeId> children;
      do {
        const std::string_view cname = cur.name();
        const NodeId child = by_name.find(cname);
        if (child == kNoNode)
          cur.fail("child '" + std::string(cname) + "' not defined before use");
        children.push_back(child);
      } while (cur.accept(','));
      // Remaining tokens are attributes.
      const Attrs a = parse_attrs(cur);
      const NodeId id =
          m.tree.add_gate(kw == "or" ? NodeType::OR : NodeType::AND,
                          std::string(name), std::move(children));
      by_name.insert(name, id);
      m.damage.push_back(a.damage);
      continue;
    }

    cur.fail("unknown statement '" + std::string(kw) + "'");
  }

  if (have_root) {
    const NodeId root = by_name.find(root_name);
    if (root == kNoNode)
      throw ParseError("root '" + std::string(root_name) +
                       "' was never defined");
    m.tree.set_root(root);
  }
  m.tree.finalize();
  return m;
}

ParsedModel parse_model_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ParseError("cannot open model file '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_model(buf.str());
}

std::string serialize_model(const AttackTree& t,
                            const std::vector<double>& cost,
                            const std::vector<double>& damage,
                            const std::vector<double>* prob) {
  std::ostringstream out;
  out.precision(17);
  for (NodeId v : t.topological_order()) {
    const auto& n = t.node(v);
    if (n.type == NodeType::BAS) {
      out << "bas " << n.name;
      if (cost[n.bas_index] != 0) out << " cost=" << cost[n.bas_index];
      if (damage[v] != 0) out << " damage=" << damage[v];
      if (prob && (*prob)[n.bas_index] != 1.0)
        out << " prob=" << (*prob)[n.bas_index];
      out << '\n';
    } else {
      out << (n.type == NodeType::OR ? "or " : "and ") << n.name << " =";
      for (std::size_t i = 0; i < n.children.size(); ++i)
        out << (i ? ", " : " ") << t.name(n.children[i]);
      if (damage[v] != 0) out << " damage=" << damage[v];
      out << '\n';
    }
  }
  out << "root " << t.name(t.root()) << '\n';
  return out.str();
}

}  // namespace atcd
