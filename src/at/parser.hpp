#pragma once
/// \file parser.hpp
/// Textual model format for cost-damage attack trees.
///
/// Grammar (one statement per line; '#' starts a comment):
///
///   bas  <name> [cost=<num>] [damage=<num>] [prob=<num>]
///   or   <name> = <child> , <child> , ...   [damage=<num>]
///   and  <name> = <child> , <child> , ...   [damage=<num>]
///   root <name>
///
/// Names may contain ASCII letters, digits, '_', '-', '.'.  Children must
/// be defined before they are referenced (this guarantees acyclicity at
/// parse time).  `root` is optional when exactly one node is parentless.
/// Defaults: cost=0, damage=0, prob=1.  Numbers follow std::stod in the C
/// locale ('+', 0x hex, inf and nan are read; overflow and subnormal
/// values are errors); README.md's "Model format" pins the details.
///
/// The parser is decoration-agnostic glue: it returns the bare AttackTree
/// plus decoration vectors; core/cdat.hpp assembles them into CdAt/CdpAt.

#include <iosfwd>
#include <string>
#include <vector>

#include "at/attack_tree.hpp"

namespace atcd {

/// Parse result: a finalized tree plus decorations.
struct ParsedModel {
  AttackTree tree;
  std::vector<double> cost;    ///< per BAS index
  std::vector<double> prob;    ///< per BAS index
  std::vector<double> damage;  ///< per NodeId
};

/// Parses the textual format above.  Throws ParseError with a line number
/// on malformed input, ModelError on structural problems.
ParsedModel parse_model(const std::string& text);

/// Reads a file and parses it.  Throws ParseError if unreadable.
ParsedModel parse_model_file(const std::string& path);

/// Serialises a model in the same format (topological order, so the output
/// always re-parses).  `with_prob` controls emission of prob= attributes.
std::string serialize_model(const AttackTree& t,
                            const std::vector<double>& cost,
                            const std::vector<double>& damage,
                            const std::vector<double>* prob = nullptr);

}  // namespace atcd
