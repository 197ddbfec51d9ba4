#pragma once
/// \file error.hpp
/// Error types used across the atcd library.
///
/// All library errors derive from atcd::Error (itself a std::runtime_error)
/// so callers can catch library failures with a single handler while still
/// distinguishing structural model errors from solver/capacity failures.

#include <stdexcept>
#include <string>

namespace atcd {

/// Base class of all exceptions thrown by the atcd library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// The attack-tree model is malformed (cycle, missing root, bad arity,
/// out-of-range node id, negative cost, probability outside [0,1], ...).
class ModelError : public Error {
 public:
  explicit ModelError(const std::string& what) : Error(what) {}
};

/// A problem argument is outside its domain, e.g. a NaN budget or
/// threshold (engine::instance_error() names the same cases).
class ArgumentError : public Error {
 public:
  explicit ArgumentError(const std::string& what) : Error(what) {}
};

/// An algorithm received a model outside its supported class, e.g. the
/// treelike bottom-up engine applied to a DAG-shaped tree.
class UnsupportedError : public Error {
 public:
  explicit UnsupportedError(const std::string& what) : Error(what) {}
};

/// A deliberately exponential engine (enumeration, BDD enumeration) was
/// asked to handle a model beyond its configured capacity limit.
class CapacityError : public Error {
 public:
  explicit CapacityError(const std::string& what) : Error(what) {}
};

/// The embedded LP/ILP solver failed (infeasible where feasibility was
/// required, unbounded relaxation, iteration limit).
class SolverError : public Error {
 public:
  explicit SolverError(const std::string& what) : Error(what) {}
};

/// Parsing a textual attack-tree model failed.
class ParseError : public Error {
 public:
  explicit ParseError(const std::string& what) : Error(what) {}
};

}  // namespace atcd
