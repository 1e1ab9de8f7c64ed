// Interface repository: run-time registry of interface definitions.
//
// The paper's infrastructure relies on CORBA's reflective facilities to
// "identify new service types and integrate their instances into a
// dynamically assembled application" (SII). This repository plays that role:
// interfaces (operation signatures) can be defined at any time — including
// from a textual IDL-like syntax shipped over the network — and calls can be
// validated against them.
#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/error.h"

namespace adapt::orb {

struct ParamDef {
  std::string name;
  std::string type = "any";  // loose: any|boolean|number|string|table|object|void
};

struct OperationDef {
  std::string name;
  std::vector<ParamDef> params;
  std::string result_type = "any";
  bool oneway = false;
};

struct InterfaceDef {
  std::string name;
  std::vector<std::string> bases;  // single or multiple inheritance
  std::map<std::string, OperationDef> operations;
};

class InterfaceRepository {
 public:
  /// Registers or replaces an interface definition. Throws if a base is
  /// unknown (bases must be defined first, as in the OMG IR).
  void define(InterfaceDef def);

  /// Defines interfaces from a minimal IDL-like syntax:
  ///
  ///   interface EventMonitor : BasicMonitor {
  ///     string attachEventObserver(object obj, string evid, string notifyf);
  ///     oneway void notifyEvent(string evid);
  ///   };
  ///
  /// Returns the names defined. Throws adapt::Error on syntax errors.
  std::vector<std::string> define_idl(std::string_view idl);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::optional<InterfaceDef> find(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> list() const;

  /// True when `derived` equals `base` or transitively inherits from it.
  [[nodiscard]] bool is_a(const std::string& derived, const std::string& base) const;

  /// Looks up an operation on `iface`, walking base interfaces.
  [[nodiscard]] std::optional<OperationDef> find_operation(const std::string& iface,
                                                           const std::string& op) const;

  enum class OperationLookup { UnknownInterface, Declared, Undeclared };
  /// One locked, copy-free answer to find_operation's question that also
  /// tells an unregistered interface apart (the per-call validation path).
  [[nodiscard]] OperationLookup lookup_operation(const std::string& iface,
                                                 const std::string& op) const;

 private:
  [[nodiscard]] bool is_a_locked(const std::string& derived, const std::string& base,
                                 int depth) const;
  [[nodiscard]] const OperationDef* find_op_locked(const std::string& iface,
                                                   const std::string& op, int depth) const;

  mutable std::mutex mu_;
  std::map<std::string, InterfaceDef> defs_;
};

}  // namespace adapt::orb
