#include "orb/interface_repo.h"

#include <cctype>

namespace adapt::orb {

namespace {

/// Tiny tokenizer for the IDL subset: names, punctuation, keywords-as-names.
class IdlScanner {
 public:
  explicit IdlScanner(std::string_view text) : text_(text) {}

  /// Next token, or empty string at end. Punctuation tokens are single chars.
  std::string next() {
    skip_space();
    if (pos_ >= text_.size()) return {};
    const char c = text_[pos_];
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '_')) {
        ++pos_;
      }
      return std::string(text_.substr(start, pos_ - start));
    }
    ++pos_;
    return std::string(1, c);
  }

  std::string expect_name(const char* what) {
    std::string t = next();
    if (t.empty() || !(std::isalpha(static_cast<unsigned char>(t[0])) || t[0] == '_')) {
      throw Error(std::string("IDL: expected ") + what + ", got '" + t + "'");
    }
    return t;
  }

  void expect(const std::string& tok) {
    const std::string t = next();
    if (t != tok) throw Error("IDL: expected '" + tok + "', got '" + t + "'");
  }

  std::string peek() {
    const size_t save = pos_;
    std::string t = next();
    pos_ = save;
    return t;
  }

 private:
  void skip_space() {
    for (;;) {
      while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
      if (pos_ + 1 < text_.size() && text_[pos_] == '/' && text_[pos_ + 1] == '/') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
        continue;
      }
      return;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

void InterfaceRepository::define(InterfaceDef def) {
  std::scoped_lock lock(mu_);
  for (const std::string& base : def.bases) {
    if (defs_.count(base) == 0) {
      throw Error("interface '" + def.name + "' inherits unknown base '" + base + "'");
    }
  }
  defs_[def.name] = std::move(def);
}

std::vector<std::string> InterfaceRepository::define_idl(std::string_view idl) {
  IdlScanner scan(idl);
  std::vector<std::string> defined;
  for (;;) {
    std::string tok = scan.next();
    if (tok.empty()) break;
    if (tok == ";") continue;
    if (tok != "interface") throw Error("IDL: expected 'interface', got '" + tok + "'");

    InterfaceDef def;
    def.name = scan.expect_name("interface name");
    if (scan.peek() == ":") {
      scan.expect(":");
      def.bases.push_back(scan.expect_name("base interface"));
      while (scan.peek() == ",") {
        scan.expect(",");
        def.bases.push_back(scan.expect_name("base interface"));
      }
    }
    scan.expect("{");
    while (scan.peek() != "}") {
      OperationDef op;
      std::string first = scan.expect_name("result type or 'oneway'");
      if (first == "oneway") {
        op.oneway = true;
        first = scan.expect_name("result type");
      }
      op.result_type = first;
      op.name = scan.expect_name("operation name");
      scan.expect("(");
      if (scan.peek() != ")") {
        for (;;) {
          ParamDef param;
          std::string ptype = scan.expect_name("parameter type");
          // Accept and ignore CORBA direction keywords (in/out/inout).
          if (ptype == "in" || ptype == "out" || ptype == "inout") {
            ptype = scan.expect_name("parameter type");
          }
          param.type = ptype;
          param.name = scan.expect_name("parameter name");
          op.params.push_back(std::move(param));
          if (scan.peek() != ",") break;
          scan.expect(",");
        }
      }
      scan.expect(")");
      scan.expect(";");
      def.operations[op.name] = std::move(op);
    }
    scan.expect("}");
    if (scan.peek() == ";") scan.expect(";");
    defined.push_back(def.name);
    define(std::move(def));
  }
  return defined;
}

bool InterfaceRepository::has(const std::string& name) const {
  std::scoped_lock lock(mu_);
  return defs_.count(name) != 0;
}

std::optional<InterfaceDef> InterfaceRepository::find(const std::string& name) const {
  std::scoped_lock lock(mu_);
  const auto it = defs_.find(name);
  if (it == defs_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::string> InterfaceRepository::list() const {
  std::scoped_lock lock(mu_);
  std::vector<std::string> names;
  names.reserve(defs_.size());
  for (const auto& [name, def] : defs_) names.push_back(name);
  return names;
}

bool InterfaceRepository::is_a(const std::string& derived, const std::string& base) const {
  std::scoped_lock lock(mu_);
  return is_a_locked(derived, base, 0);
}

bool InterfaceRepository::is_a_locked(const std::string& derived, const std::string& base,
                                      int depth) const {
  if (depth > 32) return false;  // inheritance-cycle guard
  if (derived == base) return true;
  const auto it = defs_.find(derived);
  if (it == defs_.end()) return false;
  for (const std::string& parent : it->second.bases) {
    if (is_a_locked(parent, base, depth + 1)) return true;
  }
  return false;
}

std::optional<OperationDef> InterfaceRepository::find_operation(const std::string& iface,
                                                                const std::string& op) const {
  std::scoped_lock lock(mu_);
  const OperationDef* found = find_op_locked(iface, op, 0);
  if (found == nullptr) return std::nullopt;
  return *found;
}

InterfaceRepository::OperationLookup InterfaceRepository::lookup_operation(
    const std::string& iface, const std::string& op) const {
  std::scoped_lock lock(mu_);
  if (defs_.count(iface) == 0) return OperationLookup::UnknownInterface;
  return find_op_locked(iface, op, 0) != nullptr ? OperationLookup::Declared
                                                 : OperationLookup::Undeclared;
}

const OperationDef* InterfaceRepository::find_op_locked(const std::string& iface,
                                                        const std::string& op,
                                                        int depth) const {
  if (depth > 32) return nullptr;
  const auto it = defs_.find(iface);
  if (it == defs_.end()) return nullptr;
  if (const auto oit = it->second.operations.find(op); oit != it->second.operations.end()) {
    return &oit->second;
  }
  for (const std::string& parent : it->second.bases) {
    if (const OperationDef* found = find_op_locked(parent, op, depth + 1)) return found;
  }
  return nullptr;
}

}  // namespace adapt::orb
