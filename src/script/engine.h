// ScriptEngine: the embedding API for Luma (the analog of the Lua C API as
// used by LuaCorba/LuaMonitor in the paper).
//
// Each engine owns an isolated global environment with the standard library
// installed. Engines are internally synchronized with a recursive mutex so a
// monitor's timer thread and application threads can share one engine.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <string_view>

#include "base/clock.h"
#include "base/value.h"
#include "script/analysis/analyzer.h"
#include "script/env.h"
#include "script/interpreter.h"

namespace adapt::script {

class ScriptEngine {
 public:
  /// `clock` backs os.time/os.clock; defaults to a RealClock.
  explicit ScriptEngine(ClockPtr clock = nullptr);
  ~ScriptEngine();
  ScriptEngine(const ScriptEngine&) = delete;
  ScriptEngine& operator=(const ScriptEngine&) = delete;

  /// Runs a chunk of source; returns its return values.
  ValueList eval(std::string_view code, const std::string& chunk_name = "=eval");
  /// Like eval but yields only the first return value (or nil).
  Value eval1(std::string_view code, const std::string& chunk_name = "=eval");

  /// Compiles `code` as a chunk and returns it as a zero-argument function
  /// (Lua loadstring analog). Does not execute it.
  Value load(std::string_view code, const std::string& chunk_name = "=load");

  /// Compiles a source string that *denotes a function* — e.g. the
  /// "function(self, currval, monitor) ... end" strings the paper ships to
  /// monitors — and returns the resulting function value.
  Value compile_function(std::string_view code, const std::string& chunk_name = "=fn");

  /// Calls a function value with arguments.
  ValueList call(const Value& fn, const ValueList& args = {});
  Value call1(const Value& fn, const ValueList& args = {});

  void set_global(const std::string& name, Value v);
  [[nodiscard]] Value get_global(const std::string& name);

  /// Registers a native function as a global.
  void register_function(const std::string& name,
                         std::function<ValueList(const ValueList&)> fn);

  /// Like register_function, but also declares the function's arity in the
  /// native-signature registry so the static analyzer can check call sites
  /// (max_args = -1 means unbounded).
  void register_function(const std::string& name, int min_args, int max_args,
                         std::function<ValueList(const ValueList&)> fn);

  /// The native-signature registry backing Engine::analyze. Bindings
  /// modules declare their exposed natives (and capability tags) here as
  /// they install themselves.
  analysis::NativeRegistry& natives() { return natives_; }

  /// Statically analyzes `code` against this engine's known globals and
  /// native signatures without executing it. Pass a capability policy to
  /// additionally gate privileged namespaces (see analysis/policy.h);
  /// nullptr runs the resolver/lint passes only. Never throws on bad input:
  /// syntax errors come back as a parse-error diagnostic.
  std::vector<analysis::Diagnostic> analyze(
      std::string_view code, const std::string& chunk_name = "=analyze",
      const analysis::CapabilityPolicy* policy = nullptr);

  /// A cached analysis outcome for an ingestion point: the merged
  /// diagnostics plus the dataflow pass's inferred capability manifest and
  /// sink list, and whether this call was served from the verdict cache.
  struct AnalysisVerdict {
    std::vector<analysis::Diagnostic> diags;
    std::set<std::string> capabilities;
    std::set<std::string> sinks;
    bool cache_hit = false;
  };

  /// analyze() with memoized verdicts. Monitors re-verify the same
  /// aspect/update code on every reinstall and proxies re-analyze strategy
  /// scripts per event, so ingestion points use these. Keyed by
  /// (code hash, policy, native-catalog version, root-environment epoch) —
  /// registering a new native or global invalidates stale verdicts; verdicts
  /// containing parse errors are never cached (messages embed chunk names).
  AnalysisVerdict analyze_cached(std::string_view code,
                                 const std::string& chunk_name = "=analyze",
                                 const analysis::CapabilityPolicy* policy = nullptr);
  /// Analyzes `code` exactly as compile_function would see it (wrapped into
  /// a `return (...)` chunk so a bare `function(...) ... end` literal
  /// parses). Line numbers in diagnostics match compile_function's runtime
  /// errors. Use at every ingestion point that feeds compile_function.
  AnalysisVerdict analyze_function_cached(std::string_view code,
                                          const std::string& chunk_name = "=fn",
                                          const analysis::CapabilityPolicy* policy = nullptr);

  /// Redirects print() output (default: stdout). Used by tests.
  void set_print_sink(std::function<void(const std::string&)> sink);

  /// Deterministic RNG behind math.random; reseedable via math.randomseed.
  std::mt19937& rng();

  [[nodiscard]] const ClockPtr& clock() const { return clock_; }
  Interpreter& interpreter() { return interp_; }

  /// The engine lock; exposed so callers composing several calls can hold it
  /// across a sequence (it is recursive).
  std::recursive_mutex& mutex() { return mu_; }

 private:
  /// State for the Lua-4-style readfrom/read input functions (paper Fig. 3).
  struct Io {
    std::unique_ptr<std::ifstream> input;
  };

  ClockPtr clock_;
  EnvPtr globals_;
  analysis::NativeRegistry natives_;
  Interpreter interp_;
  std::recursive_mutex mu_;
  std::mt19937 rng_{12345};
  std::function<void(const std::string&)> print_sink_;
  std::unique_ptr<Io> io_;

  /// Verdict cache for analyze_cached. Bounded; cleared wholesale when full
  /// (ingestion points cycle over a small set of code strings in practice).
  std::map<std::string, AnalysisVerdict> verdicts_;
  /// Bumped only when set_global introduces a *new* name: rebinding an
  /// existing global (the smart-proxy handle on every strategy eval) cannot
  /// change name resolution, so it must not evict hot-path verdicts.
  uint64_t env_epoch_ = 0;

  friend void install_stdlib(ScriptEngine& engine);
};

/// Installs the standard library (print, type, tostring, tonumber, pairs,
/// ipairs, error, assert, pcall, string.*, math.*, table.*, os.*, and the
/// readfrom/read file-input compatibility functions used by the paper's
/// Fig. 3 listing) into the engine's globals.
void install_stdlib(ScriptEngine& engine);

/// Declares the stdlib's native signatures (names, arities, capability
/// tags) into a registry without needing a live engine — used by both
/// install_stdlib and the standalone `lumalint` catalog.
void declare_stdlib_signatures(analysis::NativeRegistry& reg);

}  // namespace adapt::script
