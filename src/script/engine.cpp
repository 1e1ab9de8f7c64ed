#include "script/engine.h"

#include <fstream>
#include <iostream>

#include "script/parser.h"

namespace adapt::script {

ScriptEngine::ScriptEngine(ClockPtr clock)
    : clock_(clock ? std::move(clock) : std::make_shared<RealClock>()),
      globals_(Environment::make()),
      interp_(globals_),
      print_sink_([](const std::string& line) { std::cout << line << '\n'; }),
      io_(std::make_unique<Io>()) {
  install_stdlib(*this);
}

ScriptEngine::~ScriptEngine() = default;

ValueList ScriptEngine::eval(std::string_view code, const std::string& chunk_name) {
  std::scoped_lock lock(mu_);
  ChunkPtr chunk = parse(code, chunk_name);
  return interp_.exec_chunk(chunk);
}

Value ScriptEngine::eval1(std::string_view code, const std::string& chunk_name) {
  ValueList vs = eval(code, chunk_name);
  return vs.empty() ? Value() : vs.front();
}

Value ScriptEngine::load(std::string_view code, const std::string& chunk_name) {
  std::scoped_lock lock(mu_);
  ChunkPtr chunk = parse(code, chunk_name);
  auto def = std::make_shared<FunctionDef>();
  def->name = chunk_name;
  def->body = std::move(chunk->body);
  return Value(CallablePtr(std::make_shared<ScriptFunction>(std::move(def), globals_)));
}

Value ScriptEngine::compile_function(std::string_view code, const std::string& chunk_name) {
  std::scoped_lock lock(mu_);
  // A bare function literal is not a statement, so evaluate it as an
  // expression: `return (<code>)`.
  const std::string wrapped = "return (" + std::string(code) + "\n)";
  Value v = eval1(wrapped, chunk_name);
  if (!v.is_function()) {
    // Match compile/parse errors: carry the chunk name and a position.
    throw ScriptError(chunk_name + ": source did not produce a function (got " +
                          std::string(v.type_name()) + "): " +
                          std::string(code.substr(0, 60)),
                      1);
  }
  return v;
}

ValueList ScriptEngine::call(const Value& fn, const ValueList& args) {
  std::scoped_lock lock(mu_);
  return interp_.call(fn, args);
}

Value ScriptEngine::call1(const Value& fn, const ValueList& args) {
  ValueList vs = call(fn, args);
  return vs.empty() ? Value() : vs.front();
}

void ScriptEngine::set_global(const std::string& name, Value v) {
  std::scoped_lock lock(mu_);
  if (!globals_->has_local(name)) ++env_epoch_;
  globals_->define(name, std::move(v));
}

Value ScriptEngine::get_global(const std::string& name) {
  std::scoped_lock lock(mu_);
  return globals_->get(name);
}

void ScriptEngine::register_function(const std::string& name,
                                     std::function<ValueList(const ValueList&)> fn) {
  std::scoped_lock lock(mu_);
  natives_.declare_global(name);
  set_global(name, Value(NativeFunction::make(name, std::move(fn))));
}

void ScriptEngine::register_function(const std::string& name, int min_args, int max_args,
                                     std::function<ValueList(const ValueList&)> fn) {
  std::scoped_lock lock(mu_);
  natives_.declare(name, min_args, max_args);
  set_global(name, Value(NativeFunction::make(name, std::move(fn))));
}

std::vector<analysis::Diagnostic> ScriptEngine::analyze(
    std::string_view code, const std::string& chunk_name,
    const analysis::CapabilityPolicy* policy) {
  std::scoped_lock lock(mu_);
  analysis::AnalyzeOptions opts;
  opts.policy = policy;
  opts.extra_globals = globals_->names();
  return analysis::analyze_source(code, chunk_name, natives_, opts);
}

namespace {

uint64_t fnv1a(std::string_view s) {
  uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

constexpr size_t kMaxCachedVerdicts = 256;

}  // namespace

ScriptEngine::AnalysisVerdict ScriptEngine::analyze_cached(
    std::string_view code, const std::string& chunk_name,
    const analysis::CapabilityPolicy* policy) {
  std::scoped_lock lock(mu_);
  const std::string key = std::to_string(fnv1a(code)) + ':' +
                          std::to_string(code.size()) + ':' +
                          (policy != nullptr ? policy->name : std::string()) + ':' +
                          std::to_string(natives_.version()) + ':' +
                          std::to_string(env_epoch_);
  if (const auto it = verdicts_.find(key); it != verdicts_.end()) {
    AnalysisVerdict v = it->second;
    v.cache_hit = true;
    return v;
  }
  analysis::AnalyzeOptions opts;
  opts.policy = policy;
  opts.extra_globals = globals_->names();
  analysis::AnalysisReport report =
      analysis::analyze_source_full(code, chunk_name, natives_, opts);
  AnalysisVerdict v;
  v.diags = std::move(report.diags);
  v.capabilities = std::move(report.capabilities);
  v.sinks = std::move(report.sinks);
  const bool parse_failed =
      !v.diags.empty() && v.diags.front().code == analysis::codes::kParseError;
  if (!parse_failed) {
    if (verdicts_.size() >= kMaxCachedVerdicts) verdicts_.clear();
    verdicts_.emplace(key, v);
  }
  return v;
}

ScriptEngine::AnalysisVerdict ScriptEngine::analyze_function_cached(
    std::string_view code, const std::string& chunk_name,
    const analysis::CapabilityPolicy* policy) {
  // Must match compile_function's wrapping so line numbers agree.
  const std::string wrapped = "return (" + std::string(code) + "\n)";
  return analyze_cached(wrapped, chunk_name, policy);
}

void ScriptEngine::set_print_sink(std::function<void(const std::string&)> sink) {
  std::scoped_lock lock(mu_);
  print_sink_ = std::move(sink);
}

std::mt19937& ScriptEngine::rng() { return rng_; }

}  // namespace adapt::script
