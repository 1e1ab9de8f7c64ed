// Numeric intervals for the Luma dataflow analyzer.
//
// A closed interval [lo, hi] over doubles with ±inf endpoints, the numeric
// component of the abstract-value lattice (lattice.h). Powers cost
// certification of numeric-for bounds, div-by-zero detection, and
// comparison folding (disjoint ranges decide `<`/`>` statically).
//
// All operations are conservative: when a precise result is not
// representable the interval widens toward top(), never toward bottom, so a
// diagnostic derived from an interval is only emitted on provable facts.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>

namespace adapt::script::analysis {

struct Interval {
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  double lo = -kInf;
  double hi = kInf;

  static Interval top() { return {}; }
  static Interval constant(double v) { return {v, v}; }

  [[nodiscard]] bool is_top() const { return lo == -kInf && hi == kInf; }
  [[nodiscard]] bool is_constant() const { return lo == hi && std::isfinite(lo); }

  /// Least upper bound: the smallest interval covering both.
  [[nodiscard]] Interval join(const Interval& o) const {
    return {std::min(lo, o.lo), std::max(hi, o.hi)};
  }

  /// Widening for loop fixpoints: any endpoint that moved jumps to ±inf so
  /// iteration terminates after one widening step.
  [[nodiscard]] Interval widen(const Interval& next) const {
    return {next.lo < lo ? -kInf : lo, next.hi > hi ? kInf : hi};
  }

  [[nodiscard]] Interval neg() const { return {-hi, -lo}; }

  [[nodiscard]] Interval add(const Interval& o) const {
    return sanitize({lo + o.lo, hi + o.hi});
  }

  [[nodiscard]] Interval sub(const Interval& o) const {
    return sanitize({lo - o.hi, hi - o.lo});
  }

  [[nodiscard]] Interval mul(const Interval& o) const {
    const double a = lo * o.lo, b = lo * o.hi, c = hi * o.lo, d = hi * o.hi;
    return sanitize({std::min(std::min(a, b), std::min(c, d)),
                     std::max(std::max(a, b), std::max(c, d))});
  }

  // Comparison folding: returns +1 when provably true, 0 when provably
  // false, -1 when undecidable.
  [[nodiscard]] int always_lt(const Interval& o) const {
    if (hi < o.lo) return 1;
    if (lo >= o.hi) return 0;
    return -1;
  }
  [[nodiscard]] int always_le(const Interval& o) const {
    if (hi <= o.lo) return 1;
    if (lo > o.hi) return 0;
    return -1;
  }

 private:
  /// NaN endpoints (0 * inf and friends) collapse to top.
  static Interval sanitize(Interval v) {
    if (std::isnan(v.lo)) v.lo = -kInf;
    if (std::isnan(v.hi)) v.hi = kInf;
    return v;
  }
};

}  // namespace adapt::script::analysis
