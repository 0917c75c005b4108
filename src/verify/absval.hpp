// The abstract value domain for the static dataflow engine: a reduced
// product of a small constant set and a strided interval over unsigned
// 32-bit words. Small sets keep exact precision through the `la`/`li`
// idioms and table loads (a dispatch target is one of eight handler
// addresses, not "somewhere in [a,b]"); the strided interval catches
// loop-carried pointers (a table scan advances in stride-4 steps) without
// losing alignment. Everything is a *may* analysis: an AbsVal
// over-approximates the set of concrete values a register can hold, so any
// "proven" predicate (proven_in / proven_outside) is sound for the lint's
// error-severity claims.
//
// The lattice is deliberately shallow:
//
//     bottom  <  {c1..ck} (k <= kMaxConsts)  <  lo..hi (stride s)  <  top
//
// Joins that would grow a constant set past kMaxConsts collapse it to the
// enclosing strided interval (stride = gcd of the gaps). Widening snaps
// interval bounds outward to the caller's threshold set (section
// boundaries: 0, text limit, data base, data limit, stack top) before
// giving up to top, so one extra worklist pass pins "below the text
// section" / "inside the data section" facts that plain interval widening
// would blow straight past. Arithmetic that can wrap 2^32 goes to top
// rather than modelling wraparound.
//
// The representation never touches the heap: a constant set lives in a
// fixed inline array with a count, and the operations that build candidate
// sets (pairwise evaluation, joins) do so in stack buffers sized by
// kMaxConsts. The engine re-runs each instruction's transfer dozens of
// times on the way to its fixpoint, copying and joining 16-register
// states as it goes, so this is what keeps the analysis cheap.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <optional>
#include <vector>

namespace sofia::verify {

class AbsVal {
 public:
  /// Largest constant set carried exactly; joins beyond this collapse to a
  /// strided interval. 16 covers every dispatch table in the workload zoo.
  static constexpr std::size_t kMaxConsts = 16;

  enum class Kind : std::uint8_t { kBottom, kConsts, kInterval, kTop };

  AbsVal() = default;  ///< bottom

  static AbsVal bottom() { return AbsVal(); }
  static AbsVal top() {
    AbsVal v;
    v.kind_ = Kind::kTop;
    return v;
  }
  static AbsVal constant(std::uint32_t c) { return from_sorted(&c, 1); }
  /// The set {lo, lo+stride, ..., hi}; requires lo <= hi and
  /// (hi - lo) % stride == 0 (callers pass well-formed triples).
  static AbsVal interval(std::uint32_t lo, std::uint32_t hi,
                         std::uint32_t stride = 1) {
    if (lo == hi) return constant(lo);
    AbsVal v;
    v.kind_ = Kind::kInterval;
    v.lo_ = lo;
    v.hi_ = hi;
    v.stride_ = stride == 0 ? 1 : stride;
    return v;
  }
  /// The set of the `n` values at `values` (any order, duplicates
  /// allowed); sorts the caller's buffer in place. More than kMaxConsts
  /// distinct values collapse to their strided hull.
  static AbsVal consts(std::uint32_t* values, std::size_t n) {
    std::sort(values, values + n);
    return from_sorted(values, static_cast<std::size_t>(
                                   std::unique(values, values + n) - values));
  }

  Kind kind() const { return kind_; }
  bool is_bottom() const { return kind_ == Kind::kBottom; }
  bool is_top() const { return kind_ == Kind::kTop; }
  /// A single known value, if this is exactly one constant.
  std::optional<std::uint32_t> as_constant() const {
    if (kind_ == Kind::kConsts && n_ == 1) return consts_[0];
    return std::nullopt;
  }

  /// Member spacing of an interval (1 for every other kind).
  std::uint32_t stride() const {
    return kind_ == Kind::kInterval ? stride_ : 1;
  }

  /// Smallest / largest concrete value (valid unless bottom/top).
  std::uint32_t min() const {
    return kind_ == Kind::kConsts ? consts_[0] : lo_;
  }
  std::uint32_t max() const {
    return kind_ == Kind::kConsts ? consts_[n_ - 1] : hi_;
  }

  /// Call f(v) for every concrete value in ascending order when the set is
  /// finite and holds at most max_count members; otherwise (including
  /// top/bottom) call nothing and return false.
  template <typename F>
  bool for_each(std::size_t max_count, F f) const {
    if (kind_ == Kind::kConsts) {
      if (n_ > max_count) return false;
      std::for_each(consts_.begin(), consts_.begin() + n_, f);
      return true;
    }
    if (kind_ != Kind::kInterval) return false;
    const std::uint64_t count = (std::uint64_t{hi_} - lo_) / stride_ + 1;
    if (count > max_count) return false;
    for (std::uint64_t v = lo_; v <= hi_; v += stride_)
      f(static_cast<std::uint32_t>(v));
    return true;
  }

  /// Every concrete value when the set is finite and holds at most
  /// max_count members; nullopt otherwise (including top/bottom).
  std::optional<std::vector<std::uint32_t>> enumerate(
      std::size_t max_count) const {
    std::vector<std::uint32_t> out;
    if (!for_each(max_count, [&](std::uint32_t v) { out.push_back(v); }))
      return std::nullopt;
    return out;
  }

  // ---- range predicates (half-open byte ranges [lo, hi)) -----------------

  /// Every concrete value lies inside [lo, hi). False for top/bottom.
  bool proven_in(std::uint32_t lo, std::uint32_t hi) const {
    if (kind_ == Kind::kBottom || kind_ == Kind::kTop) return false;
    return min() >= lo && max() < hi;
  }

  /// No concrete value lies inside [lo, hi). False for top/bottom.
  /// For constant sets this checks each member, so a set straddling the
  /// range (e.g. {below, above}) is still proven disjoint.
  bool proven_outside(std::uint32_t lo, std::uint32_t hi) const {
    switch (kind_) {
      case Kind::kBottom:
      case Kind::kTop: return false;
      case Kind::kConsts:
        return std::none_of(consts_.begin(), consts_.begin() + n_,
                            [&](std::uint32_t c) { return c >= lo && c < hi; });
      case Kind::kInterval: {
        if (hi_ < lo || lo_ >= hi) return true;
        if (stride_ == 1) return false;  // dense and the bounds overlap
        // The range holds no member iff the first member >= lo lies past
        // hi_ or at/after hi; O(1) however many members there are.
        const std::uint64_t first =
            lo_ >= lo ? lo_
                      : lo_ + (std::uint64_t{lo} - lo_ + stride_ - 1) /
                                  stride_ * stride_;
        return first > hi_ || first >= hi;
      }
    }
    return false;
  }

  /// May any concrete value lie inside [lo, hi)? True for top.
  bool may_intersect(std::uint32_t lo, std::uint32_t hi) const {
    if (kind_ == Kind::kBottom) return false;
    if (kind_ == Kind::kTop) return true;
    return !proven_outside(lo, hi);
  }

  // ---- lattice -------------------------------------------------------------

  friend bool operator==(const AbsVal& a, const AbsVal& b) {
    if (a.kind_ != b.kind_) return false;
    switch (a.kind_) {
      case Kind::kBottom:
      case Kind::kTop: return true;
      case Kind::kConsts:
        return a.n_ == b.n_ && std::equal(a.consts_.begin(),
                                          a.consts_.begin() + a.n_,
                                          b.consts_.begin());
      case Kind::kInterval:
        return a.lo_ == b.lo_ && a.hi_ == b.hi_ && a.stride_ == b.stride_;
    }
    return false;
  }

  static AbsVal join(const AbsVal& a, const AbsVal& b) {
    if (a.kind_ == Kind::kBottom) return b;
    if (b.kind_ == Kind::kBottom) return a;
    if (a.kind_ == Kind::kTop || b.kind_ == Kind::kTop) return top();
    if (a.kind_ == Kind::kConsts && b.kind_ == Kind::kConsts) {
      std::array<std::uint32_t, 2 * kMaxConsts> merged{};
      const auto end = std::set_union(
          a.consts_.begin(), a.consts_.begin() + a.n_, b.consts_.begin(),
          b.consts_.begin() + b.n_, merged.begin());
      return from_sorted(merged.data(),
                         static_cast<std::size_t>(end - merged.begin()));
    }
    // At least one interval: hull with gcd stride.
    const std::uint32_t lo = std::min(a.min(), b.min());
    const std::uint32_t hi = std::max(a.max(), b.max());
    std::uint32_t stride = std::gcd(a.stride_of(), b.stride_of());
    stride = std::gcd(stride, a.min() > lo ? a.min() - lo : b.min() - lo);
    if (stride == 0) stride = 1;
    if ((hi - lo) % stride != 0) stride = std::gcd(stride, hi - lo);
    return interval(lo, hi, stride == 0 ? 1 : stride);
  }

  /// Widening: when `next` escapes `prev`'s bounds, snap the escaping bound
  /// outward to the nearest threshold (sorted ascending) instead of taking
  /// the join; a second escape past the last threshold goes to top.
  static AbsVal widen(const AbsVal& prev, const AbsVal& next,
                      const std::vector<std::uint32_t>& thresholds) {
    const AbsVal j = join(prev, next);
    if (j == prev || prev.is_top()) return prev;
    if (j.is_top() || prev.is_bottom()) return j;
    // Constant sets may keep growing up to kMaxConsts without widening.
    if (j.kind_ == Kind::kConsts) return j;
    std::uint32_t lo = j.min();
    std::uint32_t hi = j.max();
    if (!prev.is_bottom() && lo < prev.min()) {
      // Largest threshold <= lo, else 0.
      std::uint32_t snapped = 0;
      for (const std::uint32_t t : thresholds)
        if (t <= lo) snapped = t;
      lo = snapped;
    }
    if (!prev.is_bottom() && hi > prev.max()) {
      // Smallest threshold > hi, else top.
      std::uint32_t snapped = 0;
      bool found = false;
      for (const std::uint32_t t : thresholds)
        if (t > hi) {
          snapped = t;
          found = true;
          break;
        }
      if (!found) return top();
      hi = snapped;
    }
    return interval(lo, hi, 1);
  }

  // ---- transfer functions --------------------------------------------------

  static AbsVal add(const AbsVal& a, const AbsVal& b) {
    return arith(a, b, [](std::uint64_t x, std::uint64_t y) { return x + y; });
  }
  static AbsVal sub(const AbsVal& a, const AbsVal& b) {
    // Interval minus a constant keeps the shape when no borrow is possible.
    if (const auto c = b.as_constant(); c && a.kind_ == Kind::kInterval &&
                                        a.min() >= *c)
      return interval(a.min() - *c, a.max() - *c, a.stride_);
    // Otherwise unsigned borrows wrap; only exact constant pairs are safe
    // to evaluate (32-bit wrap is intentional there — `addi r, r, -8`).
    return exact(a, b, [](std::uint32_t x, std::uint32_t y) { return x - y; });
  }
  static AbsVal mul(const AbsVal& a, const AbsVal& b) {
    return arith(a, b, [](std::uint64_t x, std::uint64_t y) { return x * y; });
  }
  static AbsVal and_(const AbsVal& a, const AbsVal& b) {
    const AbsVal e =
        exact(a, b, [](std::uint32_t x, std::uint32_t y) { return x & y; });
    if (!e.is_top()) return e;
    // x & y <= min(max(x), max(y)) for unsigned operands.
    if (a.bounded() && b.bounded())
      return interval(0, std::min(a.max(), b.max()));
    if (a.bounded()) return interval(0, a.max());
    if (b.bounded()) return interval(0, b.max());
    return top();
  }
  static AbsVal or_(const AbsVal& a, const AbsVal& b) {
    return exact(a, b, [](std::uint32_t x, std::uint32_t y) { return x | y; });
  }
  static AbsVal xor_(const AbsVal& a, const AbsVal& b) {
    return exact(a, b, [](std::uint32_t x, std::uint32_t y) { return x ^ y; });
  }
  static AbsVal shl(const AbsVal& a, const AbsVal& sh) {
    const auto c = sh.as_constant();
    if (!c) return exact(a, sh, [](std::uint32_t x, std::uint32_t y) {
      return x << (y & 31);
    });
    const std::uint32_t s = *c & 31;
    if (a.kind_ == Kind::kInterval) {
      // Shape-preserving shift: a stride-k interval becomes stride-(k<<s).
      if ((std::uint64_t{a.hi_} << s) >= (std::uint64_t{1} << 32))
        return top();
      return interval(a.lo_ << s, a.hi_ << s, a.stride_ << s);
    }
    return arith(a, constant(1u << s),
                 [](std::uint64_t x, std::uint64_t y) { return x * y; });
  }
  static AbsVal shr(const AbsVal& a, const AbsVal& sh) {
    const auto c = sh.as_constant();
    if (c && a.bounded()) {
      const std::uint32_t s = *c & 31;
      return interval(a.min() >> s, a.max() >> s);
    }
    return exact(a, sh, [](std::uint32_t x, std::uint32_t y) {
      return x >> (y & 31);
    });
  }

  /// Interval with known bounds (constants or interval kinds).
  bool bounded() const {
    return kind_ == Kind::kConsts || kind_ == Kind::kInterval;
  }

 private:
  /// gcd of the gaps between consecutive sorted values (0 for fewer than
  /// two values).
  static std::uint32_t gap_gcd(const std::uint32_t* sorted, std::size_t n) {
    std::uint32_t g = 0;
    for (std::size_t i = 1; i < n; ++i)
      g = std::gcd(g, sorted[i] - sorted[i - 1]);
    return g;
  }

  std::uint32_t stride_of() const {
    if (kind_ == Kind::kInterval) return stride_;
    if (kind_ == Kind::kConsts && n_ >= 2) {
      const std::uint32_t g = gap_gcd(consts_.data(), n_);
      return g == 0 ? 1 : g;
    }
    return 1;  // single constant: any stride divides a point
  }

  static AbsVal hull(const std::uint32_t* sorted, std::size_t n) {
    const std::uint32_t g = gap_gcd(sorted, n);
    return interval(sorted[0], sorted[n - 1], g == 0 ? 1 : g);
  }

  /// The set of `n` sorted, unique values.
  static AbsVal from_sorted(const std::uint32_t* sorted, std::size_t n) {
    if (n == 0) return bottom();
    if (n > kMaxConsts) return hull(sorted, n);
    AbsVal v;
    v.kind_ = Kind::kConsts;
    v.n_ = static_cast<std::uint8_t>(n);
    std::copy(sorted, sorted + n, v.consts_.begin());
    return v;
  }

  /// Pairwise evaluation over two constant sets; anything else is top.
  template <typename F>
  static AbsVal exact(const AbsVal& a, const AbsVal& b, F f) {
    if (a.kind_ == Kind::kBottom || b.kind_ == Kind::kBottom) return bottom();
    if (a.kind_ != Kind::kConsts || b.kind_ != Kind::kConsts) return top();
    std::array<std::uint32_t, kMaxConsts * kMaxConsts> out{};
    std::size_t n = 0;
    for (std::size_t i = 0; i < a.n_; ++i)
      for (std::size_t j = 0; j < b.n_; ++j)
        out[n++] = f(a.consts_[i], b.consts_[j]);
    return consts(out.data(), n);
  }

  /// Monotone unsigned arithmetic in 64 bits; a result past 2^32 (i.e. a
  /// potential wrap) goes to top. Constant sets stay exact, intervals
  /// combine bound-wise with gcd strides.
  template <typename F>
  static AbsVal arith(const AbsVal& a, const AbsVal& b, F f) {
    if (a.kind_ == Kind::kBottom || b.kind_ == Kind::kBottom) return bottom();
    if (a.kind_ == Kind::kTop || b.kind_ == Kind::kTop) return top();
    constexpr std::uint64_t kLimit = std::uint64_t{1} << 32;
    if (f(a.max(), b.max()) >= kLimit) return top();
    if (a.kind_ == Kind::kConsts && b.kind_ == Kind::kConsts)
      return exact(a, b, [&](std::uint32_t x, std::uint32_t y) {
        return static_cast<std::uint32_t>(f(x, y));
      });
    const auto lo = static_cast<std::uint32_t>(f(a.min(), b.min()));
    const auto hi = static_cast<std::uint32_t>(f(a.max(), b.max()));
    if (lo > hi) return top();  // non-monotone corner (e.g. mul by 0-set)
    std::uint32_t stride = std::gcd(a.stride_of(), b.stride_of());
    if (stride == 0 || (hi - lo) % stride != 0)
      stride = std::gcd(stride, hi - lo);
    return interval(lo, hi, stride == 0 ? 1 : stride);
  }

  Kind kind_ = Kind::kBottom;
  std::uint8_t n_ = 0;  ///< members in consts_ (kConsts)
  std::array<std::uint32_t, kMaxConsts> consts_{};  ///< sorted, unique
  std::uint32_t lo_ = 0, hi_ = 0, stride_ = 1;  ///< (kInterval)
};

}  // namespace sofia::verify
