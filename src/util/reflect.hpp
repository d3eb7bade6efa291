// Config reflection: every config struct declares its fields exactly once.
//
// A config struct opts in by providing a `describe` overload next to its
// definition:
//
//   template <class V>
//   void describe(V& v, MyConfig& c) {
//     v.field("cores", c.cores, reflect::in_range(1, 32));
//     v.group("cache", c.cache);                 // recurses into describe()
//     v.field("policy", c.policy, kPolicyNames); // enums carry a name table
//   }
//
// Everything else is a visitor over that single declaration:
//   * fingerprint_of()  — exact cache key (ints in decimal, doubles by their
//                         IEEE-754 bit pattern), the sweep cache's key;
//   * set_field()       — apply "dotted.path=value" overrides (the shared
//                         --set CLI), with typed parsing and range errors
//                         that name the dotted path;
//   * get_field()       — render one field's current value;
//   * validate_config() — run every field's Check plus struct invariants;
//   * count_fields() /
//     list_fields()     — enumerate the described surface (drift guard);
//   * perturb_field()   — bump the n-th field to a provably different value
//                         (fingerprint collision regression tests);
// and util/reflect_json.hpp adds the exact flat-key JSON dump/load pair.
//
// Field values are canonicalised to three scalar channels plus enums:
// integer (int, u32, i64, u64, Time→ps, Cycles→count, Bandwidth→bytes/s,
// Frequency→Hz), double, and bool. Visitors implement four hooks —
// int_field / f64_field / bool_field / enum_field — each templated on an
// accessor with `get()` and `set(v)`; VisitorBase supplies the field()
// overload set, group recursion, and dotted-path bookkeeping.
//
// Injectivity of the fingerprint (and of the JSON dump) rests on: field
// paths are distinct C-identifier/dot strings containing neither '=' nor
// ';', every integer renders in plain decimal, doubles render as the
// decimal of their bit pattern, and fields appear in fixed describe()
// order — so two configs produce the same string iff every described
// field is bit-identical.
#pragma once

#include <bit>
#include <charconv>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/time.hpp"
#include "util/types.hpp"
#include "util/units.hpp"

namespace saisim::util::reflect {

/// Per-field validity constraints, checked by validate_config() and on
/// every set_field() (CLI override / JSON load). Integer bounds apply to
/// the canonical integer value (ps, cycles, bytes/s, Hz for strong types);
/// fmin/fmax apply to double fields.
struct Check {
  i64 min = std::numeric_limits<i64>::min();
  i64 max = std::numeric_limits<i64>::max();
  double fmin = -std::numeric_limits<double>::infinity();
  double fmax = std::numeric_limits<double>::infinity();
  bool pow2 = false;
};

constexpr Check at_least(i64 lo) {
  Check c;
  c.min = lo;
  return c;
}
constexpr Check positive() { return at_least(1); }
constexpr Check non_negative() { return at_least(0); }
constexpr Check in_range(i64 lo, i64 hi) {
  Check c;
  c.min = lo;
  c.max = hi;
  return c;
}
constexpr Check pow2_at_least(i64 lo) {
  Check c;
  c.min = lo;
  c.pow2 = true;
  return c;
}
constexpr Check in_frange(double lo, double hi) {
  Check c;
  c.fmin = lo;
  c.fmax = hi;
  return c;
}
/// Doubles constrained to [0, 1] (probabilities, hit ratios).
constexpr Check unit_interval() { return in_frange(0.0, 1.0); }

/// Leaf-field metadata handed to every visitor hook.
struct FieldInfo {
  const char* name = "";
  const char* unit = "";  // canonical unit of the integer value, for errors
  Check check{};
};

/// Name table for an enum field: names[i] labels enum value i (values must
/// be contiguous from 0).
struct EnumNames {
  const char* const* names = nullptr;
  i64 count = 0;
};

namespace detail {

template <class T>
constexpr bool int_fits(i64 v) {
  if constexpr (std::is_unsigned_v<T>) {
    return v >= 0 && static_cast<u64>(v) <= std::numeric_limits<T>::max();
  } else {
    return v >= static_cast<i64>(std::numeric_limits<T>::min()) &&
           v <= static_cast<i64>(std::numeric_limits<T>::max());
  }
}

/// Accessors bridge one native field to its canonical channel. u64 fields
/// canonicalise through i64, so described u64 values must stay below 2^63
/// (every size/seed in the configs is far below; set() rejects overflow).
template <class T>
struct IntAccess {
  T* p;
  i64 get() const { return static_cast<i64>(*p); }
  bool set(i64 v) const {
    if (!int_fits<T>(v)) return false;
    *p = static_cast<T>(v);
    return true;
  }
};

struct TimeAccess {
  Time* p;
  i64 get() const { return p->picoseconds(); }
  bool set(i64 v) const {
    *p = Time::ps(v);
    return true;
  }
};

struct CyclesAccess {
  Cycles* p;
  i64 get() const { return p->count(); }
  bool set(i64 v) const {
    *p = Cycles{v};
    return true;
  }
};

struct BandwidthAccess {
  Bandwidth* p;
  i64 get() const { return p->bytes_per_second(); }
  bool set(i64 v) const {
    if (v < 0) return false;
    *p = Bandwidth::bytes_per_sec(v);
    return true;
  }
};

struct FrequencyAccess {
  Frequency* p;
  i64 get() const { return p->hertz(); }
  bool set(i64 v) const {
    if (v <= 0) return false;
    *p = Frequency::hz(v);
    return true;
  }
};

struct F64Access {
  double* p;
  double get() const { return *p; }
  bool set(double v) const {
    *p = v;
    return true;
  }
};

struct BoolAccess {
  bool* p;
  bool get() const { return *p; }
  bool set(bool v) const {
    *p = v;
    return true;
  }
};

template <class E>
struct EnumAccess {
  E* p;
  i64 get() const { return static_cast<i64>(*p); }
  bool set(i64 v) const {
    *p = static_cast<E>(v);
    return true;
  }
};

}  // namespace detail

/// Shortest exact decimal rendering of a double (std::to_chars round-trip
/// guarantee), shared by the JSON writer and get_field().
inline std::string render_f64(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// CRTP base every visitor derives from: provides the typed field()
/// overload set the describe() functions call, group() recursion, and the
/// dotted-path stack. Derived implements int_field / f64_field /
/// bool_field / enum_field (each templated on the accessor) and may
/// override invariant() to receive struct-level cross-field checks.
template <class D>
class VisitorBase {
 public:
  // -- describe() surface ---------------------------------------------------
  void field(const char* name, int& r, Check c = {}, const char* unit = "") {
    self().int_field(FieldInfo{name, unit, c}, detail::IntAccess<int>{&r});
  }
  void field(const char* name, u32& r, Check c = {}, const char* unit = "") {
    self().int_field(FieldInfo{name, unit, c}, detail::IntAccess<u32>{&r});
  }
  void field(const char* name, i64& r, Check c = {}, const char* unit = "") {
    self().int_field(FieldInfo{name, unit, c}, detail::IntAccess<i64>{&r});
  }
  void field(const char* name, u64& r, Check c = {}, const char* unit = "") {
    self().int_field(FieldInfo{name, unit, c}, detail::IntAccess<u64>{&r});
  }
  void field(const char* name, Time& r, Check c = {},
             const char* unit = "ps") {
    self().int_field(FieldInfo{name, unit, c}, detail::TimeAccess{&r});
  }
  void field(const char* name, Cycles& r, Check c = {},
             const char* unit = "cycles") {
    self().int_field(FieldInfo{name, unit, c}, detail::CyclesAccess{&r});
  }
  void field(const char* name, Bandwidth& r, Check c = {},
             const char* unit = "B/s") {
    self().int_field(FieldInfo{name, unit, c}, detail::BandwidthAccess{&r});
  }
  void field(const char* name, Frequency& r, Check c = {},
             const char* unit = "Hz") {
    self().int_field(FieldInfo{name, unit, c}, detail::FrequencyAccess{&r});
  }
  void field(const char* name, double& r, Check c = {},
             const char* unit = "") {
    self().f64_field(FieldInfo{name, unit, c}, detail::F64Access{&r});
  }
  void field(const char* name, bool& r) {
    self().bool_field(FieldInfo{name, "", Check{}}, detail::BoolAccess{&r});
  }
  template <class E>
    requires std::is_enum_v<E>
  void field(const char* name, E& r, EnumNames names) {
    self().enum_field(FieldInfo{name, "", Check{}}, detail::EnumAccess<E>{&r},
                      names);
  }

  /// Nested config struct: recurses into its describe() with the group
  /// name pushed onto the dotted path.
  template <class Sub>
  void group(const char* name, Sub& sub) {
    self().enter_group(name);
    describe(self(), sub);
    self().leave_group();
  }

  /// Struct-level cross-field constraint (e.g. cache geometry). No-op for
  /// every visitor except the validator.
  void invariant(bool /*ok*/, const char* /*message*/) {}

  // -- shared bookkeeping ---------------------------------------------------
  void enter_group(const char* name) { groups_.push_back(name); }
  void leave_group() { groups_.pop_back(); }

  /// Dotted path of a leaf ("client.nic.queues") or, with no argument, of
  /// the current group prefix.
  std::string path(const char* name = nullptr) const {
    std::string out;
    for (const char* g : groups_) {
      out += g;
      out += '.';
    }
    if (name != nullptr) {
      out += name;
    } else if (!out.empty()) {
      out.pop_back();
    }
    return out;
  }

 private:
  D& self() { return static_cast<D&>(*this); }
  std::vector<const char*> groups_;
};

// ---------------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------------

/// Appends "path=value;" per field: integers in decimal, doubles as the
/// decimal of their IEEE-754 bit pattern, bools as 0/1, enums as their
/// integer value — the exact-injectivity contract the sweep cache needs.
class Fingerprinter : public VisitorBase<Fingerprinter> {
 public:
  template <class A>
  void int_field(const FieldInfo& f, A a) {
    add(f.name, std::to_string(a.get()));
  }
  template <class A>
  void f64_field(const FieldInfo& f, A a) {
    add(f.name, std::to_string(std::bit_cast<u64>(a.get())));
  }
  template <class A>
  void bool_field(const FieldInfo& f, A a) {
    add(f.name, a.get() ? "1" : "0");
  }
  template <class A>
  void enum_field(const FieldInfo& f, A a, EnumNames) {
    add(f.name, std::to_string(a.get()));
  }

  std::string take() { return std::move(out_); }

 private:
  void add(const char* name, const std::string& v) {
    out_ += path(name);
    out_ += '=';
    out_ += v;
    out_ += ';';
  }
  std::string out_;
};

/// Collision-free encoding of every described field of `cfg`. Works for
/// any config type with a describe() overload.
template <class Config>
std::string fingerprint_of(const Config& cfg) {
  Fingerprinter v;
  // describe() takes a mutable reference so one declaration serves both
  // read-only visitors (this one) and writers (set_field, JSON load).
  describe(v, const_cast<Config&>(cfg));
  return v.take();
}

// ---------------------------------------------------------------------------
// Enumeration (drift guard, docs)
// ---------------------------------------------------------------------------

enum class FieldKind { kInt, kFloat, kBool, kEnum };

struct FieldDesc {
  std::string path;
  FieldKind kind = FieldKind::kInt;
  std::string unit;
  Check check{};
  std::string value;  // current value, rendered (enums by name)
};

class FieldLister : public VisitorBase<FieldLister> {
 public:
  template <class A>
  void int_field(const FieldInfo& f, A a) {
    add(f, FieldKind::kInt, std::to_string(a.get()));
  }
  template <class A>
  void f64_field(const FieldInfo& f, A a) {
    add(f, FieldKind::kFloat, render_f64(a.get()));
  }
  template <class A>
  void bool_field(const FieldInfo& f, A a) {
    add(f, FieldKind::kBool, a.get() ? "true" : "false");
  }
  template <class A>
  void enum_field(const FieldInfo& f, A a, EnumNames names) {
    const i64 v = a.get();
    add(f, FieldKind::kEnum,
        v >= 0 && v < names.count ? names.names[v] : "?");
  }

  std::vector<FieldDesc> take() { return std::move(out_); }

 private:
  void add(const FieldInfo& f, FieldKind kind, std::string value) {
    out_.push_back(
        FieldDesc{path(f.name), kind, f.unit, f.check, std::move(value)});
  }
  std::vector<FieldDesc> out_;
};

template <class Config>
std::vector<FieldDesc> list_fields(const Config& cfg) {
  FieldLister v;
  describe(v, const_cast<Config&>(cfg));
  return v.take();
}

/// Number of described leaf fields of Config (default-constructed). The
/// drift-guard test pins this next to sizeof(Config): growing the struct
/// without growing describe() fails the suite instead of poisoning the
/// sweep cache.
template <class Config>
u64 count_fields() {
  Config cfg{};
  return static_cast<u64>(list_fields(cfg).size());
}

// ---------------------------------------------------------------------------
// Set / get by dotted path
// ---------------------------------------------------------------------------

struct SetStatus {
  enum class Code { kOk, kUnknownPath, kBadValue, kOutOfRange };
  Code code = Code::kUnknownPath;
  std::string message;  // empty on success, names the dotted path otherwise

  bool ok() const { return code == Code::kOk; }
};

namespace detail {

inline bool parse_i64(std::string_view text, i64* out) {
  const char* first = text.data();
  const char* last = first + text.size();
  const auto res = std::from_chars(first, last, *out);
  return res.ec == std::errc{} && res.ptr == last;
}

inline bool parse_f64(std::string_view text, double* out) {
  const char* first = text.data();
  const char* last = first + text.size();
  const auto res = std::from_chars(first, last, *out);
  return res.ec == std::errc{} && res.ptr == last;
}

inline std::string range_text(const Check& c, const char* unit) {
  std::string out = "[";
  out += c.min == std::numeric_limits<i64>::min() ? "-inf"
                                                  : std::to_string(c.min);
  out += ", ";
  out += c.max == std::numeric_limits<i64>::max() ? "inf"
                                                  : std::to_string(c.max);
  out += "]";
  if (c.pow2) out += ", power of two";
  if (unit != nullptr && unit[0] != '\0') {
    out += " ";
    out += unit;
  }
  return out;
}

inline std::string frange_text(const Check& c) {
  // Appended piecewise, like range_text: GCC 12 flags the equivalent
  // `"[" + std::string&&` chain with a false -Wrestrict.
  std::string out = "[";
  out += render_f64(c.fmin);
  out += ", ";
  out += render_f64(c.fmax);
  out += "]";
  return out;
}

inline bool int_check_ok(const Check& c, i64 v) {
  if (v < c.min || v > c.max) return false;
  if (c.pow2 && (v <= 0 || !std::has_single_bit(static_cast<u64>(v)))) {
    return false;
  }
  return true;
}

inline bool f64_check_ok(const Check& c, double v) {
  return v >= c.fmin && v <= c.fmax;
}

}  // namespace detail

/// Applies `value` (rendered as text) to the field at dotted `path`.
class FieldSetter : public VisitorBase<FieldSetter> {
 public:
  FieldSetter(std::string_view target, std::string_view value)
      : target_(target), value_(value) {
    status_.code = SetStatus::Code::kUnknownPath;
    status_.message =
        "unknown config field '" + std::string(target) + "'";
  }

  template <class A>
  void int_field(const FieldInfo& f, A a) {
    if (!match(f.name)) return;
    i64 v = 0;
    if (!detail::parse_i64(value_, &v)) {
      fail(SetStatus::Code::kBadValue,
           ": malformed integer '" + std::string(value_) + "'");
      return;
    }
    if (!detail::int_check_ok(f.check, v) || !a.set(v)) {
      fail(SetStatus::Code::kOutOfRange,
           ": value " + std::string(value_) + " out of range " +
               detail::range_text(f.check, f.unit));
      return;
    }
    status_ = SetStatus{SetStatus::Code::kOk, ""};
  }

  template <class A>
  void f64_field(const FieldInfo& f, A a) {
    if (!match(f.name)) return;
    double v = 0.0;
    if (!detail::parse_f64(value_, &v)) {
      fail(SetStatus::Code::kBadValue,
           ": malformed number '" + std::string(value_) + "'");
      return;
    }
    if (!detail::f64_check_ok(f.check, v) || !a.set(v)) {
      fail(SetStatus::Code::kOutOfRange,
           ": value " + std::string(value_) + " out of range " +
               detail::frange_text(f.check));
      return;
    }
    status_ = SetStatus{SetStatus::Code::kOk, ""};
  }

  template <class A>
  void bool_field(const FieldInfo& f, A a) {
    if (!match(f.name)) return;
    if (value_ == "true" || value_ == "1") {
      a.set(true);
    } else if (value_ == "false" || value_ == "0") {
      a.set(false);
    } else {
      fail(SetStatus::Code::kBadValue,
           ": expected true|false, got '" + std::string(value_) + "'");
      return;
    }
    status_ = SetStatus{SetStatus::Code::kOk, ""};
  }

  template <class A>
  void enum_field(const FieldInfo& f, A a, EnumNames names) {
    if (!match(f.name)) return;
    for (i64 i = 0; i < names.count; ++i) {
      if (value_ == names.names[i]) {
        a.set(i);
        status_ = SetStatus{SetStatus::Code::kOk, ""};
        return;
      }
    }
    std::string valid;
    for (i64 i = 0; i < names.count; ++i) {
      if (i) valid += "|";
      valid += names.names[i];
    }
    fail(SetStatus::Code::kBadValue,
         ": unknown value '" + std::string(value_) + "' (expected " + valid +
             ")");
  }

  SetStatus take() { return std::move(status_); }

 private:
  bool match(const char* name) {
    return !matched_ && path(name) == target_ && (matched_ = true);
  }
  void fail(SetStatus::Code code, std::string detail_text) {
    status_.code = code;
    status_.message = std::string(target_) + std::move(detail_text);
  }

  std::string_view target_;
  std::string_view value_;
  bool matched_ = false;
  SetStatus status_;
};

/// Set one field by dotted path from its textual value. Integers (and
/// Time/Cycles/Bandwidth/Frequency, in their canonical unit) parse as
/// decimal; doubles as decimal floating point; bools as true/false/1/0;
/// enums by name. The field's Check is enforced immediately.
template <class Config>
SetStatus set_field(Config& cfg, std::string_view dotted_path,
                    std::string_view value) {
  FieldSetter v(dotted_path, value);
  describe(v, cfg);
  return v.take();
}

/// Renders the current value of the field at `dotted_path` (enums by
/// name); empty optional when the path is unknown.
template <class Config>
std::optional<std::string> get_field(const Config& cfg,
                                     std::string_view dotted_path) {
  for (FieldDesc& d : list_fields(cfg)) {
    if (d.path == dotted_path) return std::move(d.value);
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

/// Runs every field's Check plus the describe()-level invariant() calls;
/// each error names the dotted path (or group) it belongs to.
class Validator : public VisitorBase<Validator> {
 public:
  template <class A>
  void int_field(const FieldInfo& f, A a) {
    const i64 v = a.get();
    if (!detail::int_check_ok(f.check, v)) {
      errors_.push_back(path(f.name) + ": value " + std::to_string(v) +
                        " out of range " +
                        detail::range_text(f.check, f.unit));
    }
  }
  template <class A>
  void f64_field(const FieldInfo& f, A a) {
    const double v = a.get();
    if (!detail::f64_check_ok(f.check, v)) {
      errors_.push_back(path(f.name) + ": value " + render_f64(v) +
                        " out of range " + detail::frange_text(f.check));
    }
  }
  template <class A>
  void bool_field(const FieldInfo&, A) {}
  template <class A>
  void enum_field(const FieldInfo& f, A a, EnumNames names) {
    const i64 v = a.get();
    if (v < 0 || v >= names.count) {
      errors_.push_back(path(f.name) + ": enum value " + std::to_string(v) +
                        " out of range [0, " + std::to_string(names.count) +
                        ")");
    }
  }
  void invariant(bool ok, const char* message) {
    if (ok) return;
    const std::string prefix = path();
    errors_.push_back(prefix.empty() ? std::string(message)
                                     : prefix + ": " + message);
  }

  std::vector<std::string> take() { return std::move(errors_); }

 private:
  std::vector<std::string> errors_;
};

/// All constraint violations of `cfg`; empty means valid.
template <class Config>
std::vector<std::string> validate_config(const Config& cfg) {
  Validator v;
  describe(v, const_cast<Config&>(cfg));
  return v.take();
}

// ---------------------------------------------------------------------------
// Perturbation (collision regression tests)
// ---------------------------------------------------------------------------

/// Bumps the `index`-th described field to a provably different value:
/// integers +1 (or -1 at the top of their range), doubles to the adjacent
/// representable value, bools flipped, enums rotated. Returns false when
/// `index` is past the last field.
class FieldPerturber : public VisitorBase<FieldPerturber> {
 public:
  explicit FieldPerturber(u64 index) : target_(index) {}

  template <class A>
  void int_field(const FieldInfo&, A a) {
    if (!take_slot()) return;
    const i64 v = a.get();
    if (!a.set(v + 1)) a.set(v - 1);
  }
  template <class A>
  void f64_field(const FieldInfo&, A a) {
    if (!take_slot()) return;
    const double v = a.get();
    a.set(std::nextafter(v, std::numeric_limits<double>::infinity()));
  }
  template <class A>
  void bool_field(const FieldInfo&, A a) {
    if (!take_slot()) return;
    a.set(!a.get());
  }
  template <class A>
  void enum_field(const FieldInfo&, A a, EnumNames names) {
    if (!take_slot()) return;
    a.set((a.get() + 1) % names.count);
  }

  bool hit() const { return hit_; }

 private:
  bool take_slot() {
    if (next_++ != target_) return false;
    hit_ = true;
    return true;
  }
  u64 target_;
  u64 next_ = 0;
  bool hit_ = false;
};

template <class Config>
bool perturb_field(Config& cfg, u64 index) {
  FieldPerturber v(index);
  describe(v, cfg);
  return v.hit();
}

}  // namespace saisim::util::reflect
