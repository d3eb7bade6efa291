// Declarative experiment sweeps.
//
// Every figure in the paper is a grid — (servers × transfer × policy) or
// (clients × policy) — over `ExperimentConfig`. A `SweepSpec` names the
// axes of that grid once; each axis is an ordered list of labelled config
// mutators, and the grid is their cartesian product in row-major order
// (first axis slowest). `SweepRunner` (runner.hpp) executes the grid on a
// thread pool and hands results back in this deterministic order, so the
// benches never hand-roll nested loops again.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/policy.hpp"
#include "util/assert.hpp"
#include "util/reflect.hpp"

namespace saisim::sweep {

using ConfigMutator = std::function<void(ExperimentConfig&)>;

struct AxisValue {
  std::string label;
  ConfigMutator apply;  // empty == leave the config untouched
};

struct Axis {
  std::string name;
  std::vector<AxisValue> values;
};

/// Build an axis from typed values: `label(v)` names each grid line,
/// `apply(cfg, v)` mutates the config for it.
template <typename T, typename LabelFn, typename ApplyFn>
Axis make_axis(std::string name, const std::vector<T>& values, LabelFn label,
               ApplyFn apply) {
  Axis a;
  a.name = std::move(name);
  a.values.reserve(values.size());
  for (const T& v : values) {
    a.values.push_back(
        AxisValue{label(v), [apply, v](ExperimentConfig& c) { apply(c, v); }});
  }
  return a;
}

/// Exact textual rendering of an axis value for set_field: doubles via the
/// shortest round-trip form (std::to_string would truncate to 6 decimals),
/// bools as the words set_field's bool channel accepts.
template <typename T>
std::string render_axis_value(const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return v ? "true" : "false";
  } else if constexpr (std::is_same_v<T, std::string>) {
    return v;  // enum-name axes feed set_field's name channel directly
  } else if constexpr (std::is_floating_point_v<T>) {
    return util::reflect::render_f64(v);
  } else {
    return std::to_string(v);
  }
}

/// Build an axis over a reflected field: each value is applied through
/// `util::reflect::set_field` at the dotted `path`, so the axis definition
/// is just (path, values) — no per-axis mutator lambda, and the field's
/// Check is enforced when the grid point materialises. `label(v)` names
/// each grid line.
template <typename T, typename LabelFn>
Axis make_field_axis(std::string name, std::string path,
                     const std::vector<T>& values, LabelFn label) {
  Axis a;
  a.name = std::move(name);
  a.values.reserve(values.size());
  for (const T& v : values) {
    a.values.push_back(
        AxisValue{label(v), [path, v](ExperimentConfig& c) {
          const auto st =
              util::reflect::set_field(c, path, render_axis_value(v));
          SAISIM_CHECK_MSG(st.ok(), st.message.c_str());
        }});
  }
  return a;
}

/// Field axis labelled with the value's exact rendering.
template <typename T>
Axis make_field_axis(std::string name, std::string path,
                     const std::vector<T>& values) {
  return make_field_axis(std::move(name), std::move(path), values,
                         [](const T& v) { return render_axis_value(v); });
}

class SweepSpec {
 public:
  explicit SweepSpec(std::string name, ExperimentConfig base = {});

  SweepSpec& axis(Axis a);
  template <typename T, typename LabelFn, typename ApplyFn>
  SweepSpec& axis(std::string name, const std::vector<T>& values,
                  LabelFn label, ApplyFn apply) {
    return axis(make_axis(std::move(name), values, std::move(label),
                          std::move(apply)));
  }

  /// The policy axis (labelled with `policy_name`). Remembered so results
  /// can be collapsed into baseline-vs-treatment comparisons.
  SweepSpec& policies(std::vector<PolicyKind> kinds);

  const std::string& name() const { return name_; }
  const std::vector<Axis>& axes() const { return axes_; }
  /// Index of the policy axis, or -1 if `policies()` was never called.
  int policy_axis() const { return policy_axis_; }
  const std::vector<PolicyKind>& policy_kinds() const { return policy_kinds_; }

  /// Total grid points (product of axis sizes; 1 for an axis-less spec).
  u64 size() const;
  std::vector<u64> axis_sizes() const;

  struct Point {
    u64 flat = 0;
    std::vector<u64> index;           // one entry per axis
    std::vector<std::string> labels;  // one entry per axis
    ExperimentConfig config;          // base with every mutator applied
  };
  /// Materialise grid point `flat` (row-major: first axis slowest).
  Point point(u64 flat) const;

 private:
  std::string name_;
  ExperimentConfig base_;
  std::vector<Axis> axes_;
  int policy_axis_ = -1;
  std::vector<PolicyKind> policy_kinds_;
};

}  // namespace saisim::sweep
