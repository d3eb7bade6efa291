#include "sweep/spec.hpp"

#include "util/assert.hpp"

namespace saisim::sweep {

SweepSpec::SweepSpec(std::string name, ExperimentConfig base)
    : name_(std::move(name)), base_(base) {}

SweepSpec& SweepSpec::axis(Axis a) {
  SAISIM_CHECK_MSG(!a.values.empty(), "sweep axis must have values");
  axes_.push_back(std::move(a));
  return *this;
}

SweepSpec& SweepSpec::policies(std::vector<PolicyKind> kinds) {
  SAISIM_CHECK_MSG(policy_axis_ < 0, "policies() may only be called once");
  SAISIM_CHECK_MSG(!kinds.empty(), "policy axis must have values");
  policy_axis_ = static_cast<int>(axes_.size());
  policy_kinds_ = kinds;
  Axis a;
  a.name = "policy";
  a.values.reserve(kinds.size());
  for (PolicyKind k : kinds) {
    a.values.push_back(AxisValue{std::string(policy_name(k)),
                                 [k](ExperimentConfig& c) { c.policy = k; }});
  }
  axes_.push_back(std::move(a));
  return *this;
}

u64 SweepSpec::size() const {
  u64 n = 1;
  for (const Axis& a : axes_) n *= a.values.size();
  return n;
}

std::vector<u64> SweepSpec::axis_sizes() const {
  std::vector<u64> sizes;
  sizes.reserve(axes_.size());
  for (const Axis& a : axes_) sizes.push_back(a.values.size());
  return sizes;
}

SweepSpec::Point SweepSpec::point(u64 flat) const {
  SAISIM_CHECK_MSG(flat < size(), "sweep point index out of range");
  Point p;
  p.flat = flat;
  p.index.resize(axes_.size());
  p.config = base_;
  // Row-major decomposition: the last axis varies fastest.
  u64 rem = flat;
  for (u64 i = axes_.size(); i-- > 0;) {
    const u64 n = axes_[i].values.size();
    p.index[i] = rem % n;
    rem /= n;
  }
  p.labels.reserve(axes_.size());
  for (u64 i = 0; i < axes_.size(); ++i) {
    const AxisValue& v = axes_[i].values[p.index[i]];
    p.labels.push_back(v.label);
    if (v.apply) v.apply(p.config);
  }
  return p;
}

}  // namespace saisim::sweep
