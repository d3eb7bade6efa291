#include "sweep/export.hpp"

#include <type_traits>

namespace saisim::sweep {

namespace {

namespace reflect = util::reflect;

/// Appends one cell per described RunMetrics field: doubles as they are,
/// Time as double µs, every other integer as i64.
struct CellWriter : reflect::VisitorBase<CellWriter> {
  std::vector<stats::Table::Cell>& row;

  template <class A>
  void int_field(const reflect::FieldInfo&, A a) {
    if constexpr (std::is_same_v<A, reflect::detail::TimeAccess>) {
      row.emplace_back(Time::ps(a.get()).microseconds());
    } else {
      row.emplace_back(a.get());
    }
  }
  template <class A>
  void f64_field(const reflect::FieldInfo&, A a) {
    row.emplace_back(a.get());
  }
};

}  // namespace

std::vector<std::string> metric_column_names() {
  std::vector<std::string> names;
  for (reflect::FieldDesc& d : reflect::list_fields(RunMetrics{})) {
    names.push_back(std::move(d.path));
  }
  return names;
}

stats::Table to_table(const SweepResult& res) {
  std::vector<std::string> headers = res.axis_names;
  const std::vector<std::string> columns = metric_column_names();
  headers.insert(headers.end(), columns.begin(), columns.end());
  stats::Table t(std::move(headers));
  for (u64 i = 0; i < res.size(); ++i) {
    std::vector<stats::Table::Cell> row(res.points[i].labels.begin(),
                                        res.points[i].labels.end());
    CellWriter w{{}, row};
    describe(w, const_cast<RunMetrics&>(res.metrics[i]));
    t.add_row(std::move(row));
  }
  return t;
}

std::string to_csv(const SweepResult& res) {
  return to_table(res).to_csv(stats::CellStyle::kExact);
}

std::string to_json(const SweepResult& res) {
  return to_table(res).to_json(res.name);
}

std::string to_json(const std::vector<const SweepResult*>& sweeps) {
  std::string out = "{\"sweeps\":[";
  for (u64 i = 0; i < sweeps.size(); ++i) {
    if (i) out += ',';
    out += to_json(*sweeps[i]);
  }
  out += "]}";
  return out;
}

std::string render(const SweepResult& res, Format format) {
  switch (format) {
    case Format::kText: return to_table(res).to_text();
    case Format::kCsv: return to_csv(res);
    case Format::kJson: return to_json(res);
  }
  return {};
}

}  // namespace saisim::sweep
