// Column-aligned text tables and CSV output for the figure harnesses.
//
// Every bench prints its figure as one of these tables so the series the
// paper plots can be read (and diffed) directly from the bench output.
#pragma once

#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/types.hpp"

namespace saisim::stats {

/// How numeric cells are rendered. Display style rounds doubles to two
/// decimals for humans; exact style uses the shortest round-trip form, for
/// machine consumers (CSV/JSON trajectories).
enum class CellStyle { kDisplay, kExact };

class Table {
 public:
  using Cell = std::variant<std::string, double, i64>;

  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<Cell> cells);

  /// Render with aligned columns.
  std::string to_text() const;
  /// Render as RFC-4180-ish CSV.
  std::string to_csv(CellStyle style = CellStyle::kDisplay) const;
  /// Render as one JSON object: {"name":…, "columns":[…], "rows":[{…}…]}.
  /// Doubles use the shortest round-trip form; non-finite values become
  /// null; strings are escaped per RFC 8259.
  std::string to_json(std::string_view name = {}) const;

 private:
  static std::string render_cell(const Cell& c,
                                 CellStyle style = CellStyle::kDisplay);

  std::vector<std::string> headers_;
  std::vector<std::vector<Cell>> rows_;
};

/// JSON string escaping per RFC 8259 (quotes, backslash, control chars).
std::string json_escape(std::string_view s);

}  // namespace saisim::stats
