#include "stats/table.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "util/assert.hpp"

namespace saisim::stats {

namespace {

/// Shortest decimal form that round-trips the exact double.
std::string exact_double(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  SAISIM_CHECK(!headers_.empty());
}

void Table::add_row(std::vector<Cell> cells) {
  SAISIM_CHECK_MSG(cells.size() == headers_.size(),
                   "row width does not match header");
  rows_.push_back(std::move(cells));
}

std::string Table::render_cell(const Cell& c, CellStyle style) {
  if (const auto* s = std::get_if<std::string>(&c)) return *s;
  char buf[64];
  if (const auto* d = std::get_if<double>(&c)) {
    if (style == CellStyle::kExact) return exact_double(*d);
    std::snprintf(buf, sizeof buf, "%.2f", *d);
    return buf;
  }
  std::snprintf(buf, sizeof buf, "%lld",
                static_cast<long long>(std::get<i64>(c)));
  return buf;
}

std::string Table::to_text() const {
  std::vector<u64> widths(headers_.size());
  std::vector<std::vector<std::string>> rendered;
  rendered.reserve(rows_.size());
  for (u64 c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    std::vector<std::string> r;
    r.reserve(row.size());
    for (u64 c = 0; c < row.size(); ++c) {
      r.push_back(render_cell(row[c]));
      widths[c] = std::max<u64>(widths[c], r.back().size());
    }
    rendered.push_back(std::move(r));
  }

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (u64 c = 0; c < cells.size(); ++c) {
      os << (c ? "  " : "");
      os << cells[c];
      for (u64 pad = cells[c].size(); pad < widths[c]; ++pad) os << ' ';
    }
    os << '\n';
  };
  emit_row(headers_);
  std::string rule;
  for (u64 c = 0; c < headers_.size(); ++c) {
    if (c) rule += "  ";
    rule.append(widths[c], '-');
  }
  os << rule << '\n';
  for (const auto& r : rendered) emit_row(r);
  return os.str();
}

std::string Table::to_csv(CellStyle style) const {
  auto escape = [](const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos) return s;
    std::string out = "\"";
    for (char ch : s) {
      if (ch == '"') out += '"';
      out += ch;
    }
    out += '"';
    return out;
  };
  std::ostringstream os;
  for (u64 c = 0; c < headers_.size(); ++c)
    os << (c ? "," : "") << escape(headers_[c]);
  os << '\n';
  for (const auto& row : rows_) {
    for (u64 c = 0; c < row.size(); ++c)
      os << (c ? "," : "") << escape(render_cell(row[c], style));
    os << '\n';
  }
  return os.str();
}

std::string Table::to_json(std::string_view name) const {
  std::ostringstream os;
  os << "{\"name\":\"" << json_escape(name) << "\",\"columns\":[";
  for (u64 c = 0; c < headers_.size(); ++c) {
    os << (c ? "," : "") << '"' << json_escape(headers_[c]) << '"';
  }
  os << "],\"rows\":[";
  for (u64 r = 0; r < rows_.size(); ++r) {
    os << (r ? "," : "") << '{';
    for (u64 c = 0; c < rows_[r].size(); ++c) {
      os << (c ? "," : "") << '"' << json_escape(headers_[c]) << "\":";
      const Cell& cell = rows_[r][c];
      if (const auto* s = std::get_if<std::string>(&cell)) {
        os << '"' << json_escape(*s) << '"';
      } else if (const auto* d = std::get_if<double>(&cell)) {
        if (std::isfinite(*d)) {
          os << render_cell(cell, CellStyle::kExact);
        } else {
          os << "null";
        }
      } else {
        os << render_cell(cell, CellStyle::kExact);
      }
    }
    os << '}';
  }
  os << "]}";
  return os.str();
}

}  // namespace saisim::stats
