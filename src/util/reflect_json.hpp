// Exact flat-key JSON dump/load for reflected configs.
//
// The dump is one JSON object whose keys are the dotted field paths in
// describe() order:
//
//   {
//     "num_clients": 1,
//     "client.cores": 8,
//     "policy": "irqbalance",
//     ...
//   }
//
// Values are exact: integers (and Time/Cycles/Bandwidth/Frequency in their
// canonical unit) in decimal, doubles in shortest round-trip form
// (std::to_chars/from_chars), bools as true/false, enums as their name
// string. dump → load → dump is therefore byte-identical, and a loaded
// config fingerprints — and simulates — exactly like the original, which
// is what lets any sweep export or BENCH_*.json replay from a file.
//
// Loading is override-style: keys apply on top of whatever `cfg` already
// holds, so a partial file is a valid override set. Unknown keys, type
// mismatches, range violations, and post-load validation failures are all
// reported with the dotted path.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "util/reflect.hpp"

namespace saisim::util::reflect {

/// One "key": value pair of a flat JSON object. `quoted` records whether
/// the value was a JSON string (enum names) or a bare literal.
struct JsonEntry {
  std::string key;
  std::string value;
  bool quoted = false;
};

/// Parses a flat one-level JSON object into key/value entries. Returns an
/// error description, or empty string on success. Only the subset the
/// config dump emits is understood: string keys, and number / string /
/// boolean values.
std::string parse_flat_json(std::string_view text,
                            std::vector<JsonEntry>* entries);

/// Serialises every described field of `cfg` as a flat JSON object.
class JsonWriter : public VisitorBase<JsonWriter> {
 public:
  template <class A>
  void int_field(const FieldInfo& f, A a) {
    add(f.name, std::to_string(a.get()));
  }
  template <class A>
  void f64_field(const FieldInfo& f, A a) {
    add(f.name, render_f64(a.get()));
  }
  template <class A>
  void bool_field(const FieldInfo& f, A a) {
    add(f.name, a.get() ? "true" : "false");
  }
  template <class A>
  void enum_field(const FieldInfo& f, A a, EnumNames names) {
    const i64 v = a.get();
    if (v >= 0 && v < names.count) {
      add(f.name, '"' + std::string(names.names[v]) + '"');
    } else {
      add(f.name, std::to_string(v));  // out-of-range enum: raw integer
    }
  }

  std::string take() {
    if (out_.empty()) return "{}\n";
    out_.insert(0, "{\n");
    out_ += "\n}\n";
    return std::move(out_);
  }

 private:
  void add(const char* name, const std::string& value) {
    if (!out_.empty()) out_ += ",\n";
    out_ += "  \"";
    out_ += path(name);
    out_ += "\": ";
    out_ += value;
  }
  std::string out_;
};

template <class Config>
std::string config_to_json(const Config& cfg) {
  JsonWriter v;
  describe(v, const_cast<Config&>(cfg));
  return v.take();
}

struct LoadResult {
  std::vector<std::string> errors;  // empty on success
};

/// Applies a flat-key JSON object on top of `cfg`, then validates the
/// result. Every error names the offending dotted path.
template <class Config>
LoadResult config_from_json(Config& cfg, std::string_view text) {
  LoadResult res;
  std::vector<JsonEntry> entries;
  const std::string parse_error = parse_flat_json(text, &entries);
  if (!parse_error.empty()) {
    res.errors.push_back(parse_error);
    return res;
  }
  for (const JsonEntry& e : entries) {
    const SetStatus st = set_field(cfg, e.key, e.value);
    if (!st.ok()) res.errors.push_back(st.message);
  }
  for (std::string& err : validate_config(cfg)) {
    res.errors.push_back(std::move(err));
  }
  return res;
}

}  // namespace saisim::util::reflect
