#include "check.hpp"

#include <bit>
#include <cmath>
#include <cstdio>

namespace perfbench {

using saisim::u64;

Counters counters_of(const saisim::trace::RunTrace& run) {
  return Counters(run.counters.begin(), run.counters.end());
}

u64 counter(const Counters& c, const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

namespace {

struct Fnv {
  u64 h = 0xcbf29ce484222325ull;
  void byte(unsigned char b) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  void word(u64 v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void text(const char* s) {
    for (; *s != '\0'; ++s) byte(static_cast<unsigned char>(*s));
    byte(0);
  }
  void operator()(const char* name, double v) {
    text(name);
    word(std::bit_cast<u64>(v));
  }
  void operator()(const char* name, u64 v) {
    text(name);
    word(v);
  }
  void operator()(const char* name, saisim::Time v) {
    text(name);
    word(static_cast<u64>(v.picoseconds()));
  }
  void operator()(const char* name, const std::vector<double>& v) {
    text(name);
    word(v.size());
    for (const double d : v) word(std::bit_cast<u64>(d));
  }
};

}  // namespace

std::string fingerprint(const saisim::RunMetrics& m) {
  Fnv f;
  visit_metrics(m, f);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(f.h));
  return buf;
}

std::vector<std::string> check_run(const saisim::ExperimentConfig& cfg,
                                   const saisim::RunMetrics& m,
                                   const Counters& counters,
                                   const std::string& pinned) {
  std::vector<std::string> bad;
  auto fail = [&bad](std::string what) { bad.push_back(std::move(what)); };
  const u64 procs =
      static_cast<u64>(cfg.num_clients) * static_cast<u64>(cfg.procs_per_client);
  const u64 expect_bytes = procs * cfg.ior.total_bytes;
  if (m.total_bytes != expect_bytes) {
    fail("total_bytes " + std::to_string(m.total_bytes) + " != procs x total_bytes " +
         std::to_string(expect_bytes));
  }
  if (counter(counters, "ior.bytes_read") != expect_bytes) {
    fail("counter ior.bytes_read " +
         std::to_string(counter(counters, "ior.bytes_read")) + " != " +
         std::to_string(expect_bytes));
  }
  const u64 issued = counter(counters, "pfs.reads_issued");
  const u64 completed = counter(counters, "pfs.reads_completed");
  const u64 failed = counter(counters, "pfs.reads_failed");
  if (issued != completed + failed) {
    fail("reads issued " + std::to_string(issued) + " != completed " +
         std::to_string(completed) + " + failed " + std::to_string(failed));
  }
  if (m.failed_requests != 0) {
    fail("failed_requests " + std::to_string(m.failed_requests) + " != 0");
  }
  if (m.elapsed <= saisim::Time::zero()) fail("elapsed is not positive");
  if (!std::isfinite(m.bandwidth_mbps) || m.bandwidth_mbps <= 0.0) {
    fail("bandwidth_mbps is not a positive number");
  }
  if (!pinned.empty()) {
    const std::string fp = fingerprint(m);
    if (fp != pinned) fail("fingerprint " + fp + " != pinned " + pinned);
  }
  return bad;
}

}  // namespace perfbench
