// The benchmark's own tests: self-time derivation on synthetic nested spans,
// and the output check rejecting a RunMetrics with one perturbed field.
// (run.py --selftest also runs the driver's smoke mode: every workload at its
// smallest size, checked, with shard identity.)
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "check.hpp"
#include "span_recorder.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

using perfbench::Span;

void test_self_times() {
  // root [0,100) with children a [10,40) and b [50,90); a has child
  // c [15,25); d [200,230) is a second root with no children.
  const std::vector<Span> spans = {
      {0, 0, -1, 0, 100},  {1, 0, 0, 10, 40}, {2, 0, 1, 15, 25},
      {3, 0, 0, 50, 90},   {4, 0, -1, 200, 230},
  };
  const std::vector<uint64_t> self = perfbench::self_times(spans);
  const std::vector<uint64_t> want = {30, 20, 10, 40, 30};
  expect(self == want, "self times of nested spans");
  uint64_t sum = 0;
  for (const uint64_t s : self) sum += s;
  expect(sum == 130, "self times add up to the root spans' durations");

  // Overlapping children (spans from a caller that nests oddly) are
  // counted once, and a child reaching past its parent is clipped.
  const std::vector<Span> odd = {
      {0, 0, -1, 0, 100}, {1, 0, 0, 10, 60}, {2, 0, 0, 40, 120},
  };
  expect(perfbench::self_times(odd)[0] == 10, "overlapping children");
  expect(perfbench::self_times({}).empty(), "no spans");
}

// Perturbs the `index`-th field of `m` by the smallest representable step.
struct Perturb {
  int index;
  int at = 0;
  std::string name;
  void operator()(const char* n, double& v) {
    if (at++ == index) {
      v = std::nextafter(v, 1e300);
      name = n;
    }
  }
  void operator()(const char* n, saisim::u64& v) {
    if (at++ == index) {
      ++v;
      name = n;
    }
  }
  void operator()(const char* n, saisim::Time& v) {
    if (at++ == index) {
      v = v + saisim::Time::ps(1);
      name = n;
    }
  }
  void operator()(const char* n, std::vector<double>& v) {
    if (at++ == index) {
      v.back() = std::nextafter(v.back(), 1e300);
      name = n;
    }
  }
};

void test_output_check() {
  const perfbench::Workload* w = perfbench::find_workload("paper_pair_48");
  expect(w != nullptr, "paper_pair_48 exists");
  if (w == nullptr) return;
  const saisim::ExperimentConfig cfg = perfbench::make_config(
      *w, 42, w->smoke_transfers_per_proc, saisim::PolicyKind::kSourceAware);
  saisim::trace::RunTrace capture;
  const saisim::RunMetrics m = saisim::run_experiment(cfg, &capture);
  const perfbench::Counters c = perfbench::counters_of(capture);
  const std::string pinned = perfbench::fingerprint(m);
  expect(perfbench::check_run(cfg, m, c, pinned).empty(),
         "an unperturbed run passes its own pin");

  int fields = 0;
  perfbench::visit_metrics(m, [&fields](const char*, const auto&) { ++fields; });
  expect(fields >= 22, "every RunMetrics field is visited");
  for (int i = 0; i < fields; ++i) {
    saisim::RunMetrics bad = m;
    Perturb p{i, 0, {}};
    perfbench::visit_metrics(bad, p);
    expect(perfbench::fingerprint(bad) != pinned,
           "perturbing " + p.name + " changes the fingerprint");
    expect(!perfbench::check_run(cfg, bad, c, pinned).empty(),
           "the check rejects a perturbed " + p.name);
  }

  // Invariants hold without a pin, and catch a lost transfer.
  perfbench::Counters lost = c;
  lost["ior.bytes_read"] -= cfg.ior.transfer_size;
  expect(perfbench::check_run(cfg, m, c, "").empty(), "invariants hold");
  expect(!perfbench::check_run(cfg, m, lost, "").empty(),
         "a missing transfer is rejected");
  perfbench::Counters unbalanced = c;
  unbalanced["pfs.reads_issued"] += 1;
  expect(!perfbench::check_run(cfg, m, unbalanced, "").empty(),
         "reads issued != completed + failed is rejected");
}

}  // namespace

int main() {
  test_self_times();
  test_output_check();
  if (g_failures == 0) std::printf("perfbench selftest: ok\n");
  return g_failures == 0 ? 0 : 1;
}
