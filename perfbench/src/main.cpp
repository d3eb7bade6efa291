// The benchmark's driver: one process, serial experiments.
//
//   perfbench_driver --workload NAME --seed N --seconds S [--pin POLICY=FP]...
//   perfbench_driver --smoke --seed N
//
// A run resolves and validates the workload's configurations and runs one
// warm-up experiment at the smallest size, three times (the set-up); then it
// runs timed experiments until S seconds have passed. A calibration pass
// (calibration.hpp) follows each set-up and each experiment.
// Every run goes through run_experiment's capture overload and is checked
// (check.hpp). The result is one JSON object on the last line of stdout;
// run.py turns it into the benchmark's metrics. Linked as perfbench_traced,
// the same driver also reports per-layer span totals.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "calibration.hpp"
#include "check.hpp"
#include "span_recorder.hpp"
#include "util/reflect.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using saisim::ExperimentConfig;
using saisim::PolicyKind;
using saisim::RunMetrics;
using saisim::u64;
using Clock = std::chrono::steady_clock;

constexpr int kSetups = 3;
constexpr size_t kMaxReportedFailures = 8;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// The process's peak resident set since the last reset_peak_rss(), in KiB.
// Resetting before each experiment keeps the calibration passes between
// experiments out of the peak. Falls back to the whole-process peak where
// the kernel offers no reset.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

u64 peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<u64>(ru.ru_maxrss);
}

struct Options {
  std::string workload;
  bool smoke = false;
  u64 seed = 42;
  double seconds = 10.0;
  std::map<std::string, std::string> pins;  // policy name -> fingerprint
  std::string spans_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver (--workload NAME | "
               "--smoke) [--seed N] [--seconds S] [--pin POLICY=FP]... "
               "[--spans-out FILE]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(value().c_str());
    } else if (a == "--pin") {
      const std::string p = value();
      const size_t eq = p.find('=');
      if (eq == std::string::npos) usage("--pin takes POLICY=FINGERPRINT");
      o.pins[p.substr(0, eq)] = p.substr(eq + 1);
    } else if (a == "--spans-out") {
      o.spans_out = value();
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!o.smoke && o.workload.empty()) usage("no workload given");
  return o;
}

// Minimal JSON text builder: callers emit keys and values in order.
class Json {
 public:
  Json& open(char c) {
    sep();
    out_ += c;
    first_ = true;
    return *this;
  }
  Json& close(char c) {
    out_ += c;
    first_ = false;
    return *this;
  }
  Json& key(const std::string& k) {
    sep();
    str_raw(k);
    out_ += ':';
    first_ = true;
    return *this;
  }
  Json& str(const std::string& s) {
    sep();
    str_raw(s);
    return *this;
  }
  Json& num(double v) {
    sep();
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    out_ += buf;
    return *this;
  }
  Json& num(u64 v) {
    sep();
    out_ += std::to_string(v);
    return *this;
  }
  Json& boolean(bool b) {
    sep();
    out_ += b ? "true" : "false";
    return *this;
  }
  const std::string& text() const { return out_; }

 private:
  void sep() {
    if (!first_) out_ += ',';
    first_ = false;
  }
  void str_raw(const std::string& s) {
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out_ += ' ';
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }
  std::string out_;
  bool first_ = true;
};

std::string policy_label(PolicyKind p) {
  return saisim::kPolicyNames[static_cast<int>(p)];
}

struct RunResult {
  RunMetrics metrics;
  Counters counters;
  std::vector<std::string> failures;
};

RunResult run_checked(const ExperimentConfig& cfg, const std::string& pinned) {
  RunResult r;
  saisim::trace::RunTrace capture;
  r.metrics = saisim::run_experiment(cfg, &capture);
  r.counters = counters_of(capture);
  r.failures = check_run(cfg, r.metrics, r.counters, pinned);
  return r;
}

std::vector<ExperimentConfig> resolve(const Workload& w, u64 seed,
                                      u64 transfers,
                                      std::vector<std::string>* errors) {
  std::vector<ExperimentConfig> cfgs;
  for (const PolicyKind p : w.policies) {
    cfgs.push_back(make_config(w, seed, transfers, p));
    for (const std::string& e : saisim::util::reflect::validate_config(cfgs.back())) {
      errors->push_back(w.name + ": " + e);
    }
  }
  return cfgs;
}

void add_failures(std::vector<std::string>* into, const std::string& prefix,
                  const std::vector<std::string>& what) {
  for (const std::string& f : what) {
    if (into->size() < kMaxReportedFailures) into->push_back(prefix + f);
  }
}

int run_smoke(const Options& o) {
  bool ok = true;
  std::map<std::string, std::vector<std::string>> fps;
  Json j;
  j.open('{').key("smoke").open('[');
  for (const Workload& w : all_workloads()) {
    std::vector<std::string> failures;
    const auto cfgs = resolve(w, o.seed, w.smoke_transfers_per_proc, &failures);
    if (failures.empty()) {
      for (const ExperimentConfig& cfg : cfgs) {
        const RunResult r = run_checked(cfg, "");
        add_failures(&failures, policy_label(cfg.policy) + ": ", r.failures);
        fps[w.name].push_back(fingerprint(r.metrics));
      }
    }
    if (!w.same_outputs_as.empty() && fps[w.name] != fps[w.same_outputs_as]) {
      failures.push_back("outputs differ from " + w.same_outputs_as);
    }
    ok = ok && failures.empty();
    j.open('{').key("workload").str(w.name).key("ok").boolean(failures.empty());
    j.key("fingerprints").open('[');
    for (const std::string& fp : fps[w.name]) j.str(fp);
    j.close(']').key("failures").open('[');
    for (const std::string& f : failures) j.str(f);
    j.close(']').close('}');
  }
  j.close(']').key("ok").boolean(ok).close('}');
  std::printf("%s\n", j.text().c_str());
  return ok ? 0 : 1;
}

int run_timed(const Options& o, Clock::time_point process_start) {
  const Workload* w = find_workload(o.workload);
  if (w == nullptr) usage(("unknown workload " + o.workload).c_str());

  // Set-up: resolve + validate + one smallest-size warm-up experiment; the
  // first one counts from the entry to main(). A calibration pass follows each
  // and is not part of its time.
  std::vector<double> setup_s;
  std::vector<double> setup_calibration_s;  // the pass after each set-up
  std::vector<std::string> setup_failures;
  std::vector<ExperimentConfig> cfgs;
  Clock::time_point t = process_start;
  for (int i = 0; i < kSetups; ++i) {
    std::vector<std::string> errors;
    cfgs = resolve(*w, o.seed, w->transfers_per_proc, &errors);
    const auto warm = resolve(*w, o.seed, w->smoke_transfers_per_proc, &errors);
    if (!errors.empty()) {
      for (const std::string& e : errors) std::fprintf(stderr, "%s\n", e.c_str());
      return 2;
    }
    for (const ExperimentConfig& cfg : warm) {
      add_failures(&setup_failures, "warm-up " + policy_label(cfg.policy) + ": ",
                   run_checked(cfg, "").failures);
    }
    setup_s.push_back(seconds_since(t));
    setup_calibration_s.push_back(calibration_pass());
    t = Clock::now();
  }

  // Timed experiments. The first one's fingerprints become the reference
  // the later ones (identical inputs) must reproduce.
  std::vector<double> wall_s;
  // calibration_s[i] is the mean of the passes just before and just after
  // experiment i.
  std::vector<double> calibration_s;
  u64 peak_kb = 0;
  double pass_before = setup_calibration_s.back();
  double sim_s = 0.0;
  u64 failed = 0;
  std::vector<std::string> failures;
  std::vector<std::string> first_fps;
  std::vector<RunMetrics> first_metrics;
  Counters first_counters;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(o.seconds));
  do {
    std::vector<RunResult> results;
    double wall = 0.0;
    reset_peak_rss();
    for (const ExperimentConfig& cfg : cfgs) {
      const auto it = o.pins.find(policy_label(cfg.policy));
      const Clock::time_point s = Clock::now();
      recorder::set_enabled(true);
      saisim::trace::RunTrace capture;
      RunResult r;
      r.metrics = saisim::run_experiment(cfg, &capture);
      recorder::set_enabled(false);
      wall += seconds_since(s);
      r.counters = counters_of(capture);
      r.failures = check_run(cfg, r.metrics, r.counters,
                             it == o.pins.end() ? "" : it->second);
      results.push_back(std::move(r));
    }
    const bool first = wall_s.empty();
    bool exp_ok = true;
    double sim = 0.0;
    for (size_t i = 0; i < results.size(); ++i) {
      RunResult& r = results[i];
      const std::string fp = fingerprint(r.metrics);
      if (first) {
        first_fps.push_back(fp);
        first_metrics.push_back(r.metrics);
        for (const auto& [k, v] : r.counters) first_counters[k] += v;
      } else if (fp != first_fps[i]) {
        r.failures.push_back("fingerprint " + fp +
                             " differs from the run's first experiment " +
                             first_fps[i]);
      }
      add_failures(&failures, policy_label(cfgs[i].policy) + ": ", r.failures);
      exp_ok = exp_ok && r.failures.empty();
      sim += r.metrics.elapsed.seconds();
    }
    if (!exp_ok) ++failed;
    wall_s.push_back(wall);
    peak_kb = std::max(peak_kb, peak_rss_kb());
    const double pass_after = calibration_pass();
    calibration_s.push_back((pass_before + pass_after) / 2);
    pass_before = pass_after;
    sim_s = sim;
  } while (Clock::now() < deadline);

  Json j;
  j.open('{').key("workload").str(w->name).key("seed").num(o.seed);
  j.key("traced").boolean(recorder::available());
  j.key("setup_s").open('[');
  for (const double s : setup_s) j.num(s);
  j.close(']').key("setup_calibration_s").open('[');
  for (const double s : setup_calibration_s) j.num(s);
  j.close(']').key("setup_failures").open('[');
  for (const std::string& f : setup_failures) j.str(f);
  j.close(']');
  j.key("experiments").num(static_cast<u64>(wall_s.size()));
  j.key("failed").num(failed).key("failures").open('[');
  for (const std::string& f : failures) j.str(f);
  j.close(']').key("wall_s").open('[');
  for (const double s : wall_s) j.num(s);
  j.close(']').key("calibration_s").open('[');
  for (const double s : calibration_s) j.num(s);
  j.close(']').key("sim_s").num(sim_s);
  j.key("peak_rss_kb").num(peak_kb);
  j.key("runs").open('[');
  for (size_t i = 0; i < first_metrics.size(); ++i) {
    const RunMetrics& m = first_metrics[i];
    j.open('{').key("policy").str(policy_label(cfgs[i].policy));
    j.key("fingerprint").str(first_fps[i]);
    j.key("bandwidth_mbps").num(m.bandwidth_mbps);
    j.key("p99_read_latency_us").num(m.p99_read_latency_us);
    j.key("mean_read_latency_us").num(m.mean_read_latency_us);
    j.key("l2_miss_rate").num(m.l2_miss_rate);
    j.key("hedges_issued").num(m.hedges_issued);
    j.key("hedges_won").num(m.hedges_won);
    j.close('}');
  }
  j.close(']').key("counters").open('{');
  for (const auto& [k, v] : first_counters) j.key(k).num(v);
  j.close('}');
  if (recorder::available()) {
    // Per-layer and per-symbol totals over all timed experiments.
    const std::vector<SymbolStats> stats = recorder::symbol_stats();
    std::map<std::string, SymbolStats> layers;
    std::vector<unsigned> order;
    for (unsigned i = 0; i < stats.size(); ++i) {
      SymbolStats& l = layers[recorder::symbol(i).layer];
      l.calls += stats[i].calls;
      l.self_ns += stats[i].self_ns;
      if (stats[i].calls > 0) order.push_back(i);
    }
    std::sort(order.begin(), order.end(), [&stats](unsigned a, unsigned b) {
      return stats[a].self_ns > stats[b].self_ns;
    });
    j.key("layers").open('{');
    for (const auto& [name, l] : layers) {
      j.key(name).open('{').key("calls").num(l.calls);
      j.key("self_ns").num(l.self_ns).close('}');
    }
    j.close('}').key("top_symbols").open('[');
    for (size_t k = 0; k < std::min<size_t>(order.size(), 15); ++k) {
      const unsigned i = order[k];
      j.open('{').key("layer").str(recorder::symbol(i).layer);
      j.key("name").str(recorder::symbol(i).name);
      j.key("calls").num(stats[i].calls).key("self_ns").num(stats[i].self_ns);
      j.close('}');
    }
    j.close(']');
    const std::vector<Span> spans = recorder::kept_spans();
    j.key("kept_spans").num(static_cast<u64>(spans.size()));
    j.key("dropped_spans").num(recorder::dropped_spans());
    if (!o.spans_out.empty() && !write_spans_csv(o.spans_out, spans)) {
      std::fprintf(stderr, "cannot write %s\n", o.spans_out.c_str());
      return 2;
    }
  }
  j.close('}');
  std::printf("%s\n", j.text().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto process_start = perfbench::Clock::now();
  const perfbench::Options o = perfbench::parse(argc, argv);
  return o.smoke ? perfbench::run_smoke(o) : perfbench::run_timed(o, process_start);
}
