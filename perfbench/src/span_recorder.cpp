// The span recorder behind the generated trampolines (traced build only).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>

#include "span_recorder.hpp"

namespace perfbench {

extern const WrappedSymbol kWrappedSymbols[];
extern const unsigned kNumWrappedSymbols;

namespace {

// Spans kept in memory per thread (32 B each); totals cover every call.
constexpr size_t kMaxKeptSpans = size_t{1} << 18;

struct Frame {
  uint32_t symbol;
  int64_t span;  // index into ThreadState::spans, -1 when not kept
  uint64_t start_ns;
  uint64_t child_ns;  // time covered by completed child spans
  void* return_to;
};

struct ThreadState {
  uint32_t index = 0;
  std::vector<Frame> stack;
  std::vector<SymbolStats> stats;
  std::vector<Span> spans;
  uint64_t dropped = 0;
};

std::atomic<bool> g_enabled{false};
std::mutex g_threads_mu;
// Never freed: worker threads exit before their totals are read.
std::vector<ThreadState*> g_threads;
thread_local ThreadState* tl_state = nullptr;

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
}

ThreadState* register_thread() {
  auto* ts = new ThreadState;
  ts->stack.reserve(256);
  ts->stats.resize(kNumWrappedSymbols);
  ts->spans.reserve(kMaxKeptSpans);
  const std::lock_guard<std::mutex> lock(g_threads_mu);
  ts->index = static_cast<uint32_t>(g_threads.size());
  g_threads.push_back(ts);
  tl_state = ts;
  return ts;
}

}  // namespace

namespace recorder {

bool available() { return true; }

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

const WrappedSymbol& symbol(unsigned id) { return kWrappedSymbols[id]; }

std::vector<SymbolStats> symbol_stats() {
  std::vector<SymbolStats> out(kNumWrappedSymbols);
  const std::lock_guard<std::mutex> lock(g_threads_mu);
  for (const ThreadState* ts : g_threads) {
    for (size_t i = 0; i < out.size(); ++i) {
      out[i].calls += ts->stats[i].calls;
      out[i].self_ns += ts->stats[i].self_ns;
    }
  }
  return out;
}

std::vector<Span> kept_spans() {
  std::vector<Span> out;
  const std::lock_guard<std::mutex> lock(g_threads_mu);
  for (const ThreadState* ts : g_threads) {
    const int64_t base = static_cast<int64_t>(out.size());
    for (Span s : ts->spans) {
      if (s.parent >= 0) s.parent += base;
      out.push_back(s);
    }
  }
  return out;
}

uint64_t dropped_spans() {
  uint64_t n = 0;
  const std::lock_guard<std::mutex> lock(g_threads_mu);
  for (const ThreadState* ts : g_threads) n += ts->dropped;
  return n;
}

}  // namespace recorder
}  // namespace perfbench

using perfbench::Frame;
using perfbench::ThreadState;

// Called by pb_trampoline_enter before the real function runs. Returns 1
// when a span was opened (the trampoline then routes the return through
// pb_trampoline_exit), 0 to run the function untraced.
extern "C" int pb_hook_enter(uint32_t symbol, void* return_to) {
  if (!perfbench::g_enabled.load(std::memory_order_relaxed)) return 0;
  ThreadState* ts = perfbench::tl_state;
  if (ts == nullptr) ts = perfbench::register_thread();
  int64_t span = -1;
  if (ts->spans.size() < perfbench::kMaxKeptSpans) {
    span = static_cast<int64_t>(ts->spans.size());
    const int64_t parent = ts->stack.empty() ? -1 : ts->stack.back().span;
    ts->spans.push_back({symbol, ts->index, parent, 0, 0});
  } else {
    ++ts->dropped;
  }
  ts->stack.push_back({symbol, span, 0, 0, return_to});
  // Stamp last, so the bookkeeping above stays outside the span.
  ts->stack.back().start_ns = perfbench::now_ns();
  return 1;
}

// Called by pb_trampoline_exit when the real function returns. Closes the
// innermost span and returns the caller's original return address.
extern "C" void* pb_hook_exit() {
  const uint64_t end = perfbench::now_ns();
  ThreadState* ts = perfbench::tl_state;
  const Frame f = ts->stack.back();
  ts->stack.pop_back();
  const uint64_t dur = end - f.start_ns;
  perfbench::SymbolStats& st = ts->stats[f.symbol];
  ++st.calls;
  st.self_ns += dur - std::min(dur, f.child_ns);
  if (!ts->stack.empty()) ts->stack.back().child_ns += dur;
  if (f.span >= 0) {
    perfbench::Span& s = ts->spans[static_cast<size_t>(f.span)];
    s.start_ns = f.start_ns;
    s.end_ns = end;
  }
  return f.return_to;
}
