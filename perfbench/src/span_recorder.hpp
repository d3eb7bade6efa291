// Per-layer spans of the traced benchmark build.
//
// In perfbench_traced, every call that crosses into a layer's out-of-line
// function goes through a link-time trampoline (tools/gen_wraps.py,
// trampoline.S) that opens a span on entry and closes it on return. The
// recorder keeps, per thread, a stack of open spans and per-symbol totals
// (calls, self time, total time), and stores the first spans it sees in
// memory so they can be written out when the run ends. perfbench_driver
// links span_recorder_off.cpp instead, where every call is a no-op.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One wrapped entry point: the layer its translation unit belongs to and
/// its demangled name.
struct WrappedSymbol {
  const char* layer;
  const char* name;
};

/// One call into a layer, on one thread. `parent` indexes the enclosing
/// span in the same list (-1 for a root); times are steady_clock ns.
struct Span {
  uint32_t symbol = 0;
  uint32_t thread = 0;
  int64_t parent = -1;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Self time of each span: its duration minus the part of that interval
/// its child spans cover (children that overlap are counted once).
std::vector<uint64_t> self_times(const std::vector<Span>& spans);

struct SymbolStats {
  uint64_t calls = 0;
  uint64_t self_ns = 0;
};

namespace recorder {

/// False in the untraced build.
bool available();
/// Open spans only while enabled. Calls already in progress when the flag
/// flips are closed normally.
void set_enabled(bool on);
const WrappedSymbol& symbol(unsigned id);
/// Totals per symbol id (an empty list in the untraced build), summed over
/// every thread that entered a span.
std::vector<SymbolStats> symbol_stats();
/// Spans kept in memory (the first ones recorded on each thread, up to a
/// fixed cap), and how many were seen beyond the cap.
std::vector<Span> kept_spans();
uint64_t dropped_spans();

}  // namespace recorder

/// Writes `spans` as CSV (span,parent,thread,layer,symbol,start_ns,end_ns,
/// self_ns), with start times relative to the first span.
bool write_spans_csv(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
