#include <algorithm>
#include <fstream>

#include "span_recorder.hpp"

namespace perfbench {

std::vector<uint64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<size_t>(p) < spans.size()) {
      children[static_cast<size_t>(p)].push_back(i);
    }
  }
  std::vector<uint64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<size_t>& kids = children[i];
    std::sort(kids.begin(), kids.end(), [&spans](size_t a, size_t b) {
      return spans[a].start_ns < spans[b].start_ns;
    });
    // Union of the children's intervals, clipped to this span.
    uint64_t covered = 0;
    uint64_t reach = s.start_ns;
    for (const size_t k : kids) {
      const uint64_t lo = std::max(spans[k].start_ns, reach);
      const uint64_t hi = std::min(spans[k].end_ns, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    const uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    self[i] = dur - std::min(dur, covered);
  }
  return self;
}

bool write_spans_csv(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  uint64_t t0 = UINT64_MAX;
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  const std::vector<uint64_t> self = self_times(spans);
  out << "span,parent,thread,layer,symbol,start_ns,end_ns,self_ns\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const WrappedSymbol& sym = recorder::symbol(s.symbol);
    std::string name = sym.name;
    std::replace(name.begin(), name.end(), '"', '\'');
    out << i << ',' << s.parent << ',' << s.thread << ',' << sym.layer << ",\""
        << name << "\"," << s.start_ns - t0 << ',' << s.end_ns - t0 << ','
        << self[i] << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
