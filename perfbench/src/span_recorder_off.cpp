// The recorder of the untraced build: nothing is wrapped, nothing recorded.
#include "span_recorder.hpp"

namespace perfbench::recorder {

bool available() { return false; }
void set_enabled(bool) {}
const WrappedSymbol& symbol(unsigned) {
  static const WrappedSymbol kNone{"", ""};
  return kNone;
}
std::vector<SymbolStats> symbol_stats() { return {}; }
std::vector<Span> kept_spans() { return {}; }
uint64_t dropped_spans() { return 0; }

}  // namespace perfbench::recorder
