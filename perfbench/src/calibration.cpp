#include "calibration.hpp"

#include <malloc.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

namespace perfbench {

namespace {

uint64_t lcg(uint64_t s) {
  return s * 6364136223846793005ull + 1442695040888963407ull;
}

uint64_t event_loop() {
  std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<>> events;
  std::unordered_map<uint64_t, uint64_t> state;
  uint64_t s = 7;
  for (int i = 0; i < 4096; ++i) {
    s = lcg(s);
    events.push(s >> 20);
  }
  for (int i = 0; i < 800'000; ++i) {
    const uint64_t t = events.top();
    events.pop();
    state[t & 65535] += t;
    s = lcg(s);
    events.push(t + (s >> 40));
  }
  return state.size();
}

uint64_t table_walk() {
  constexpr uint64_t kSlots = uint64_t{1} << 21;  // 16 MiB of u64
  std::vector<uint64_t> table(kSlots, 0);
  uint64_t s = 1;
  for (int i = 0; i < 1'500'000; ++i) {
    s = lcg(s);
    const uint64_t h = (s >> 33) & (kSlots - 1);
    table[h] += s;
    if (table[(h + 1) & (kSlots - 1)] & 1) ++table[h];
  }
  return table[s & (kSlots - 1)];
}

}  // namespace

double calibration_pass() {
  const auto start = std::chrono::steady_clock::now();
  volatile uint64_t sink = event_loop() + table_walk();
  (void)sink;
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // Hand the pass's memory back, so it stays out of the experiments' peak
  // resident set.
  malloc_trim(0);
  return s;
}

}  // namespace perfbench
