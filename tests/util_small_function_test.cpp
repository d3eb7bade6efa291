// SmallFunction: the move-only callable behind every event callback. Moves
// relocate, by the callable's move constructor or, for a trivially
// copyable callable and for a heap box, by copying bytes; either way each
// callable must be destroyed exactly once and arrive intact.
#include "util/small_function.hpp"

#include <gtest/gtest.h>

#include <array>
#include <type_traits>
#include <utility>
#include <vector>

namespace saisim {
namespace {

using Fn = SmallFunction<int(int), 48>;

/// A capture that counts its destructions (moved-from shells included, so
/// a live copy is destroyed exactly once when the count equals the moves
/// plus one).
struct Counted {
  int* destroyed;
  int* live;
  int value;

  Counted(int* d, int* l, int v) : destroyed(d), live(l), value(v) {
    ++*live;
  }
  Counted(Counted&& o) noexcept
      : destroyed(o.destroyed), live(o.live), value(o.value) {
    ++*live;
  }
  Counted(const Counted&) = delete;
  ~Counted() {
    ++*destroyed;
    --*live;
  }
  int operator()(int x) const { return value + x; }
};

/// Moves `f` through a chain of SmallFunctions: move construction, move
/// assignment over an empty and over a full target, and a vector that
/// reallocates.
Fn move_chain(Fn f) {
  Fn a(std::move(f));
  Fn b;
  b = std::move(a);
  Fn c([](int x) { return -x; });
  c = std::move(b);
  std::vector<Fn> v;
  v.push_back(std::move(c));
  for (int i = 0; i < 8; ++i) v.emplace_back([i](int x) { return x * i; });
  Fn out(std::move(v.front()));
  EXPECT_FALSE(a);
  EXPECT_FALSE(b);
  EXPECT_FALSE(c);
  EXPECT_FALSE(v.front());
  return out;
}

TEST(SmallFunction, CountedCaptureIsDestroyedOnceAcrossMoves) {
  int destroyed = 0;
  int live = 0;
  {
    Fn f(Counted(&destroyed, &live, 40));
    EXPECT_EQ(live, 1);  // the temporary is gone, the stored copy is not
    Fn g = move_chain(std::move(f));
    EXPECT_EQ(live, 1);
    EXPECT_EQ(g(2), 42);
  }
  EXPECT_EQ(live, 0);
  // Every object made (the temporary, the stored copy and one per
  // relocation) was destroyed once: none twice, none leaked.
  EXPECT_GT(destroyed, 1);
}

TEST(SmallFunction, BoxedCaptureIsDestroyedOnceAcrossMoves) {
  int destroyed = 0;
  int live = 0;
  struct Big {
    Counted c;
    std::array<char, 128> pad{};
    int operator()(int x) const { return c(x); }
  };
  {
    Fn f(Big{Counted(&destroyed, &live, 7), {}});
    EXPECT_EQ(live, 1);
    Fn g = move_chain(std::move(f));
    EXPECT_EQ(live, 1);  // the box moved, its contents did not
    EXPECT_EQ(g(1), 8);
  }
  EXPECT_EQ(live, 0);
}

TEST(SmallFunction, TriviallyCopyableCaptureSurvivesMoves) {
  struct Plain {
    const int* base;
    long long a;
    double b;
    int operator()(int x) const {
      return *base + static_cast<int>(a) + static_cast<int>(b) + x;
    }
  };
  static_assert(std::is_trivially_copyable_v<Plain>);
  const int base = 100;
  Fn f(Plain{&base, 20, 3.0});
  Fn g = move_chain(std::move(f));
  EXPECT_EQ(g(4), 127);

  // A capture that fills the whole inline storage survives as well.
  std::array<int, 12> many{};
  for (int i = 0; i < 12; ++i) many[static_cast<u64>(i)] = i + 1;
  auto sum = [many](int x) {
    int s = x;
    for (int v : many) s += v;
    return s;
  };
  static_assert(sizeof(sum) == 48 &&
                std::is_trivially_copyable_v<decltype(sum)>);
  Fn h = move_chain(Fn(sum));
  EXPECT_EQ(h(0), 78);
}

TEST(SmallFunction, ResetAndReassign) {
  int destroyed = 0;
  int live = 0;
  Fn f(Counted(&destroyed, &live, 1));
  EXPECT_TRUE(f);
  f.reset();
  EXPECT_FALSE(f);
  EXPECT_EQ(live, 0);
  f = Fn([](int x) { return x + 1; });
  EXPECT_EQ(f(1), 2);
  f.reset();  // trivially destructible: nothing to call
  EXPECT_FALSE(f);
}

}  // namespace
}  // namespace saisim
