// Reference-model fuzzing of the event queue: random schedule/cancel/pop
// sequences mirrored against a std::multimap oracle. Ordering (time, then
// insertion sequence) and cancellation semantics must agree exactly.
#include <gtest/gtest.h>

#include <map>

#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace saisim::sim {
namespace {

/// Mirror `steps` random schedule/cancel/pop actions (55/15/30 %) against
/// a std::map oracle ordered by (time, id): the insertion id doubles as the
/// deterministic tie-break, exactly the contract EventQueue promises.
/// Events land up to `window_ps` past the last pop. A cancel takes the
/// oracle's front event with probability `front_cancel`, else a random one.
/// Returns how many cancels took the front.
u64 fuzz_against_map(u64 seed, int steps, i64 window_ps, double front_cancel) {
  EventQueue q;
  Rng rng(seed);
  std::map<std::pair<i64, u64>, EventHandle> reference;
  u64 next_id = 0;
  i64 now_ps = 0;
  u64 fired_id = 0;
  bool fired = false;
  u64 front_cancels = 0;

  for (int step = 0; step < steps; ++step) {
    const double action = rng.uniform();
    if (action < 0.55) {
      const i64 when = now_ps + static_cast<i64>(rng.below(
                                    static_cast<u64>(window_ps)));
      const u64 id = next_id++;
      auto h = q.schedule(Time::ps(when), [&fired_id, &fired, id] {
        fired_id = id;
        fired = true;
      });
      reference.emplace(std::make_pair(when, id), h);
    } else if (action < 0.70) {
      if (reference.empty()) continue;
      auto it = reference.begin();
      if (front_cancel > 0 && rng.chance(front_cancel)) {
        ++front_cancels;
      } else {
        std::advance(it, static_cast<i64>(rng.below(reference.size())));
      }
      q.cancel(it->second);
      reference.erase(it);
    } else {
      // Pop: must match the oracle's front.
      if (reference.empty()) {
        EXPECT_TRUE(q.empty());
        continue;
      }
      auto expected = reference.begin();
      EXPECT_EQ(q.next_time(), Time::ps(expected->first.first));
      fired = false;
      auto ev = q.pop();
      ev.fn();
      EXPECT_TRUE(fired);
      EXPECT_EQ(fired_id, expected->first.second) << "step " << step;
      EXPECT_EQ(ev.when, Time::ps(expected->first.first));
      now_ps = expected->first.first;
      reference.erase(expected);
    }
    EXPECT_EQ(q.size(), reference.size());
  }

  // Drain and verify the tail ordering too.
  while (!reference.empty()) {
    auto expected = reference.begin();
    fired = false;
    q.pop().fn();
    EXPECT_TRUE(fired);
    EXPECT_EQ(fired_id, expected->first.second);
    reference.erase(expected);
  }
  EXPECT_TRUE(q.empty());
  return front_cancels;
}

TEST(SimFuzz, MatchesMultimapReferenceModel) {
  fuzz_against_map(31337, 30'000, 10'000, 0.0);
}

TEST(SimFuzz, DenseTiesWithCancelsAtTheRoot) {
  // Times within four picoseconds of the last pop, so most events tie on
  // `when` and only the schedule sequence orders them. Half the cancels
  // take the front event, the heap root, so cancelled entries surface at
  // the root among live ties and their slots are recycled while
  // equal-time entries stay queued.
  EXPECT_GT(fuzz_against_map(20261019, 40'000, 4, 0.5), 1'000u);
}

TEST(SimFuzz, HeavyCancellationStress) {
  // Rounds of: schedule a burst, cancel a random 60% immediately, drain
  // the remainder before the next burst. Firing counts must balance.
  EventQueue q;
  Rng rng(4242);
  u64 fired = 0;
  u64 scheduled = 0, cancelled = 0;
  for (int round = 0; round < 200; ++round) {
    std::vector<EventHandle> burst;
    for (int i = 0; i < 50; ++i) {
      burst.push_back(
          q.schedule(Time::us(round * 1000 + static_cast<i64>(rng.below(100))),
                     [&fired] { ++fired; }));
      ++scheduled;
    }
    for (EventHandle h : burst) {
      if (rng.chance(0.6)) {
        q.cancel(h);
        ++cancelled;
      }
    }
    while (!q.empty()) q.pop().fn();
  }
  EXPECT_EQ(fired, scheduled - cancelled);
  EXPECT_GT(cancelled, 5000u);
}

}  // namespace
}  // namespace saisim::sim
