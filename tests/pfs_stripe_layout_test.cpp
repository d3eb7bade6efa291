#include "pfs/stripe_layout.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace saisim::pfs {
namespace {

constexpr u64 kStrip = 64ull << 10;

// The client's two-step form: size the block, then fill it.
std::vector<StripSpan> decompose(const StripeLayout& layout, u64 offset,
                                 u64 bytes) {
  std::vector<StripSpan> out(layout.count_spans(offset, bytes));
  layout.decompose_into(offset, bytes, out.data());
  return out;
}

TEST(StripeLayout, RoundRobinServerAssignment) {
  StripeLayout layout(kStrip, 4);
  EXPECT_EQ(layout.server_of_strip(0), 0);
  EXPECT_EQ(layout.server_of_strip(1), 1);
  EXPECT_EQ(layout.server_of_strip(4), 0);
  EXPECT_EQ(layout.server_of_strip(7), 3);
}

TEST(StripeLayout, DecomposeAlignedTransfer) {
  StripeLayout layout(kStrip, 8);
  const auto spans = decompose(layout, 0, 1ull << 20);  // 16 strips
  ASSERT_EQ(spans.size(), 16u);
  for (u64 i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].strip_index, i);
    EXPECT_EQ(spans[i].server, static_cast<int>(i % 8));
    EXPECT_EQ(spans[i].bytes, kStrip);
    EXPECT_EQ(spans[i].file_offset, i * kStrip);
  }
}

TEST(StripeLayout, DecomposeUnalignedEdges) {
  StripeLayout layout(kStrip, 4);
  // Start mid-strip, end mid-strip: 100K starting at 10K.
  const auto spans = decompose(layout, 10ull << 10, 100ull << 10);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].bytes, 54ull << 10);  // remainder of strip 0
  EXPECT_EQ(spans[1].bytes, 46ull << 10);  // head of strip 1
  u64 total = 0;
  for (const auto& sp : spans) total += sp.bytes;
  EXPECT_EQ(total, 100ull << 10);
}

TEST(StripeLayout, DecomposeSubStripTransfer) {
  StripeLayout layout(kStrip, 8);
  const auto spans = decompose(layout, kStrip * 3 + 100, 512);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].server, 3);
  EXPECT_EQ(spans[0].bytes, 512u);
}

TEST(StripeLayout, CoverageIsExactAndContiguous) {
  StripeLayout layout(kStrip, 5);
  const u64 offset = 123456;
  const u64 size = 3ull << 20;
  const auto spans = decompose(layout, offset, size);
  u64 pos = offset;
  for (const auto& sp : spans) {
    EXPECT_EQ(sp.file_offset, pos);
    EXPECT_EQ(sp.server, layout.server_of_strip(sp.strip_index));
    pos += sp.bytes;
  }
  EXPECT_EQ(pos, offset + size);
}

TEST(StripeLayout, ServersTouchedCapsAtServerCount) {
  StripeLayout layout(kStrip, 8);
  auto servers_touched = [&](u64 offset, u64 bytes) {
    std::set<int> used;
    for (const auto& sp : decompose(layout, offset, bytes)) {
      used.insert(sp.server);
    }
    return static_cast<int>(used.size());
  };
  EXPECT_EQ(servers_touched(0, 2 * kStrip), 2);
  EXPECT_EQ(servers_touched(0, 16 * kStrip), 8);
  EXPECT_EQ(servers_touched(100, 10), 1);
}

TEST(StripeLayout, MoreServersSpreadStripsWider) {
  // The fan-out a transfer sees: min(strips, servers) — the interrupt
  // multiplier of the paper.
  for (int servers : {8, 16, 32, 48}) {
    StripeLayout layout(kStrip, servers);
    const auto spans = decompose(layout, 0, 2ull << 20);  // 32 strips
    std::set<int> used;
    for (const auto& sp : spans) used.insert(sp.server);
    EXPECT_EQ(static_cast<int>(used.size()), std::min(32, servers));
  }
}

}  // namespace
}  // namespace saisim::pfs
