#include "util/log.hpp"

#include <gtest/gtest.h>

namespace saisim {
namespace {

// The logger is process-global; every test starts from the silent default
// and restores it so tests stay order-independent.
struct LogTest : ::testing::Test {
  void SetUp() override { Log::set_level(LogLevel::kOff); }
  void TearDown() override { Log::set_level(LogLevel::kOff); }
};

TEST_F(LogTest, DefaultIsSilent) {
  for (u8 s = 0; s < util::kNumSubsystems; ++s) {
    EXPECT_EQ(Log::level(static_cast<util::Subsystem>(s)), LogLevel::kOff);
  }
  EXPECT_FALSE(Log::enabled(util::Subsystem::kPfs, LogLevel::kWarn));
}

TEST_F(LogTest, BareLevelAppliesToEverySubsystem) {
  EXPECT_EQ(Log::configure("debug"), std::nullopt);
  for (u8 s = 0; s < util::kNumSubsystems; ++s) {
    EXPECT_EQ(Log::level(static_cast<util::Subsystem>(s)), LogLevel::kDebug);
  }
}

TEST_F(LogTest, PerSubsystemEntriesOverride) {
  EXPECT_EQ(Log::configure("warn,net=debug,pfs=trace"), std::nullopt);
  EXPECT_EQ(Log::level(util::Subsystem::kNet), LogLevel::kDebug);
  EXPECT_EQ(Log::level(util::Subsystem::kPfs), LogLevel::kTrace);
  EXPECT_EQ(Log::level(util::Subsystem::kCpu), LogLevel::kWarn);
  EXPECT_TRUE(Log::enabled(util::Subsystem::kNet, LogLevel::kDebug));
  EXPECT_FALSE(Log::enabled(util::Subsystem::kCpu, LogLevel::kDebug));
}

TEST_F(LogTest, LaterEntriesWin) {
  EXPECT_EQ(Log::configure("net=debug,net=off"), std::nullopt);
  EXPECT_EQ(Log::level(util::Subsystem::kNet), LogLevel::kOff);
}

TEST_F(LogTest, UnknownLevelIsAnError) {
  const auto err = Log::configure("verbose");
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("unknown log level 'verbose'"), std::string::npos);
}

TEST_F(LogTest, UnknownSubsystemIsAnError) {
  const auto err = Log::configure("disk=debug");
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("unknown subsystem 'disk'"), std::string::npos);
}

TEST_F(LogTest, BadLevelForSubsystemIsAnError) {
  const auto err = Log::configure("net=loud");
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("unknown log level 'loud'"), std::string::npos);
}

TEST_F(LogTest, EmptyAndStraySeparatorsAreNoOps) {
  EXPECT_EQ(Log::configure(""), std::nullopt);
  EXPECT_EQ(Log::configure(",,"), std::nullopt);
  EXPECT_EQ(Log::level(util::Subsystem::kCore), LogLevel::kOff);
}

TEST_F(LogTest, LevelNamesRoundTrip) {
  EXPECT_EQ(log_level_from_name("trace"), LogLevel::kTrace);
  EXPECT_EQ(log_level_from_name("debug"), LogLevel::kDebug);
  EXPECT_EQ(log_level_from_name("info"), LogLevel::kInfo);
  EXPECT_EQ(log_level_from_name("warn"), LogLevel::kWarn);
  EXPECT_EQ(log_level_from_name("off"), LogLevel::kOff);
  EXPECT_EQ(log_level_from_name("WARN"), std::nullopt);
}

TEST_F(LogTest, SubsystemNamesRoundTrip) {
  for (u8 s = 0; s < util::kNumSubsystems; ++s) {
    const auto sub = static_cast<util::Subsystem>(s);
    EXPECT_EQ(util::subsystem_from_name(util::kSubsystemNames[s]), sub);
  }
  EXPECT_EQ(util::subsystem_from_name("bogus"), std::nullopt);
}

}  // namespace
}  // namespace saisim
