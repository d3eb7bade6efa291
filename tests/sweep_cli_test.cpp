// sweep::parse_cli and the config-flag application layer.
//
// parse_cli mutates argc/argv (stripping recognised flags), so each test
// builds a private argv. Malformed flags exit(2) — covered as death tests.
#include "sweep/cli.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "sweep/cli_config.hpp"

namespace saisim::sweep {
namespace {

/// Owns a mutable argv for parse_cli; exposes the post-parse remainder.
struct Argv {
  explicit Argv(std::vector<std::string> args) : strings(std::move(args)) {
    strings.insert(strings.begin(), "test_binary");
    for (std::string& s : strings) ptrs.push_back(s.data());
    ptrs.push_back(nullptr);
    argc = static_cast<int>(strings.size());
  }

  CliOptions parse() { return parse_cli(&argc, ptrs.data()); }

  std::vector<std::string> remainder() const {
    std::vector<std::string> out;
    for (int i = 1; i < argc; ++i) out.emplace_back(ptrs[static_cast<u64>(i)]);
    return out;
  }

  std::vector<std::string> strings;
  std::vector<char*> ptrs;
  int argc = 0;
};

TEST(ParseCli, DefaultsWhenNoFlags) {
  Argv a({});
  const CliOptions opts = a.parse();
  EXPECT_EQ(opts.threads, 0);
  EXPECT_EQ(opts.format, Format::kText);
  EXPECT_TRUE(opts.progress);
  EXPECT_TRUE(opts.overrides.empty());
  EXPECT_TRUE(opts.config_file.empty());
  EXPECT_FALSE(opts.dump_config);
  EXPECT_FALSE(opts.machine_output());
}

TEST(ParseCli, RecognisesEveryFlag) {
  Argv a({"--threads=4", "--format=csv", "--no-progress",
          "--config=run.json", "--set=num_servers=48", "--set",
          "ior.transfer_size=1048576", "--dump-config"});
  const CliOptions opts = a.parse();
  EXPECT_EQ(opts.threads, 4);
  EXPECT_EQ(opts.format, Format::kCsv);
  EXPECT_FALSE(opts.progress);
  EXPECT_EQ(opts.config_file, "run.json");
  ASSERT_EQ(opts.overrides.size(), 2u);
  EXPECT_EQ(opts.overrides[0], "num_servers=48");
  EXPECT_EQ(opts.overrides[1], "ior.transfer_size=1048576");
  EXPECT_TRUE(opts.dump_config);
  EXPECT_TRUE(opts.machine_output());
  EXPECT_TRUE(a.remainder().empty()) << "all flags must be stripped";
}

TEST(ParseCli, OverridesKeepCommandLineOrder) {
  Argv a({"--set", "seed=1", "--set=seed=2", "--set", "seed=3"});
  const CliOptions opts = a.parse();
  ASSERT_EQ(opts.overrides.size(), 3u);
  EXPECT_EQ(opts.overrides[0], "seed=1");
  EXPECT_EQ(opts.overrides[1], "seed=2");
  EXPECT_EQ(opts.overrides[2], "seed=3");
}

TEST(ParseCli, LeavesUnrecognisedArgumentsForTheBinary) {
  Argv a({"48", "--threads=2", "--benchmark_filter=Fig4", "2048",
          "--no-progress"});
  const CliOptions opts = a.parse();
  EXPECT_EQ(opts.threads, 2);
  EXPECT_FALSE(opts.progress);
  EXPECT_EQ(a.remainder(),
            (std::vector<std::string>{"48", "--benchmark_filter=Fig4",
                                      "2048"}));
  EXPECT_EQ(a.ptrs[static_cast<u64>(a.argc)], nullptr)
      << "argv must stay null-terminated for google-benchmark";
}

TEST(ParseCliDeath, RejectsMalformedThreads) {
  EXPECT_EXIT(Argv({"--threads=x"}).parse(), testing::ExitedWithCode(2),
              "bad flag '--threads=x'");
  EXPECT_EXIT(Argv({"--threads=-1"}).parse(), testing::ExitedWithCode(2),
              "N >= 0");
}

TEST(ParseCliDeath, RejectsUnknownFormat) {
  EXPECT_EXIT(Argv({"--format=xml"}).parse(), testing::ExitedWithCode(2),
              "text\\|csv\\|json");
}

TEST(ParseCliDeath, RejectsSetWithoutAssignment) {
  EXPECT_EXIT(Argv({"--set=num_servers"}).parse(),
              testing::ExitedWithCode(2), "dotted.path=value");
  EXPECT_EXIT(Argv({"--set", "num_servers"}).parse(),
              testing::ExitedWithCode(2), "dotted.path=value");
  EXPECT_EXIT(Argv({"--set"}).parse(), testing::ExitedWithCode(2),
              "dotted.path=value");
  EXPECT_EXIT(Argv({"--config="}).parse(), testing::ExitedWithCode(2),
              "--config=FILE");
}

// apply_cli_config: the non-exiting application path used by
// resolve_config, tested against a real ExperimentConfig.

CliOptions with_overrides(std::vector<std::string> overrides) {
  CliOptions cli;
  cli.overrides = std::move(overrides);
  return cli;
}

TEST(ApplyCliConfig, AppliesOverridesInOrder) {
  ExperimentConfig cfg;
  const auto errors = apply_cli_config(
      with_overrides({"num_servers=48", "policy=source-aware",
                      "client.nic.queues=3", "num_servers=16"}),
      cfg);
  EXPECT_TRUE(errors.empty());
  EXPECT_EQ(cfg.num_servers, 16) << "later --set wins";
  EXPECT_EQ(cfg.policy, PolicyKind::kSourceAware);
  EXPECT_EQ(cfg.client.nic.queues, 3);
}

TEST(ApplyCliConfig, ReportsEveryBadOverrideWithItsPath) {
  ExperimentConfig cfg;
  const auto errors = apply_cli_config(
      with_overrides({"bogus.path=1", "client.cores=64", "seed=12x",
                      "ior.mode=bogus"}),
      cfg);
  ASSERT_EQ(errors.size(), 4u);
  EXPECT_NE(errors[0].find("bogus.path"), std::string::npos);
  EXPECT_NE(errors[1].find("client.cores"), std::string::npos);
  EXPECT_NE(errors[1].find("[1, 32]"), std::string::npos);
  EXPECT_NE(errors[2].find("seed"), std::string::npos);
  EXPECT_NE(errors[3].find("ior.mode"), std::string::npos);
}

TEST(ApplyCliConfig, ValidatesCrossFieldStateAfterOverrides) {
  ExperimentConfig cfg;
  // Each value is individually valid; the combination breaks the IOR
  // invariant (random-mode region must cover one transfer).
  const auto errors = apply_cli_config(
      with_overrides({"ior.transfer_size=2097152",
                      "ior.file_region_bytes=1048576"}),
      cfg);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("file_region_bytes"), std::string::npos);
}

TEST(ApplyCliConfig, RejectsCoinFlipAlongsideBufferCache) {
  // A server with a buffer cache never draws the coin flip, so setting
  // both would silently drop the ratio; the error names both paths.
  ExperimentConfig cfg;
  const auto errors = apply_cli_config(
      with_overrides({"server.io.cache_hit_ratio=0.5",
                      "server.cache.capacity_bytes=1048576"}),
      cfg);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("server.io.cache_hit_ratio"), std::string::npos);
  EXPECT_NE(errors[0].find("server.cache.capacity_bytes"), std::string::npos);
  for (const char* one : {"server.io.cache_hit_ratio=0.5",
                          "server.cache.capacity_bytes=1048576"}) {
    ExperimentConfig alone;
    EXPECT_TRUE(apply_cli_config(with_overrides({one}), alone).empty())
        << one;
  }
}

TEST(ApplyCliConfig, MissingConfigFileIsAnError) {
  ExperimentConfig cfg;
  CliOptions cli;
  cli.config_file = "/nonexistent/saisim.json";
  const auto errors = apply_cli_config(cli, cfg);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("cannot open config file"), std::string::npos);
  EXPECT_NE(errors[0].find("/nonexistent/saisim.json"), std::string::npos);
}

}  // namespace
}  // namespace saisim::sweep
