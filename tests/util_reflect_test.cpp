// The reflection layer itself, exercised on a local test config so the
// machinery is validated independently of the simulator's config structs:
// visitor dispatch, dotted paths, fingerprint injectivity, set/get by
// path, checks, invariants, perturbation, and the flat-key JSON pair.
#include "util/reflect.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "util/reflect_json.hpp"

namespace saisim::util::reflect {
namespace {

enum class Flavor { kPlain, kSpicy, kSour };
constexpr const char* kFlavorNames[] = {"plain", "spicy", "sour"};

struct InnerConfig {
  int knob = 7;
  Bandwidth rate = Bandwidth::mb_per_sec(100);
};

template <class V>
void describe(V& v, InnerConfig& c) {
  v.field("knob", c.knob, in_range(1, 64));
  v.field("rate", c.rate, positive(), "B/s");
}

struct TestConfig {
  int count = 3;
  u64 bytes = 4096;
  double ratio = 0.25;
  bool fast = true;
  Flavor flavor = Flavor::kSpicy;
  Time delay = Time::us(5);
  Cycles work{100};
  Frequency clock = Frequency::ghz(1.0);
  InnerConfig inner{};
};

template <class V>
void describe(V& v, TestConfig& c) {
  v.field("count", c.count, in_range(1, 100));
  v.field("bytes", c.bytes, pow2_at_least(512), "B");
  v.field("ratio", c.ratio, unit_interval());
  v.field("fast", c.fast);
  v.field("flavor", c.flavor, EnumNames{kFlavorNames, 3});
  v.field("delay", c.delay, non_negative());
  v.field("work", c.work, non_negative());
  v.field("clock", c.clock, positive(), "Hz");
  v.group("inner", c.inner);
  v.invariant(c.bytes >= static_cast<u64>(c.count),
              "bytes must cover count");
}

TEST(Reflect, CountsAndListsAllLeaves) {
  EXPECT_EQ(count_fields<TestConfig>(), 10u);
  const TestConfig cfg;
  const auto fields = list_fields(cfg);
  ASSERT_EQ(fields.size(), 10u);
  EXPECT_EQ(fields[0].path, "count");
  EXPECT_EQ(fields[0].value, "3");
  EXPECT_EQ(fields[4].path, "flavor");
  EXPECT_EQ(fields[4].kind, FieldKind::kEnum);
  EXPECT_EQ(fields[4].value, "spicy");
  EXPECT_EQ(fields[8].path, "inner.knob");
  EXPECT_EQ(fields[9].path, "inner.rate");
  EXPECT_EQ(fields[9].unit, "B/s");
}

TEST(Reflect, FingerprintEncodesStrongTypesInCanonicalUnits) {
  const TestConfig cfg;
  const std::string fp = fingerprint_of(cfg);
  EXPECT_NE(fp.find("delay=5000000;"), std::string::npos);  // 5 us in ps
  EXPECT_NE(fp.find("clock=1000000000;"), std::string::npos);
  EXPECT_NE(fp.find("inner.rate=100000000;"), std::string::npos);
  EXPECT_NE(fp.find("fast=1;"), std::string::npos);
  // Doubles by bit pattern, not decimal.
  EXPECT_NE(fp.find("ratio=" + std::to_string(std::bit_cast<u64>(0.25))),
            std::string::npos);
}

TEST(Reflect, PerturbAnySingleFieldChangesFingerprint) {
  const TestConfig base;
  const std::string fp0 = fingerprint_of(base);
  std::set<std::string> seen{fp0};
  for (u64 i = 0;; ++i) {
    TestConfig cfg = base;
    if (!perturb_field(cfg, i)) {
      EXPECT_EQ(i, count_fields<TestConfig>());
      break;
    }
    const std::string fp = fingerprint_of(cfg);
    EXPECT_TRUE(seen.insert(fp).second)
        << "perturbing field #" << i << " did not change the fingerprint";
  }
  EXPECT_EQ(seen.size(), count_fields<TestConfig>() + 1);
}

TEST(Reflect, SetFieldParsesEveryChannel) {
  TestConfig cfg;
  EXPECT_TRUE(set_field(cfg, "count", "42").ok());
  EXPECT_EQ(cfg.count, 42);
  EXPECT_TRUE(set_field(cfg, "bytes", "8192").ok());
  EXPECT_EQ(cfg.bytes, 8192u);
  EXPECT_TRUE(set_field(cfg, "ratio", "0.75").ok());
  EXPECT_DOUBLE_EQ(cfg.ratio, 0.75);
  EXPECT_TRUE(set_field(cfg, "fast", "false").ok());
  EXPECT_FALSE(cfg.fast);
  EXPECT_TRUE(set_field(cfg, "flavor", "sour").ok());
  EXPECT_EQ(cfg.flavor, Flavor::kSour);
  EXPECT_TRUE(set_field(cfg, "delay", "1000").ok());
  EXPECT_EQ(cfg.delay, Time::ps(1000));
  EXPECT_TRUE(set_field(cfg, "inner.knob", "9").ok());
  EXPECT_EQ(cfg.inner.knob, 9);
}

TEST(Reflect, SetFieldRejectsWithDottedPathInMessage) {
  TestConfig cfg;
  const SetStatus unknown = set_field(cfg, "inner.zzz", "1");
  EXPECT_EQ(unknown.code, SetStatus::Code::kUnknownPath);
  EXPECT_NE(unknown.message.find("inner.zzz"), std::string::npos);

  const SetStatus range = set_field(cfg, "inner.knob", "65");
  EXPECT_EQ(range.code, SetStatus::Code::kOutOfRange);
  EXPECT_NE(range.message.find("inner.knob"), std::string::npos);
  EXPECT_NE(range.message.find("[1, 64]"), std::string::npos);
  EXPECT_EQ(cfg.inner.knob, 7) << "a rejected set must not write";

  const SetStatus pow2 = set_field(cfg, "bytes", "4097");
  EXPECT_EQ(pow2.code, SetStatus::Code::kOutOfRange);
  EXPECT_NE(pow2.message.find("power of two"), std::string::npos);

  const SetStatus malformed = set_field(cfg, "count", "12x");
  EXPECT_EQ(malformed.code, SetStatus::Code::kBadValue);

  const SetStatus badenum = set_field(cfg, "flavor", "umami");
  EXPECT_EQ(badenum.code, SetStatus::Code::kBadValue);
  EXPECT_NE(badenum.message.find("plain|spicy|sour"), std::string::npos);

  const SetStatus frange = set_field(cfg, "ratio", "1.5");
  EXPECT_EQ(frange.code, SetStatus::Code::kOutOfRange);
}

TEST(Reflect, GetFieldRendersByPath) {
  const TestConfig cfg;
  EXPECT_EQ(get_field(cfg, "count").value(), "3");
  EXPECT_EQ(get_field(cfg, "flavor").value(), "spicy");
  EXPECT_EQ(get_field(cfg, "inner.rate").value(), "100000000");
  EXPECT_FALSE(get_field(cfg, "nope").has_value());
}

TEST(Reflect, ValidateReportsChecksAndInvariants) {
  TestConfig cfg;
  EXPECT_TRUE(validate_config(cfg).empty());

  cfg.count = 0;        // below range (bypassing set_field)
  cfg.bytes = 12345;    // not a power of two
  cfg.ratio = -0.5;     // below frange
  const auto errors = validate_config(cfg);
  ASSERT_EQ(errors.size(), 3u);
  EXPECT_NE(errors[0].find("count"), std::string::npos);
  EXPECT_NE(errors[1].find("bytes"), std::string::npos);
  EXPECT_NE(errors[2].find("ratio"), std::string::npos);

  TestConfig inv;
  inv.count = 100;
  inv.bytes = 64;  // power of two but < count → invariant fires
  bool found = false;
  for (const auto& e : validate_config(inv)) {
    found = found || e.find("bytes must cover count") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(ReflectJson, DumpLoadDumpIsByteIdentical) {
  TestConfig cfg;
  cfg.count = 17;
  cfg.ratio = 0.1;  // not exactly representable — shortest-form must survive
  cfg.flavor = Flavor::kSour;
  const std::string dump1 = config_to_json(cfg);

  TestConfig loaded;  // different starting point
  loaded.count = 99;
  const LoadResult res = config_from_json(loaded, dump1);
  ASSERT_TRUE(res.errors.empty()) << res.errors.front();
  EXPECT_EQ(config_to_json(loaded), dump1);
  EXPECT_EQ(fingerprint_of(loaded), fingerprint_of(cfg));
}

TEST(ReflectJson, PartialFileIsAnOverrideSet) {
  TestConfig cfg;
  const LoadResult res =
      config_from_json(cfg, "{\"inner.knob\": 11, \"flavor\": \"plain\"}");
  ASSERT_TRUE(res.errors.empty());
  EXPECT_EQ(cfg.inner.knob, 11);
  EXPECT_EQ(cfg.flavor, Flavor::kPlain);
  EXPECT_EQ(cfg.count, 3) << "untouched fields keep their defaults";
}

TEST(ReflectJson, LoadErrorsNameTheKey) {
  TestConfig cfg;
  const LoadResult unknown = config_from_json(cfg, "{\"zzz\": 1}");
  ASSERT_FALSE(unknown.errors.empty());
  EXPECT_NE(unknown.errors[0].find("zzz"), std::string::npos);

  const LoadResult range = config_from_json(cfg, "{\"inner.knob\": 400}");
  ASSERT_FALSE(range.errors.empty());
  EXPECT_NE(range.errors[0].find("inner.knob"), std::string::npos);

  const LoadResult syntax = config_from_json(cfg, "{\"a\": }");
  ASSERT_FALSE(syntax.errors.empty());
  EXPECT_NE(syntax.errors[0].find("config JSON"), std::string::npos);

  const LoadResult trailing = config_from_json(cfg, "{} extra");
  ASSERT_FALSE(trailing.errors.empty());
}

}  // namespace
}  // namespace saisim::util::reflect
