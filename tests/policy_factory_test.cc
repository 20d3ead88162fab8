#include "policy/policy_factory.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/auto_tuner.h"

namespace camp::policy {
namespace {

// Every malformed spec must throw std::invalid_argument with a message
// naming both the problem and the full spec (operators read these from
// server startup failures).
void expect_rejected(const std::string& spec, const std::string& needle) {
  try {
    (void)make_policy(spec, 1000);
    FAIL() << "spec '" << spec << "' was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(needle), std::string::npos)
        << "spec '" << spec << "' threw '" << what << "' (wanted '" << needle
        << "')";
    EXPECT_NE(what.find(spec), std::string::npos)
        << "message '" << what << "' does not quote the spec";
  }
}

TEST(Factory, BuildsEveryKnownSpec) {
  for (const std::string& spec : known_policy_specs()) {
    auto cache = make_policy(spec, 10'000);
    ASSERT_NE(cache, nullptr) << spec;
    EXPECT_EQ(cache->capacity_bytes(), 10'000u) << spec;
    // Smoke: the cache must actually cache.
    cache->put(1, 100, 200);
    EXPECT_TRUE(cache->get(1)) << spec;
  }
}

TEST(Factory, CampPrecisionParsing) {
  auto p3 = make_policy("camp:p=3", 1000);
  EXPECT_EQ(p3->name(), "camp(p=3)");
  auto pinf = make_policy("camp:p=64", 1000);
  EXPECT_EQ(pinf->name(), "camp(p=inf)");
}

TEST(Factory, GdsTieBreakVariant) {
  EXPECT_EQ(make_policy("gds:lru", 1000)->name(), "gds");
}

TEST(Factory, UnknownSpecThrows) {
  EXPECT_THROW(make_policy("nope", 100), std::invalid_argument);
  EXPECT_THROW(make_policy("camp:p=x", 100), std::invalid_argument);
  EXPECT_THROW(make_policy("lru-", 100), std::invalid_argument);
}

TEST(Factory, RemovedSpecsFailClosed) {
  // Policies outside the paper's comparison set are not built; a stale
  // spec (e.g. on a loadgen command line or in a cluster config) must get
  // a clear error instead of a silent fallback to some other policy.
  for (const char* spec : {"camp-f", "gdsf", "arc", "lru-2", "admit+camp"}) {
    expect_rejected(spec, "unknown spec");
    EXPECT_THROW((void)make_policy_factory(spec)(1000), std::invalid_argument)
        << spec;
  }
}

TEST(Factory, CampSpecRejectsMalformedParameters) {
  expect_rejected("camp:p=0", "precision must be >= 1");
  expect_rejected("camp:p=-3", "precision must be >= 1");
  expect_rejected("camp:p=", "bad precision");
  expect_rejected("camp:p=5x", "bad precision");
  expect_rejected("camp:p=5 ", "bad precision");   // trailing garbage
  expect_rejected("camp:px=3", "unknown parameter 'px'");
  expect_rejected("camp:p", "malformed parameter");  // no '='
  expect_rejected("camp:=5", "malformed parameter");
  expect_rejected("camp:p=5:p=7", "duplicate parameter 'p'");
  expect_rejected("camp:p=auto:p=5", "duplicate parameter 'p'");
  expect_rejected("camp:p=5:junk", "malformed parameter");
  expect_rejected("camp:q=4", "unknown parameter 'q'");
  expect_rejected("camp:candidates=1,2", "requires p=auto");
  expect_rejected("camp:p=auto:candidates=1,0", "precision must be >= 1");
  expect_rejected("camp:p=auto:candidates=", "bad precision");
  expect_rejected("camp:p=auto:candidates=1,,2", "bad precision");
}

TEST(Factory, CampAutoSpecBuilds) {
  auto cache = make_policy("camp:p=auto", 4096);
  ASSERT_NE(cache, nullptr);
  // Default tuner config starts at its initial precision.
  EXPECT_EQ(cache->name(),
            "camp-auto(p=" +
                std::to_string(core::AutoTunerConfig{}.initial_precision) +
                ")");

  // An explicit candidate list starts the duel at its first entry.
  auto narrowed = make_policy("camp:p=auto:candidates=3,7", 4096);
  EXPECT_EQ(narrowed->name(), "camp-auto(p=3)");
}

TEST(Factory, CampAutoFactorySharesOneTunerAcrossShards) {
  const auto factory = make_policy_factory("camp:p=auto");
  auto a = factory(1024);
  auto b = factory(1024);
  const auto* sa = dynamic_cast<const core::SelfTuningCampCache*>(a.get());
  const auto* sb = dynamic_cast<const core::SelfTuningCampCache*>(b.get());
  ASSERT_NE(sa, nullptr);
  ASSERT_NE(sb, nullptr);
  EXPECT_EQ(&sa->tuner(), &sb->tuner());  // ONE duel for the logical cache

  // Static specs go through plain make_policy: distinct instances.
  const auto static_factory = make_policy_factory("camp:p=5");
  EXPECT_EQ(static_factory(1024)->name(), "camp(p=5)");
}

}  // namespace
}  // namespace camp::policy
