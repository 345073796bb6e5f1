/**
 * @file
 * Tests for the policy factory.
 */

#include <gtest/gtest.h>

#include "policies/registry.hpp"
#include "util/logging.hpp"

namespace fastcap {
namespace {

TEST(Registry, InstantiatesEveryListedPolicy)
{
    for (const std::string name :
         {"FastCap", "CPU-only", "Uncapped", "Freq-Par", "Eql-Pwr",
          "Eql-Freq", "MaxBIPS", "Steepest-Drop"}) {
        auto policy = makePolicy(name);
        ASSERT_NE(policy, nullptr) << name;
        EXPECT_EQ(policy->name(), name);
    }
}

TEST(Registry, UnknownNameIsFatal)
{
    EXPECT_THROW(makePolicy("NotAPolicy"), FatalError);
    EXPECT_THROW(makePolicy(""), FatalError);
}

TEST(Registry, MemoryDvfsFlagsMatchPaper)
{
    // Policies with "*" in Figure 9 pin the memory frequency.
    EXPECT_TRUE(makePolicy("FastCap")->usesMemoryDvfs());
    EXPECT_FALSE(makePolicy("CPU-only")->usesMemoryDvfs());
    EXPECT_FALSE(makePolicy("Freq-Par")->usesMemoryDvfs());
    EXPECT_TRUE(makePolicy("Eql-Pwr")->usesMemoryDvfs());
    EXPECT_TRUE(makePolicy("Eql-Freq")->usesMemoryDvfs());
    EXPECT_TRUE(makePolicy("MaxBIPS")->usesMemoryDvfs());
    EXPECT_TRUE(makePolicy("Steepest-Drop")->usesMemoryDvfs());
}

} // namespace
} // namespace fastcap
