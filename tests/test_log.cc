/**
 * @file
 * Tests for the logging/assert helpers: panic must be detectable and
 * simAssert must fire exactly on false conditions.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/log.hh"

namespace pomtlb
{
namespace
{

TEST(Log, PanicThrowsLogicError)
{
    EXPECT_THROW(panic("boom ", 42), std::logic_error);
}

TEST(Log, SimAssertPassesOnTrue)
{
    EXPECT_NO_THROW(simAssert(true, "never shown"));
}

TEST(Log, SimAssertFiresOnFalse)
{
    EXPECT_THROW(simAssert(false, "expected failure"),
                 std::logic_error);
}

TEST(Log, PanicMessageIncludesArguments)
{
    try {
        panic("value=", 17, " name=", "abc");
        FAIL() << "panic did not throw";
    } catch (const std::logic_error &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("value=17"), std::string::npos);
        EXPECT_NE(what.find("name=abc"), std::string::npos);
    }
}

} // namespace
} // namespace pomtlb
