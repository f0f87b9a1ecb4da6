/**
 * @file
 * Temporary file paths unique to the running test.
 *
 * ctest runs every gtest case as its own process, several at a time,
 * and pomtlb_focused_tests compiles some suites a second time, so a
 * fixed name under ::testing::TempDir() would be shared by cases that
 * run concurrently and truncate each other's files.
 */

#ifndef POMTLB_TESTS_TEST_PATHS_HH
#define POMTLB_TESTS_TEST_PATHS_HH

#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include <unistd.h>

namespace pomtlb
{

/**
 * A path under ::testing::TempDir() named @p stem, the running test's
 * suite and name, and the process id, ending in @p extension.
 */
inline std::string
testTempPath(const std::string &stem, const std::string &extension)
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string test = info == nullptr
                           ? std::string("no-test")
                           : std::string(info->test_suite_name()) +
                                 "-" + info->name();
    for (char &c : test) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-')
            c = '_';
    }
    return ::testing::TempDir() + stem + "-" + test + "-" +
           std::to_string(::getpid()) + extension;
}

} // namespace pomtlb

#endif // POMTLB_TESTS_TEST_PATHS_HH
