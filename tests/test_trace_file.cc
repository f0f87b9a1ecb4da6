/**
 * @file
 * Trace-file serialisation tests: round trips, wrap-around, format
 * validation.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "trace/error.hh"
#include "trace/generator.hh"
#include "trace/trace_file.hh"
#include "test_paths.hh"

namespace pomtlb
{
namespace
{

class TraceFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path = testTempPath("pomtlb_trace_test", ".pomt");
    }

    void TearDown() override { std::remove(path.c_str()); }

    std::string path;
};

TEST_F(TraceFileTest, RoundTripPreservesRecords)
{
    const auto &profile = ProfileRegistry::byName("mcf");
    TraceGenerator generator(profile, 0, 42);

    std::vector<TraceRecord> original;
    {
        TraceFileWriter writer(path);
        for (int i = 0; i < 1000; ++i) {
            const TraceRecord record = generator.next();
            original.push_back(record);
            writer.append(record);
        }
    } // destructor finalises the header

    TraceFileReader reader(path, /*wrap=*/false);
    EXPECT_EQ(reader.recordCount(), 1000u);
    for (const TraceRecord &expected : original) {
        const TraceRecord actual = reader.next();
        EXPECT_EQ(actual.vaddr, expected.vaddr);
        EXPECT_EQ(actual.instGap, expected.instGap);
        EXPECT_EQ(actual.type, expected.type);
        EXPECT_EQ(actual.pageSize, expected.pageSize);
    }
}

TEST_F(TraceFileTest, WrapAroundRestarts)
{
    {
        TraceFileWriter writer(path);
        TraceRecord record;
        record.vaddr = 0x1000;
        writer.append(record);
        record.vaddr = 0x2000;
        writer.append(record);
    }
    TraceFileReader reader(path, /*wrap=*/true);
    EXPECT_EQ(reader.next().vaddr, 0x1000u);
    EXPECT_EQ(reader.next().vaddr, 0x2000u);
    EXPECT_EQ(reader.next().vaddr, 0x1000u); // wrapped
    EXPECT_EQ(reader.position(), 1u);
}

TEST_F(TraceFileTest, ExhaustionIsFatalWithoutWrap)
{
    {
        TraceFileWriter writer(path);
        writer.append(TraceRecord{});
    }
    TraceFileReader reader(path, /*wrap=*/false);
    reader.next();
    EXPECT_DEATH_IF_SUPPORTED({ reader.next(); }, "");
}

TEST_F(TraceFileTest, RewindRestarts)
{
    {
        TraceFileWriter writer(path);
        TraceRecord record;
        record.vaddr = 0xabc000;
        writer.append(record);
        record.vaddr = 0xdef000;
        writer.append(record);
    }
    TraceFileReader reader(path);
    reader.next();
    reader.rewind();
    EXPECT_EQ(reader.next().vaddr, 0xabc000u);
}

TEST_F(TraceFileTest, RejectsGarbageFileNamingThePath)
{
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is not a trace, but it is long enough that the"
               " 16-byte header check passes and the magic fails";
    }
    try {
        TraceFileReader reader(path);
        FAIL() << "expected TraceError";
    } catch (const TraceError &error) {
        EXPECT_NE(std::string(error.what()).find(path),
                  std::string::npos)
            << error.what();
    }
}

TEST_F(TraceFileTest, RejectsMissingFile)
{
    EXPECT_THROW(TraceFileReader reader("/nonexistent/trace.pomt"),
                 TraceError);
}

TEST_F(TraceFileTest, RejectsShortFileReportingSizes)
{
    {
        std::ofstream out(path, std::ios::binary);
        out << "POMT"; // magic only, header cut short
    }
    try {
        TraceFileReader reader(path);
        FAIL() << "expected TraceError";
    } catch (const TraceError &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find(path), std::string::npos) << what;
        EXPECT_NE(what.find("4 bytes"), std::string::npos) << what;
    }
}

TEST_F(TraceFileTest, RejectsTruncatedBodyReportingSizes)
{
    {
        TraceFileWriter writer(path);
        for (int i = 0; i < 8; ++i)
            writer.append(TraceRecord{});
    }
    // Chop the last record in half; the header still claims 8.
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    bytes.resize(bytes.size() - 6);
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << bytes;

    try {
        TraceFileReader reader(path);
        FAIL() << "expected TraceError";
    } catch (const TraceError &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find(path), std::string::npos) << what;
        EXPECT_NE(what.find("8 records"), std::string::npos) << what;
        EXPECT_NE(what.find(std::to_string(bytes.size())),
                  std::string::npos)
            << what;
    }
}

TEST_F(TraceFileTest, RecordTraceHelper)
{
    const auto &profile = ProfileRegistry::byName("gups");
    TraceGenerator generator(profile, 1, 7);
    EXPECT_EQ(recordTrace(generator, path, 500), 500u);
    TraceFileReader reader(path);
    EXPECT_EQ(reader.recordCount(), 500u);

    // The file replays the exact generator stream.
    TraceGenerator fresh(profile, 1, 7);
    for (int i = 0; i < 500; ++i)
        EXPECT_EQ(reader.next().vaddr, fresh.next().vaddr);
}

TEST_F(TraceFileTest, FlagsEncodeBothDimensions)
{
    {
        TraceFileWriter writer(path);
        TraceRecord record;
        record.vaddr = 0x40000000;
        record.type = AccessType::Write;
        record.pageSize = PageSize::Large2M;
        record.instGap = 77;
        writer.append(record);
    }
    TraceFileReader reader(path);
    const TraceRecord record = reader.next();
    EXPECT_EQ(record.type, AccessType::Write);
    EXPECT_EQ(record.pageSize, PageSize::Large2M);
    EXPECT_EQ(record.instGap, 77u);
}

// -- fill() batched-read edges ------------------------------------

TEST_F(TraceFileTest, FillShortReadSignalsEndWithoutWrap)
{
    const auto &profile = ProfileRegistry::byName("mcf");
    TraceGenerator generator(profile, 0, 42);
    EXPECT_EQ(recordTrace(generator, path, 10), 10u);

    TraceFileReader reader(path, /*wrap=*/false);
    std::vector<TraceRecord> block(16);

    // Over-asking yields only what remains...
    EXPECT_EQ(reader.fill(block.data(), 16), 10u);
    // ...and an exhausted reader short-reads zero, repeatedly,
    // instead of raising next()'s fatal error.
    EXPECT_EQ(reader.fill(block.data(), 16), 0u);
    EXPECT_EQ(reader.fill(block.data(), 1), 0u);
}

TEST_F(TraceFileTest, FillAfterRewindReplaysIdentically)
{
    const auto &profile = ProfileRegistry::byName("gups");
    TraceGenerator generator(profile, 0, 7);
    EXPECT_EQ(recordTrace(generator, path, 64), 64u);

    TraceFileReader reader(path, /*wrap=*/false);
    std::vector<TraceRecord> first(64), second(64);
    EXPECT_EQ(reader.fill(first.data(), 64), 64u);

    reader.rewind();
    EXPECT_EQ(reader.position(), 0u);
    EXPECT_EQ(reader.fill(second.data(), 64), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(first[i].vaddr, second[i].vaddr) << "record " << i;
}

TEST_F(TraceFileTest, FillWrapsExactlyLikeRepeatedNext)
{
    const auto &profile = ProfileRegistry::byName("mcf");
    TraceGenerator generator(profile, 0, 3);
    EXPECT_EQ(recordTrace(generator, path, 5), 5u);

    // A wrapping fill() crossing the file boundary several times
    // must equal the same count of wrapping next() calls.
    TraceFileReader batched(path, /*wrap=*/true);
    TraceFileReader scalar(path, /*wrap=*/true);
    std::vector<TraceRecord> block(13);
    EXPECT_EQ(batched.fill(block.data(), 13), 13u);
    for (int i = 0; i < 13; ++i) {
        const TraceRecord expected = scalar.next();
        EXPECT_EQ(block[i].vaddr, expected.vaddr) << "record " << i;
        EXPECT_EQ(block[i].instGap, expected.instGap);
    }
    // Both cursors agree on where the wrapped stream stands.
    EXPECT_EQ(batched.position(), scalar.position());
}

TEST_F(TraceFileTest, FillAndNextInterleaveOnOneCursor)
{
    const auto &profile = ProfileRegistry::byName("mcf");
    TraceGenerator generator(profile, 0, 11);
    EXPECT_EQ(recordTrace(generator, path, 20), 20u);

    TraceFileReader reader(path, /*wrap=*/false);
    TraceFileReader reference(path, /*wrap=*/false);

    const TraceRecord one = reader.next();
    std::vector<TraceRecord> block(8);
    EXPECT_EQ(reader.fill(block.data(), 8), 8u);
    const TraceRecord after = reader.next();

    EXPECT_EQ(one.vaddr, reference.next().vaddr);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(block[i].vaddr, reference.next().vaddr);
    EXPECT_EQ(after.vaddr, reference.next().vaddr);
}

TEST_F(TraceFileTest, FillZeroIsANoOp)
{
    const auto &profile = ProfileRegistry::byName("mcf");
    TraceGenerator generator(profile, 0, 42);
    EXPECT_EQ(recordTrace(generator, path, 4), 4u);

    TraceFileReader reader(path, /*wrap=*/false);
    EXPECT_EQ(reader.fill(nullptr, 0), 0u);
    EXPECT_EQ(reader.position(), 0u);
}

} // namespace
} // namespace pomtlb
