/**
 * @file
 * Legacy POMT format tests: TraceFileWriter, the format's reference
 * encoder, round-trips through scanLegacyTrace(), the one POMT
 * decoder (behind `pomtlb trace pack --in`), and the decoder rejects
 * malformed input with path-named, size-reporting errors.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "trace/error.hh"
#include "trace/generator.hh"
#include "trace/trace_file.hh"
#include "trace/tracepack.hh"
#include "test_paths.hh"

namespace pomtlb
{
namespace
{

/** Decode every record of the POMT file at @p path. */
std::vector<TraceRecord>
decode(const std::string &path)
{
    std::vector<TraceRecord> records;
    const std::uint64_t count = scanLegacyTrace(
        path, [&](const TraceRecord *block, std::size_t n) {
            records.insert(records.end(), block, block + n);
        });
    EXPECT_EQ(count, records.size());
    return records;
}

/** The TraceError message decoding @p path raises ("" if none). */
std::string
decodeError(const std::string &path)
{
    try {
        scanLegacyTrace(path, [](const TraceRecord *, std::size_t) {});
    } catch (const TraceError &error) {
        return error.what();
    }
    ADD_FAILURE() << "expected TraceError for " << path;
    return "";
}

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

    const std::vector<TraceRecord> decoded = decode(path);
    ASSERT_EQ(decoded.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(decoded[i].vaddr, original[i].vaddr) << i;
        EXPECT_EQ(decoded[i].instGap, original[i].instGap) << i;
        EXPECT_EQ(decoded[i].type, original[i].type) << i;
        EXPECT_EQ(decoded[i].pageSize, original[i].pageSize) << i;
    }
}

TEST_F(TraceFileTest, RejectsGarbageFileNamingThePath)
{
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is not a trace, but it is long enough that the"
               " 16-byte header check passes and the magic fails";
    }
    const std::string what = decodeError(path);
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("not a POM-TLB trace"), std::string::npos)
        << what;
}

TEST_F(TraceFileTest, RejectsMissingFile)
{
    const std::string missing = "/nonexistent/trace.pomt";
    const std::string what = decodeError(missing);
    EXPECT_NE(what.find(missing), std::string::npos) << what;
}

TEST_F(TraceFileTest, RejectsShortFileReportingSizes)
{
    {
        std::ofstream out(path, std::ios::binary);
        out << "POMT"; // magic only, header cut short
    }
    const std::string what = decodeError(path);
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("4 bytes"), std::string::npos) << what;
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

    const std::string what = decodeError(path);
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("8 records"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(bytes.size())),
              std::string::npos)
        << what;
}

TEST_F(TraceFileTest, RejectsUnsupportedVersion)
{
    {
        TraceFileWriter writer(path);
        writer.append(TraceRecord{});
    }
    // Bump the u32 version that follows the magic to 2.
    {
        std::fstream file(path, std::ios::binary | std::ios::in |
                                    std::ios::out);
        file.seekp(4);
        file.put(2);
    }
    const std::string what = decodeError(path);
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("unsupported version 2"), std::string::npos)
        << what;
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
        record.vaddr = 0x40001000;
        record.type = AccessType::Read;
        record.pageSize = PageSize::Small4K;
        writer.append(record);
    }
    const std::vector<TraceRecord> decoded = decode(path);
    ASSERT_EQ(decoded.size(), 2u);
    EXPECT_EQ(decoded[0].type, AccessType::Write);
    EXPECT_EQ(decoded[0].pageSize, PageSize::Large2M);
    EXPECT_EQ(decoded[0].instGap, 77u);
    EXPECT_EQ(decoded[1].type, AccessType::Read);
    EXPECT_EQ(decoded[1].pageSize, PageSize::Small4K);
}

} // namespace
} // namespace pomtlb
