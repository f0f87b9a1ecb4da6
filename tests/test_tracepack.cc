/**
 * @file
 * Trace-pack container tests: round trips, multi-stream packs, the
 * wrap/rewind contract, torn-tail recovery, corrupt-chunk detection,
 * a randomized-truncation fuzz loop, the converters (legacy POMT and
 * the text form), the info document, and the docs/trace-format.md
 * coverage gate.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "trace/error.hh"
#include "trace/generator.hh"
#include "trace/trace_file.hh"
#include "trace/tracepack.hh"
#include "test_paths.hh"

namespace pomtlb
{
namespace
{

std::vector<TraceRecord>
syntheticRecords(std::size_t n, std::uint64_t seed)
{
    const auto &profile = ProfileRegistry::byName("mcf");
    TraceGenerator generator(profile, 0, seed);
    std::vector<TraceRecord> records(n);
    generator.fill(records.data(), n);
    return records;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

class TracePackTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path = testTempPath("pomtlb_tracepack_test", ".pack");
    }

    void TearDown() override { std::remove(path.c_str()); }

    std::string path;
};

TEST_F(TracePackTest, RoundTripSingleStream)
{
    const auto records = syntheticRecords(10000, 42);
    {
        TracePackWriter writer(path, {"core0"}, 512);
        writer.append(0, records.data(), records.size());
        writer.close();
        EXPECT_EQ(writer.recordCount(), records.size());
    }

    TracePackReader reader(path);
    EXPECT_TRUE(reader.finalized());
    EXPECT_FALSE(reader.recovered());
    EXPECT_EQ(reader.streamCount(), 1u);
    EXPECT_EQ(reader.recordCount(), records.size());
    EXPECT_EQ(reader.stream(0).name, "core0");
    EXPECT_EQ(reader.stream(0).records, records.size());
    // 10000 records at 512 per chunk: 19 full chunks + 1 partial.
    EXPECT_EQ(reader.stream(0).chunks, 20u);
    EXPECT_EQ(reader.contentHash().size(), 32u);

    std::vector<TraceRecord> got(records.size());
    EXPECT_EQ(reader.read(0, 0, got.data(), got.size()),
              records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        ASSERT_EQ(got[i].vaddr, records[i].vaddr) << "record " << i;
        ASSERT_EQ(got[i].instGap, records[i].instGap);
        ASSERT_EQ(got[i].type, records[i].type);
        ASSERT_EQ(got[i].pageSize, records[i].pageSize);
    }
}

TEST_F(TracePackTest, SeekIsPositionIndependent)
{
    const auto records = syntheticRecords(3000, 7);
    {
        TracePackWriter writer(path, {"core0"}, 256);
        writer.append(0, records.data(), records.size());
    } // destructor finalises

    TracePackReader reader(path);
    // Reads starting mid-stream (mid-chunk and at chunk edges)
    // return exactly the records a sequential read would.
    for (std::uint64_t pos : {1u, 255u, 256u, 257u, 2999u}) {
        TraceRecord one;
        ASSERT_EQ(reader.read(0, pos, &one, 1), 1u) << pos;
        EXPECT_EQ(one.vaddr, records[pos].vaddr) << pos;
    }
    TraceRecord past;
    EXPECT_EQ(reader.read(0, 3000, &past, 1), 0u);
}

TEST_F(TracePackTest, MultiStreamPackKeepsStreamsApart)
{
    const auto first = syntheticRecords(700, 1);
    const auto second = syntheticRecords(1300, 2);
    {
        TracePackWriter writer(path, {"tenant0", "tenant1", "spare"},
                               128);
        // Interleave appends; chunks interleave in the file too.
        std::size_t a = 0, b = 0;
        while (a < first.size() || b < second.size()) {
            if (a < first.size())
                writer.append(0, &first[a++], 1);
            if (b < second.size())
                writer.append(1, &second[b++], 1);
        }
        writer.close();
    }

    TracePackReader reader(path);
    EXPECT_EQ(reader.streamCount(), 3u);
    EXPECT_EQ(reader.streamIndex("tenant1"), 1);
    EXPECT_EQ(reader.streamIndex("absent"), -1);
    EXPECT_EQ(reader.stream(0).records, first.size());
    EXPECT_EQ(reader.stream(1).records, second.size());
    EXPECT_EQ(reader.stream(2).records, 0u) << "zero-record stream";
    EXPECT_EQ(reader.stream(2).chunks, 0u);

    std::vector<TraceRecord> got(second.size());
    EXPECT_EQ(reader.read(1, 0, got.data(), got.size()),
              second.size());
    for (std::size_t i = 0; i < second.size(); ++i)
        ASSERT_EQ(got[i].vaddr, second[i].vaddr) << "record " << i;
}

TEST_F(TracePackTest, PackStreamSourceWrapsAndRewinds)
{
    const auto records = syntheticRecords(5, 3);
    {
        TracePackWriter writer(path, {"core0"});
        writer.append(0, records.data(), records.size());
    }

    auto reader = std::make_shared<TracePackReader>(path);
    PackStreamSource source(reader, 0, /*wrap=*/true);
    EXPECT_EQ(source.recordCount(), 5u);

    std::vector<TraceRecord> block(13);
    EXPECT_EQ(source.fill(block.data(), 13), 13u);
    for (int i = 0; i < 13; ++i)
        EXPECT_EQ(block[i].vaddr, records[i % 5].vaddr)
            << "record " << i;

    source.rewind();
    TraceRecord head;
    EXPECT_EQ(source.fill(&head, 1), 1u);
    EXPECT_EQ(head.vaddr, records[0].vaddr);
}

TEST_F(TracePackTest, PackStreamSourceShortReadsWithoutWrap)
{
    const auto records = syntheticRecords(10, 4);
    {
        TracePackWriter writer(path, {"core0"});
        writer.append(0, records.data(), records.size());
    }
    auto reader = std::make_shared<TracePackReader>(path);
    PackStreamSource source(reader, 0, /*wrap=*/false);
    std::vector<TraceRecord> block(16);
    EXPECT_EQ(source.fill(block.data(), 16), 10u);
    EXPECT_EQ(source.fill(block.data(), 16), 0u);
}

TEST_F(TracePackTest, EmptyStreamNeverSpinsEvenWithWrap)
{
    {
        TracePackWriter writer(path, {"empty", "full"});
        const auto records = syntheticRecords(3, 5);
        writer.append(1, records.data(), records.size());
    }
    auto reader = std::make_shared<TracePackReader>(path);
    PackStreamSource source(reader, 0, /*wrap=*/true);
    TraceRecord block[4];
    EXPECT_EQ(source.fill(block, 4), 0u);
}

TEST_F(TracePackTest, ContentHashChangesWithOneRecord)
{
    auto records = syntheticRecords(1000, 9);
    std::string firstHash;
    {
        TracePackWriter writer(path, {"core0"}, 256);
        writer.append(0, records.data(), records.size());
        writer.close();
        firstHash = writer.contentHash();
    }
    EXPECT_EQ(TracePackReader(path).contentHash(), firstHash);
    EXPECT_EQ(tracePackContentHash(path), firstHash);

    records[500].vaddr ^= 0x1000; // one record, one page bit
    {
        TracePackWriter writer(path, {"core0"}, 256);
        writer.append(0, records.data(), records.size());
        writer.close();
        EXPECT_NE(writer.contentHash(), firstHash);
    }
    EXPECT_NE(tracePackContentHash(path), firstHash);
}

// -- corrupt and truncated input ----------------------------------

TEST_F(TracePackTest, TornTailRecoversThePrefix)
{
    const auto records = syntheticRecords(2048, 11);
    {
        TracePackWriter writer(path, {"core0"}, 256);
        writer.append(0, records.data(), records.size());
        writer.close();
    }
    const std::string intact = fileBytes(path);

    // Cut mid-way through the 5th chunk's payload: the reader must
    // keep the 4 complete chunks and drop the torn tail.
    const std::size_t chunkOnDisk = 64 + 256 * 16;
    const std::size_t dataStart = 128 + 64; // header + directory
    writeBytes(path, intact.substr(0, dataStart + 4 * chunkOnDisk +
                                          64 + 100));

    TracePackReader reader(path);
    EXPECT_TRUE(reader.recovered());
    EXPECT_FALSE(reader.finalized());
    EXPECT_EQ(reader.stream(0).name, "core0")
        << "directory survives the torn tail";
    EXPECT_EQ(reader.stream(0).records, 4u * 256u);
    std::vector<TraceRecord> got(4 * 256);
    EXPECT_EQ(reader.read(0, 0, got.data(), got.size()),
              got.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i].vaddr, records[i].vaddr) << "record " << i;
}

TEST_F(TracePackTest, BitFlippedChunkIsNamedOnFirstRead)
{
    const auto records = syntheticRecords(1024, 13);
    {
        TracePackWriter writer(path, {"core0"}, 256);
        writer.append(0, records.data(), records.size());
        writer.close();
    }
    std::string bytes = fileBytes(path);
    // Flip one payload bit in the 3rd chunk (file layout: header,
    // 64-byte directory, then 64-byte chunk headers + payloads).
    const std::size_t chunkOnDisk = 64 + 256 * 16;
    const std::size_t dataStart = 128 + 64;
    bytes[dataStart + 2 * chunkOnDisk + 64 + 10] ^= 0x01;
    writeBytes(path, bytes);

    // Checksums are lazy: open succeeds, untouched chunks read
    // fine, and the corrupt chunk throws a path-named error when
    // first touched.
    TracePackReader reader(path);
    EXPECT_TRUE(reader.finalized());
    TraceRecord one;
    EXPECT_EQ(reader.read(0, 0, &one, 1), 1u);
    try {
        std::vector<TraceRecord> all(1024);
        reader.read(0, 0, all.data(), all.size());
        FAIL() << "expected TraceError";
    } catch (const TraceError &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find(path), std::string::npos) << what;
        EXPECT_NE(what.find("chunk 2"), std::string::npos) << what;
        EXPECT_NE(what.find("checksum"), std::string::npos) << what;
    }
}

TEST_F(TracePackTest, GarbageAndShortFilesAreNamedErrors)
{
    writeBytes(path, "not a pack");
    try {
        TracePackReader reader(path);
        FAIL() << "expected TraceError";
    } catch (const TraceError &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find(path), std::string::npos) << what;
        EXPECT_NE(what.find("10 bytes"), std::string::npos) << what;
    }
    EXPECT_THROW(TracePackReader("/nonexistent/trace.pack"),
                 TraceError);
}

TEST_F(TracePackTest, UnsupportedVersionIsRejected)
{
    {
        TracePackWriter writer(path, {"core0"});
        const auto records = syntheticRecords(4, 1);
        writer.append(0, records.data(), records.size());
    }
    std::string bytes = fileBytes(path);
    bytes[8] = 9; // version field
    writeBytes(path, bytes);
    try {
        TracePackReader reader(path);
        FAIL() << "expected TraceError";
    } catch (const TraceError &error) {
        EXPECT_NE(std::string(error.what()).find("version 9"),
                  std::string::npos)
            << error.what();
    }
}

TEST_F(TracePackTest, FuzzRandomTruncationNeverCrashes)
{
    const auto records = syntheticRecords(1500, 17);
    {
        TracePackWriter writer(path, {"a", "b"}, 128);
        writer.append(0, records.data(), 700);
        writer.append(1, records.data() + 700, 800);
        writer.close();
    }
    const std::string intact = fileBytes(path);
    const std::string fullHash = TracePackReader(path).contentHash();

    std::mt19937_64 rng(20260808);
    std::uniform_int_distribution<std::size_t> cut(
        0, intact.size() - 1);
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t keep =
            trial < 8 ? static_cast<std::size_t>(trial)
                      : cut(rng);
        writeBytes(path, intact.substr(0, keep));
        try {
            TracePackReader reader(path);
            // Opened: every retained record must be readable and
            // match the original — recovery never invents data.
            ASSERT_LE(reader.stream(0).records, 700u);
            ASSERT_LE(reader.stream(1).records, 800u);
            std::vector<TraceRecord> got(
                std::max<std::uint64_t>(reader.recordCount(), 1));
            const std::size_t a = reader.read(
                0, 0, got.data(), reader.stream(0).records);
            ASSERT_EQ(a, reader.stream(0).records);
            for (std::size_t i = 0; i < a; ++i)
                ASSERT_EQ(got[i].vaddr, records[i].vaddr);
            const std::size_t b = reader.read(
                1, 0, got.data(), reader.stream(1).records);
            ASSERT_EQ(b, reader.stream(1).records);
            for (std::size_t i = 0; i < b; ++i)
                ASSERT_EQ(got[i].vaddr, records[700 + i].vaddr);
            if (keep < intact.size())
                ASSERT_TRUE(reader.recovered())
                    << "a truncated pack cannot claim finality";
            else
                ASSERT_EQ(reader.contentHash(), fullHash);
        } catch (const TraceError &error) {
            // Rejected: fine, as long as the error names the path.
            ASSERT_NE(std::string(error.what()).find(path),
                      std::string::npos)
                << error.what();
        }
    }
}

// -- converters ---------------------------------------------------

TEST_F(TracePackTest, LegacyScanStreamsEveryRecordOnce)
{
    const std::string legacy =
        testTempPath("pomtlb_tracepack_legacy", ".pomt");
    const auto records = syntheticRecords(2500, 19);
    {
        TraceFileWriter writer(legacy);
        for (const TraceRecord &record : records)
            writer.append(record);
    }

    std::vector<TraceRecord> seen;
    const std::uint64_t count = scanLegacyTrace(
        legacy, [&](const TraceRecord *block, std::size_t n) {
            seen.insert(seen.end(), block, block + n);
        });
    EXPECT_EQ(count, records.size());
    ASSERT_EQ(seen.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        ASSERT_EQ(seen[i].vaddr, records[i].vaddr) << "record " << i;
        ASSERT_EQ(seen[i].instGap, records[i].instGap);
        ASSERT_EQ(seen[i].type, records[i].type);
        ASSERT_EQ(seen[i].pageSize, records[i].pageSize);
    }

    // Truncation is a named, size-reporting error up front — the
    // sink never sees a partial stream presented as complete.
    std::string bytes = fileBytes(legacy);
    bytes.resize(bytes.size() - 7);
    writeBytes(legacy, bytes);
    try {
        scanLegacyTrace(legacy,
                        [](const TraceRecord *, std::size_t) {});
        FAIL() << "expected TraceError";
    } catch (const TraceError &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find(legacy), std::string::npos) << what;
        EXPECT_NE(what.find("2500 records"), std::string::npos)
            << what;
    }
    std::remove(legacy.c_str());
}

TEST_F(TracePackTest, TextFormRoundTripsAndNamesBadLines)
{
    const std::string text =
        testTempPath("pomtlb_tracepack_text", ".csv");
    {
        std::ofstream out(text);
        out << "# pomtlb-tracetext-v1\n"
            << "\n"
            << "0x1a000,3,R,4K\n"
            << "  0xdeadbeef000 , 1 , W , 2M  \n"
            << "4096,7,r,4k\n";
    }
    std::vector<TraceRecord> seen;
    EXPECT_EQ(scanTextTrace(
                  text,
                  [&](const TraceRecord *block, std::size_t n) {
                      seen.insert(seen.end(), block, block + n);
                  }),
              3u);
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0].vaddr, 0x1a000u);
    EXPECT_EQ(seen[0].instGap, 3u);
    EXPECT_EQ(seen[0].type, AccessType::Read);
    EXPECT_EQ(seen[0].pageSize, PageSize::Small4K);
    EXPECT_EQ(seen[1].vaddr, 0xdeadbeef000u);
    EXPECT_EQ(seen[1].type, AccessType::Write);
    EXPECT_EQ(seen[1].pageSize, PageSize::Large2M);
    EXPECT_EQ(seen[2].vaddr, 4096u);

    // formatTextRecord emits lines scanTextTrace accepts.
    EXPECT_EQ(formatTextRecord(seen[1]), "0xdeadbeef000,1,W,2M");

    {
        std::ofstream out(text);
        out << "0x1000,1,R,4K\n0x2000,oops,R,4K\n";
    }
    try {
        scanTextTrace(text,
                      [](const TraceRecord *, std::size_t) {});
        FAIL() << "expected TraceError";
    } catch (const TraceError &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find(text), std::string::npos) << what;
        EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    }
    std::remove(text.c_str());
}

// -- the info document --------------------------------------------

TEST_F(TracePackTest, InfoJsonDescribesThePack)
{
    const auto records = syntheticRecords(300, 23);
    {
        TracePackWriter writer(path, {"core0", "core1"}, 128);
        writer.append(0, records.data(), 200);
        writer.append(1, records.data() + 200, 100);
    }
    const JsonValue doc = tracePackInfoJson(path);
    EXPECT_EQ(doc.at("schema").asString(), "pomtlb-tracepack-v1");
    EXPECT_EQ(doc.at("path").asString(), path);
    EXPECT_EQ(doc.at("record_bytes").asUint(), 16u);
    EXPECT_EQ(doc.at("header_bytes").asUint(), 128u);
    EXPECT_EQ(doc.at("chunk_records").asUint(), 128u);
    EXPECT_EQ(doc.at("records").asUint(), 300u);
    EXPECT_EQ(doc.at("chunks").asUint(), 3u);
    EXPECT_TRUE(doc.at("finalized").asBool());
    EXPECT_EQ(doc.at("content_hash").asString(),
              tracePackContentHash(path));
    EXPECT_GT(doc.at("file_bytes").asUint(), 0u);
    ASSERT_EQ(doc.at("streams").size(), 2u);
    EXPECT_EQ(doc.at("streams").at(0).at("name").asString(),
              "core0");
    EXPECT_EQ(doc.at("streams").at(0).at("records").asUint(), 200u);
    EXPECT_EQ(doc.at("streams").at(1).at("chunks").asUint(), 1u);
}

// -- docs/trace-format.md coverage --------------------------------

// Every key the info document can emit must appear as a backticked
// token in docs/trace-format.md, the same discipline metrics.md and
// sweep-service.md are held to.
TEST_F(TracePackTest, TraceFormatDocCoversTheInfoDocument)
{
    const std::string docPath =
        std::string(POMTLB_SOURCE_DIR) + "/docs/trace-format.md";
    std::ifstream in(docPath);
    ASSERT_TRUE(in.good()) << "cannot open " << docPath;
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string doc = buffer.str();

    std::set<std::string> documented;
    std::size_t at = 0;
    while ((at = doc.find('`', at)) != std::string::npos) {
        const std::size_t end = doc.find('`', at + 1);
        if (end == std::string::npos)
            break;
        documented.insert(doc.substr(at + 1, end - at - 1));
        at = end + 1;
    }

    const auto records = syntheticRecords(10, 29);
    {
        TracePackWriter writer(path, {"core0"});
        writer.append(0, records.data(), records.size());
    }
    const JsonValue info = tracePackInfoJson(path);

    std::function<void(const JsonValue &)> walk =
        [&](const JsonValue &value) {
            if (value.isObject()) {
                for (const auto &member : value.members()) {
                    EXPECT_TRUE(documented.count(member.first))
                        << "info key '" << member.first
                        << "' is not documented in "
                           "docs/trace-format.md";
                    walk(member.second);
                }
            } else if (value.isArray()) {
                for (const auto &element : value.elements())
                    walk(element);
            }
        };
    walk(info);

    // The schema name and the text form's tag must be documented
    // verbatim too.
    EXPECT_TRUE(documented.count("pomtlb-tracepack-v1"));
    EXPECT_TRUE(documented.count("pomtlb-tracetext-v1"));
}

} // namespace
} // namespace pomtlb
