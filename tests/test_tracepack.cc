/**
 * @file
 * Trace-pack container tests: round trips, multi-stream packs, the
 * wrap/rewind contract, the rejection of unclosed, truncated and
 * index-damaged packs, corrupt-chunk detection, a
 * randomized-truncation fuzz loop, the text form, the info document,
 * and the docs/trace-format.md coverage gate.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/json.hh"
#include "sim/engine.hh"
#include "trace/error.hh"
#include "trace/generator.hh"
#include "trace/source.hh"
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

/** Write @p records as the one stream "core0" of a closed pack. */
void
writePack(const std::string &path,
          const std::vector<TraceRecord> &records)
{
    TracePackWriter writer(path, {"core0"});
    writer.append(0, records.data(), records.size());
    writer.close();
}

/** Opening @p path must throw a TraceError that names the path. */
void
expectNamedRejection(const std::string &path, const std::string &why)
{
    try {
        TracePackReader reader(path);
        ADD_FAILURE() << why << ": opened with "
                      << reader.recordCount() << " records";
    } catch (const TraceError &error) {
        EXPECT_NE(std::string(error.what()).find(path),
                  std::string::npos)
            << why << ": " << error.what();
    }
}

/** File bytes of one full chunk: its 64-byte header and payload. */
constexpr std::size_t chunkOnDisk = 64 + tracePackChunkRecords * 16;
/** Offset of the first chunk: the header and a 64-byte directory. */
constexpr std::size_t dataStart = 128 + 64;

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
        TracePackWriter writer(path, {"core0"});
        writer.append(0, records.data(), records.size());
        writer.close();
        EXPECT_EQ(writer.recordCount(), records.size());
    }

    TracePackReader reader(path);
    EXPECT_EQ(reader.chunkRecords(), tracePackChunkRecords);
    EXPECT_EQ(reader.streamCount(), 1u);
    EXPECT_EQ(reader.recordCount(), records.size());
    EXPECT_EQ(reader.stream(0).name, "core0");
    EXPECT_EQ(reader.stream(0).records, records.size());
    // 10000 records at 4096 per chunk: 2 full chunks + 1 partial.
    EXPECT_EQ(reader.stream(0).chunks, 3u);
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
    const auto records = syntheticRecords(10000, 7);
    writePack(path, records);

    TracePackReader reader(path);
    // Reads starting mid-stream (mid-chunk and at chunk edges)
    // return exactly the records a sequential read would.
    for (std::uint64_t pos : {1u, 4095u, 4096u, 4097u, 9999u}) {
        TraceRecord one;
        ASSERT_EQ(reader.read(0, pos, &one, 1), 1u) << pos;
        EXPECT_EQ(one.vaddr, records[pos].vaddr) << pos;
    }
    TraceRecord past;
    EXPECT_EQ(reader.read(0, 10000, &past, 1), 0u);
}

// tests/data/mcf_c2_chunk256.pack was written by an older build,
// whose `trace pack --benchmark mcf --cores 2 --count 300` could set
// 256-record chunks. The reader takes the chunk size its header
// declares, decodes across those chunk edges, and reports the content
// hash that build printed, so sweep-cache identities of older packs
// still hold.
TEST_F(TracePackTest, OlderPackWithSmallerChunksStillOpens)
{
    const std::string fixture = std::string(POMTLB_SOURCE_DIR) +
                                "/tests/data/mcf_c2_chunk256.pack";
    TracePackReader reader(fixture);
    EXPECT_EQ(reader.chunkRecords(), 256u);
    EXPECT_EQ(reader.chunkCount(), 4u);
    EXPECT_EQ(reader.contentHash(), "8833624976e49860bf530d88baf0786d");

    const std::uint64_t seed =
        EngineConfig().seed ^ SystemConfig::table1().seed;
    for (unsigned core = 0; core < 2; ++core) {
        GeneratorSource source(ProfileRegistry::byName("mcf"), core,
                               seed);
        std::vector<TraceRecord> want(300), got(300);
        source.fill(want.data(), want.size());
        ASSERT_EQ(reader.read(core, 0, got.data(), got.size()), 300u);
        for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(got[i].vaddr, want[i].vaddr) << core << "/" << i;
            ASSERT_EQ(got[i].instGap, want[i].instGap);
            ASSERT_EQ(got[i].type, want[i].type);
            ASSERT_EQ(got[i].pageSize, want[i].pageSize);
        }
    }
}

TEST_F(TracePackTest, MultiStreamPackKeepsStreamsApart)
{
    const auto first = syntheticRecords(5000, 1);
    const auto second = syntheticRecords(9000, 2);
    {
        TracePackWriter writer(path, {"tenant0", "tenant1", "spare"});
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
    writePack(path, records);

    auto reader = std::make_shared<TracePackReader>(path);
    PackStreamSource source(reader, 0);
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

TEST_F(TracePackTest, EmptyStreamNeverSpinsEvenWithWrap)
{
    {
        TracePackWriter writer(path, {"empty", "full"});
        const auto records = syntheticRecords(3, 5);
        writer.append(1, records.data(), records.size());
        writer.close();
    }
    auto reader = std::make_shared<TracePackReader>(path);
    PackStreamSource source(reader, 0);
    TraceRecord block[4];
    EXPECT_EQ(source.fill(block, 4), 0u);
}

TEST_F(TracePackTest, ContentHashChangesWithOneRecord)
{
    auto records = syntheticRecords(1000, 9);
    std::string firstHash;
    {
        TracePackWriter writer(path, {"core0"});
        writer.append(0, records.data(), records.size());
        writer.close();
        firstHash = writer.contentHash();
    }
    EXPECT_EQ(TracePackReader(path).contentHash(), firstHash);
    EXPECT_EQ(tracePackContentHash(path), firstHash);

    records[500].vaddr ^= 0x1000; // one record, one page bit
    {
        TracePackWriter writer(path, {"core0"});
        writer.append(0, records.data(), records.size());
        writer.close();
        EXPECT_NE(writer.contentHash(), firstHash);
    }
    EXPECT_NE(tracePackContentHash(path), firstHash);
}

// -- corrupt and truncated input ----------------------------------

TEST_F(TracePackTest, HeaderContentHashIsCheckedWhereItNamesThePack)
{
    // Two streams whose chunks interleave in the file (a0 b0 a1), so
    // the recomputed hash must follow file order, as the writer did.
    const auto records =
        syntheticRecords(2 * tracePackChunkRecords + 100, 19);
    std::string written;
    {
        TracePackWriter writer(path, {"a", "b"});
        writer.append(0, records.data(), tracePackChunkRecords);
        writer.append(1, records.data() + tracePackChunkRecords,
                      tracePackChunkRecords);
        writer.append(0, records.data() + 2 * tracePackChunkRecords,
                      100);
        writer.close();
        written = writer.contentHash();
    }
    EXPECT_EQ(tracePackContentHash(path), written);

    // Change the header hash's first character (byte 48) to another
    // hex digit: the header still parses, but names content no pack
    // has.
    std::string bytes = fileBytes(path);
    bytes[48] = bytes[48] == '5' ? '7' : '5';
    writeBytes(path, bytes);

    const auto expectNamedMismatch = [&](const char *what,
                                         const auto &call) {
        try {
            call();
            ADD_FAILURE() << what << " accepted a wrong content hash";
        } catch (const TraceError &error) {
            const std::string message = error.what();
            EXPECT_NE(message.find(path), std::string::npos) << message;
            EXPECT_NE(message.find("content hash"), std::string::npos)
                << message;
        }
    };
    expectNamedMismatch("tracePackContentHash",
                        [&] { tracePackContentHash(path); });
    expectNamedMismatch("tracePackInfoJson",
                        [&] { tracePackInfoJson(path); });

    // Replay does not read the header hash: the pack still opens
    // and every record reads back.
    TracePackReader reader(path);
    std::vector<TraceRecord> replayed(tracePackChunkRecords + 100);
    ASSERT_EQ(reader.read(0, 0, replayed.data(), replayed.size()),
              replayed.size());
    EXPECT_EQ(replayed.back().vaddr, records.back().vaddr);
}

TEST_F(TracePackTest, DamagedPacksAreNamedNotReplayed)
{
    const auto records = syntheticRecords(10000, 11);
    writePack(path, records);
    const std::string intact = fileBytes(path);
    std::uint64_t indexOffset = 0;
    for (int i = 7; i >= 0; --i)
        indexOffset = (indexOffset << 8) |
                      static_cast<unsigned char>(intact[40 + i]);
    ASSERT_LT(indexOffset, intact.size());
    // The intact pack with the u64 at byte @p at set to @p value.
    const auto writeWithU64 = [&](std::uint64_t at,
                                  std::uint64_t value) {
        std::string bytes = intact;
        for (int i = 0; i < 8; ++i)
            bytes[at + i] = static_cast<char>(value >> (8 * i));
        writeBytes(path, bytes);
    };

    // index_offset zeroed: the state a writer that never reached
    // close() leaves behind.
    writeWithU64(40, 0);
    expectNamedRejection(path, "index_offset zeroed");

    // Cut mid-way through the 2nd chunk's payload: the prefix holds
    // one complete chunk, but nothing of it is replayed.
    writeBytes(path,
               intact.substr(0, dataStart + chunkOnDisk + 64 + 100));
    expectNamedRejection(path, "cut mid-chunk");

    // Any one flipped bit in the index footer (the file's tail, from
    // index_offset on): its digest, or a check before it, fails.
    for (std::size_t at = indexOffset; at < intact.size(); ++at) {
        std::string flipped = intact;
        flipped[at] ^= 0x01;
        writeBytes(path, flipped);
        expectNamedRejection(path, "index bit flipped at byte " +
                                       std::to_string(at));
    }

    // Offsets and counts whose bounds checks would wrap 64 bits.
    writeWithU64(40, ~std::uint64_t{7});
    expectNamedRejection(path, "index_offset near 2^64");
    writeWithU64(indexOffset + 16, (std::uint64_t{1} << 61) + 3);
    expectNamedRejection(path, "chunk count times 8 wraps");
    writeWithU64(indexOffset + 32, ~std::uint64_t{15});
    expectNamedRejection(path, "chunk offset near 2^64");

    // A writer dropped without close() publishes nothing.
    {
        TracePackWriter writer(path, {"core0"});
        writer.append(0, records.data(), records.size());
    }
    expectNamedRejection(path, "writer never closed");
}

TEST_F(TracePackTest, BitFlippedChunkIsNamedOnFirstRead)
{
    const auto records =
        syntheticRecords(3 * tracePackChunkRecords, 13);
    writePack(path, records);
    std::string bytes = fileBytes(path);
    // Flip one payload bit in the 3rd chunk (file layout: header,
    // 64-byte directory, then 64-byte chunk headers + payloads).
    bytes[dataStart + 2 * chunkOnDisk + 64 + 10] ^= 0x01;
    writeBytes(path, bytes);

    // Checksums are lazy: open succeeds, untouched chunks read
    // fine, and the corrupt chunk throws a path-named error when
    // first touched.
    TracePackReader reader(path);
    TraceRecord one;
    EXPECT_EQ(reader.read(0, 0, &one, 1), 1u);
    try {
        std::vector<TraceRecord> all(records.size());
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
    writePack(path, syntheticRecords(4, 1));
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
    const auto records = syntheticRecords(4500, 17);
    {
        TracePackWriter writer(path, {"a", "b"});
        writer.append(0, records.data(), 4200); // 2 chunks
        writer.append(1, records.data() + 4200, 300);
        writer.close();
    }
    const std::string intact = fileBytes(path);
    const std::string fullHash = TracePackReader(path).contentHash();

    // Every strict prefix is rejected by name, never opened as a
    // shorter trace. Cut at every 64-byte boundary (each chunk
    // boundary among them, where a prefix of whole chunks ends), at
    // every byte of the header, directory and index footer, and at
    // random bytes in between.
    std::vector<std::size_t> cuts;
    for (std::size_t keep = 0; keep < intact.size(); ++keep) {
        if (keep % 64 == 0 || keep < 256 || keep + 128 >= intact.size())
            cuts.push_back(keep);
    }
    std::mt19937_64 rng(20260808);
    std::uniform_int_distribution<std::size_t> cut(
        0, intact.size() - 1);
    for (int trial = 0; trial < 200; ++trial)
        cuts.push_back(cut(rng));
    for (const std::size_t keep : cuts) {
        writeBytes(path, intact.substr(0, keep));
        expectNamedRejection(path, "prefix of " +
                                       std::to_string(keep) +
                                       " bytes");
    }

    writeBytes(path, intact);
    EXPECT_EQ(TracePackReader(path).contentHash(), fullHash);
}

// -- the text form ------------------------------------------------

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
    const auto records = syntheticRecords(5100, 23);
    {
        TracePackWriter writer(path, {"core0", "core1"});
        writer.append(0, records.data(), 5000);
        writer.append(1, records.data() + 5000, 100);
        writer.close();
    }
    const JsonValue doc = tracePackInfoJson(path);
    EXPECT_EQ(doc.at("schema").asString(), "pomtlb-tracepack-v1");
    EXPECT_EQ(doc.at("path").asString(), path);
    EXPECT_EQ(doc.at("record_bytes").asUint(), 16u);
    EXPECT_EQ(doc.at("header_bytes").asUint(), 128u);
    EXPECT_EQ(doc.at("chunk_records").asUint(), 4096u);
    EXPECT_EQ(doc.at("records").asUint(), 5100u);
    EXPECT_EQ(doc.at("chunks").asUint(), 3u);
    EXPECT_EQ(doc.at("content_hash").asString(),
              tracePackContentHash(path));
    EXPECT_GT(doc.at("file_bytes").asUint(), 0u);
    ASSERT_EQ(doc.at("streams").size(), 2u);
    EXPECT_EQ(doc.at("streams").at(0).at("name").asString(),
              "core0");
    EXPECT_EQ(doc.at("streams").at(0).at("records").asUint(), 5000u);
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

    writePack(path, syntheticRecords(10, 29));
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
