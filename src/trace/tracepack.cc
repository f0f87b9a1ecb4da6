#include "trace/tracepack.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

namespace pomtlb
{

namespace
{

constexpr char packMagic[8] = {'P', 'O', 'M', 'T', 'P', 'A', 'K',
                               '1'};
constexpr char dirMagic[4] = {'P', 'K', 'S', 'D'};
constexpr char chunkMagic[4] = {'P', 'K', 'C', 'H'};
constexpr char indexMagic[8] = {'P', 'K', 'I', 'X', 'P', 'K', 'I',
                                'X'};

constexpr std::uint64_t packHeaderBytes = 128;
constexpr std::uint64_t chunkHeaderBytes = 64;
constexpr std::uint64_t packAlignment = 64;
constexpr std::uint32_t packRecordBytes = 16;
constexpr std::size_t digestChars = 32;

constexpr std::uint8_t flagWrite = 1u << 0;
constexpr std::uint8_t flagLargePage = 1u << 1;

std::uint64_t
alignUp(std::uint64_t value)
{
    return (value + packAlignment - 1) & ~(packAlignment - 1);
}

void
putU32(std::string &out, std::uint32_t value)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(
            static_cast<char>((value >> (8 * i)) & 0xff));
}

void
putU64(std::string &out, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(
            static_cast<char>((value >> (8 * i)) & 0xff));
}

std::uint32_t
loadU32(const unsigned char *p)
{
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i)
        value |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return value;
}

std::uint64_t
loadU64(const unsigned char *p)
{
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i)
        value |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return value;
}

void
packRecord(std::string &out, const TraceRecord &record)
{
    putU64(out, record.vaddr);
    putU32(out, record.instGap);
    std::uint8_t flags = 0;
    if (record.type == AccessType::Write)
        flags |= flagWrite;
    if (record.pageSize == PageSize::Large2M)
        flags |= flagLargePage;
    out.push_back(static_cast<char>(flags));
    out.push_back(0);
    out.push_back(0);
    out.push_back(0);
}

TraceRecord
unpackRecord(const unsigned char *p)
{
    TraceRecord record;
    record.vaddr = loadU64(p);
    record.instGap = loadU32(p + 8);
    const std::uint8_t flags = p[12];
    record.type = (flags & flagWrite) ? AccessType::Write
                                      : AccessType::Read;
    record.pageSize = (flags & flagLargePage) ? PageSize::Large2M
                                              : PageSize::Small4K;
    return record;
}

/** Digest of one chunk: 4 LE stream-id bytes, then the payload. */
std::string
chunkDigest(std::uint32_t stream, const unsigned char *payload,
            std::size_t payloadBytes)
{
    // Two independent 64-bit FNV-1a lanes over the stream id, the
    // payload length, and the payload as 8-byte little-endian words
    // (tail bytes zero-extended). Word-at-a-time keeps first-read
    // verification off the replay critical path — one multiply per
    // 8 bytes instead of the byte-streamed ContentHash's one per
    // byte — and two lanes with distinct primes keep the printed
    // digest at the same 32 hex characters as every other digest
    // in the file. The identity-grade file content_hash still uses
    // ContentHash (absorbChunk below).
    constexpr std::uint64_t prime0 = 0x100000001b3ULL;
    constexpr std::uint64_t prime1 = 0x9e3779b97f4a7c15ULL;
    std::uint64_t lane0 = 0xcbf29ce484222325ULL;
    std::uint64_t lane1 = 0x84222325cbf29ce4ULL;
    const auto absorb = [&](std::uint64_t word) {
        lane0 = (lane0 ^ word) * prime0;
        lane1 = (lane1 ^ word) * prime1;
    };
    absorb(stream);
    absorb(payloadBytes);
    std::size_t i = 0;
    for (; i + 8 <= payloadBytes; i += 8)
        absorb(loadU64(payload + i));
    if (i < payloadBytes) {
        unsigned char tail[8] = {};
        std::memcpy(tail, payload + i, payloadBytes - i);
        absorb(loadU64(tail));
    }
    char text[33];
    std::snprintf(text, sizeof(text), "%016llx%016llx",
                  static_cast<unsigned long long>(lane0),
                  static_cast<unsigned long long>(lane1));
    return std::string(text, 32);
}

void
absorbChunk(ContentHash &hasher, std::uint32_t stream,
            const unsigned char *payload, std::size_t payloadBytes)
{
    std::string idBytes;
    putU32(idBytes, stream);
    hasher.update(idBytes).update(payload, payloadBytes);
}

} // namespace

// ---------------------------------------------------------------
// TracePackWriter
// ---------------------------------------------------------------

TracePackWriter::TracePackWriter(
    const std::string &path, std::vector<std::string> streamNames)
    : out(path, std::ios::binary | std::ios::trunc), filePath(path)
{
    if (streamNames.empty())
        throw TraceError("trace pack '" + path +
                         "': at least one stream is required");
    if (!out)
        throw TraceError("cannot create trace pack '" + path + "'");

    streams.reserve(streamNames.size());
    for (auto &name : streamNames) {
        StreamState state;
        state.name = std::move(name);
        state.pending.reserve(tracePackChunkRecords);
        streams.push_back(std::move(state));
    }

    // Provisional header: index_offset 0 and a zero hash mark the
    // pack as unclosed until close() rewrites it.
    writeHeader(0, std::string(digestChars, '0'));
    writeOffset = packHeaderBytes;

    // Stream directory, written before any chunk.
    std::string names;
    for (const auto &stream : streams) {
        putU32(names,
               static_cast<std::uint32_t>(stream.name.size()));
        names.append(stream.name);
    }
    const std::uint64_t dirBytes =
        alignUp(12 + names.size() + digestChars);
    std::string body;
    body.append(dirMagic, sizeof(dirMagic));
    putU32(body, static_cast<std::uint32_t>(dirBytes));
    putU32(body, static_cast<std::uint32_t>(streams.size()));
    body.append(names);
    // Digest covers magic..names; the zero padding between the
    // names and the trailing digest slot is excluded (the reader
    // hashes exactly the bytes it parsed).
    const std::string digest = ContentHash::of(body);
    body.resize(dirBytes - digestChars, '\0');
    body.append(digest);
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
    writeOffset += body.size();
}

void
TracePackWriter::writeHeader(std::uint64_t indexOffset,
                             const std::string &hashHex)
{
    std::string header;
    header.append(packMagic, sizeof(packMagic));
    putU32(header, tracePackVersion);
    putU32(header, static_cast<std::uint32_t>(packHeaderBytes));
    putU32(header, static_cast<std::uint32_t>(streams.size()));
    putU32(header, packRecordBytes);
    putU64(header, tracePackChunkRecords);
    putU64(header, totalRecords);
    putU64(header, indexOffset);
    header.append(hashHex);
    header.resize(packHeaderBytes, '\0');
    out.seekp(0);
    out.write(header.data(),
              static_cast<std::streamsize>(header.size()));
}

void
TracePackWriter::append(std::uint32_t stream,
                        const TraceRecord &record)
{
    append(stream, &record, 1);
}

void
TracePackWriter::append(std::uint32_t stream,
                        const TraceRecord *records, std::size_t n)
{
    if (closed)
        throw TraceError("trace pack '" + filePath +
                         "': append after close");
    if (stream >= streams.size())
        throw TraceError(
            "trace pack '" + filePath + "': stream " +
            std::to_string(stream) + " out of range (" +
            std::to_string(streams.size()) + " streams)");
    StreamState &state = streams[stream];
    for (std::size_t i = 0; i < n; ++i) {
        state.pending.push_back(records[i]);
        if (state.pending.size() >= tracePackChunkRecords)
            flushChunk(stream);
    }
    totalRecords += n;
    // state.records counts *flushed* records; pending ones are
    // added when their chunk flushes.
}

void
TracePackWriter::flushChunk(std::uint32_t stream)
{
    StreamState &state = streams[stream];
    if (state.pending.empty())
        return;

    std::string payload;
    payload.reserve(state.pending.size() * packRecordBytes);
    for (const TraceRecord &record : state.pending)
        packRecord(payload, record);

    const auto *payloadBytes =
        reinterpret_cast<const unsigned char *>(payload.data());
    const std::string digest =
        chunkDigest(stream, payloadBytes, payload.size());
    absorbChunk(hasher, stream, payloadBytes, payload.size());

    std::string header;
    header.append(chunkMagic, sizeof(chunkMagic));
    putU32(header, stream);
    putU64(header, state.records);
    putU32(header, static_cast<std::uint32_t>(state.pending.size()));
    putU32(header, static_cast<std::uint32_t>(payload.size()));
    header.append(digest);
    header.resize(chunkHeaderBytes, '\0');

    state.chunkOffsets.push_back(writeOffset);
    state.records += state.pending.size();
    state.pending.clear();

    payload.resize(alignUp(payload.size()), '\0');
    out.write(header.data(),
              static_cast<std::streamsize>(header.size()));
    out.write(payload.data(),
              static_cast<std::streamsize>(payload.size()));
    writeOffset += header.size() + payload.size();
}

void
TracePackWriter::close()
{
    if (closed)
        return;
    for (std::uint32_t s = 0; s < streams.size(); ++s)
        flushChunk(s);

    // Index footer, then the publishing header rewrite: a crash
    // before the rewrite leaves index_offset 0, an unclosed pack
    // that readers reject.
    const std::uint64_t indexOffset = writeOffset;
    std::string index;
    index.append(indexMagic, sizeof(indexMagic));
    putU32(index, static_cast<std::uint32_t>(streams.size()));
    putU32(index, 0);
    for (const StreamState &state : streams) {
        putU64(index, state.chunkOffsets.size());
        putU64(index, state.records);
        for (std::uint64_t offset : state.chunkOffsets)
            putU64(index, offset);
    }
    index.append(ContentHash::of(index));
    out.write(index.data(),
              static_cast<std::streamsize>(index.size()));

    writeHeader(indexOffset, hasher.hexDigest());
    out.flush();
    if (!out)
        throw TraceError("error writing trace pack '" + filePath +
                         "'");
    out.close();
    closed = true;
}

// ---------------------------------------------------------------
// TracePackReader
// ---------------------------------------------------------------

TracePackReader::TracePackReader(const std::string &path)
    : filePath(path)
{
    openMapping();

    if (mapSize < packHeaderBytes)
        throw TraceError(
            "trace pack '" + filePath + "' is too short: " +
            std::to_string(mapSize) + " bytes, but the header alone "
            "is " + std::to_string(packHeaderBytes) + " bytes");
    if (std::memcmp(at(0), packMagic, sizeof(packMagic)) != 0)
        throw TraceError("'" + filePath +
                         "' is not a pomtlb trace pack (bad magic)");
    const std::uint32_t version = loadU32(at(8));
    if (version != tracePackVersion)
        throw TraceError(
            "trace pack '" + filePath + "' has unsupported version " +
            std::to_string(version) + " (this build reads version " +
            std::to_string(tracePackVersion) + ")");
    const std::uint32_t headerBytes = loadU32(at(12));
    if (headerBytes != packHeaderBytes)
        throw TraceError("trace pack '" + filePath +
                         "': unexpected header size " +
                         std::to_string(headerBytes));
    const std::uint32_t streamCount = loadU32(at(16));
    if (streamCount == 0)
        throw TraceError("trace pack '" + filePath +
                         "' declares zero streams");
    const std::uint32_t recordBytes = loadU32(at(20));
    if (recordBytes != packRecordBytes)
        throw TraceError("trace pack '" + filePath +
                         "': unexpected record size " +
                         std::to_string(recordBytes));
    chunkCapacity = loadU64(at(24));
    if (chunkCapacity == 0)
        throw TraceError("trace pack '" + filePath +
                         "' declares zero-record chunks");

    streams.resize(streamCount);
    streamChunks.resize(streamCount);
    parseDirectory();

    const std::uint64_t indexOffset = loadU64(at(40));
    if (indexOffset == 0)
        throw TraceError("trace pack '" + filePath +
                         "' is unclosed (index_offset 0): its "
                         "writer never finished");
    parseIndexed(indexOffset,
                 std::string(reinterpret_cast<const char *>(at(48)),
                             digestChars));
}

void
TracePackReader::Unmap::operator()(const unsigned char *p) const
{
    ::munmap(const_cast<unsigned char *>(p), bytes);
}

void
TracePackReader::openMapping()
{
    const int fd = ::open(filePath.c_str(), O_RDONLY);
    if (fd < 0)
        throw TraceError("cannot open trace pack '" + filePath +
                         "': " + std::strerror(errno));
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        const int err = errno;
        ::close(fd);
        throw TraceError("cannot stat trace pack '" + filePath +
                         "': " + std::strerror(err));
    }
    mapSize = static_cast<std::uint64_t>(st.st_size);
    if (mapSize == 0) {
        ::close(fd);
        throw TraceError("trace pack '" + filePath +
                         "' is empty (0 bytes)");
    }
    void *mapped = ::mmap(nullptr, mapSize, PROT_READ, MAP_PRIVATE,
                          fd, 0);
    const int err = errno;
    ::close(fd);
    if (mapped == MAP_FAILED)
        throw TraceError("cannot map trace pack '" + filePath +
                         "': " + std::strerror(err));
    mapping = {static_cast<const unsigned char *>(mapped),
               Unmap{mapSize}};
}

void
TracePackReader::parseDirectory()
{
    const std::uint64_t start = packHeaderBytes;
    if (start + 12 > mapSize)
        throw TraceError(
            "trace pack '" + filePath + "' is too short for its "
            "stream directory: " + std::to_string(mapSize) +
            " bytes");
    if (std::memcmp(at(start), dirMagic, sizeof(dirMagic)) != 0)
        throw TraceError("trace pack '" + filePath +
                         "': stream directory magic missing");
    const std::uint64_t dirBytes = loadU32(at(start + 4));
    if (dirBytes < 12 + digestChars || dirBytes % packAlignment != 0
        || start + dirBytes > mapSize)
        throw TraceError("trace pack '" + filePath +
                         "': stream directory size " +
                         std::to_string(dirBytes) +
                         " is inconsistent with the file's " +
                         std::to_string(mapSize) + " bytes");
    const std::uint32_t dirStreams = loadU32(at(start + 8));
    if (dirStreams != streams.size())
        throw TraceError(
            "trace pack '" + filePath + "': directory declares " +
            std::to_string(dirStreams) + " streams but the header "
            "declares " + std::to_string(streams.size()));

    std::uint64_t cursor = start + 12;
    const std::uint64_t limit = start + dirBytes - digestChars;
    for (auto &stream : streams) {
        if (cursor + 4 > limit)
            throw TraceError("trace pack '" + filePath +
                             "': truncated stream directory");
        const std::uint32_t nameLen = loadU32(at(cursor));
        cursor += 4;
        if (cursor + nameLen > limit)
            throw TraceError("trace pack '" + filePath +
                             "': stream name overruns the "
                             "directory");
        stream.name.assign(
            reinterpret_cast<const char *>(at(cursor)), nameLen);
        cursor += nameLen;
    }

    const std::string expected = ContentHash()
        .update(at(start), cursor - start)
        .hexDigest();
    const std::string stored(
        reinterpret_cast<const char *>(at(limit)), digestChars);
    if (expected != stored)
        throw TraceError("trace pack '" + filePath +
                         "': stream directory checksum mismatch");
}

void
TracePackReader::parseIndexed(std::uint64_t indexOffset,
                              const std::string &headerHash)
{
    // Offsets and counts come from the file: compare them by
    // subtraction, so a damaged value cannot wrap past a bound.
    if (indexOffset > mapSize ||
        mapSize - indexOffset < sizeof(indexMagic) + 8)
        throw TraceError("trace pack '" + filePath +
                         "': index offset " +
                         std::to_string(indexOffset) +
                         " is beyond the file's " +
                         std::to_string(mapSize) + " bytes");
    if (std::memcmp(at(indexOffset), indexMagic,
                    sizeof(indexMagic)) != 0)
        throw TraceError("trace pack '" + filePath +
                         "': index magic missing");
    if (loadU32(at(indexOffset + 8)) != streams.size())
        throw TraceError("trace pack '" + filePath +
                         "': index stream count mismatch");

    std::uint64_t cursor = indexOffset + 16;
    std::uint64_t total = 0;
    for (std::uint32_t s = 0; s < streams.size(); ++s) {
        if (mapSize - cursor < 16)
            throw TraceError("trace pack '" + filePath +
                             "': truncated index");
        const std::uint64_t chunkCount = loadU64(at(cursor));
        const std::uint64_t records = loadU64(at(cursor + 8));
        cursor += 16;
        if (chunkCount > (mapSize - cursor) / 8)
            throw TraceError("trace pack '" + filePath +
                             "': truncated index");
        streams[s].records = records;
        streams[s].chunks = chunkCount;
        total += records;
        totalChunks += chunkCount;
        std::uint64_t seen = 0;
        for (std::uint64_t c = 0; c < chunkCount; ++c) {
            const std::uint64_t offset = loadU64(at(cursor));
            cursor += 8;
            if (offset > indexOffset ||
                indexOffset - offset < chunkHeaderBytes)
                throw TraceError(
                    "trace pack '" + filePath + "': chunk offset " +
                    std::to_string(offset) + " overlaps the index");
            const unsigned char *header = at(offset);
            if (std::memcmp(header, chunkMagic,
                            sizeof(chunkMagic)) != 0)
                throw TraceError("trace pack '" + filePath +
                                 "': chunk magic missing at offset " +
                                 std::to_string(offset));
            if (loadU32(header + 4) != s)
                throw TraceError("trace pack '" + filePath +
                                 "': chunk at offset " +
                                 std::to_string(offset) +
                                 " belongs to another stream");
            if (loadU64(header + 8) != seen)
                throw TraceError("trace pack '" + filePath +
                                 "': chunk sequence broken at "
                                 "offset " + std::to_string(offset));
            const std::uint32_t count = loadU32(header + 16);
            const std::uint32_t payloadBytes = loadU32(header + 20);
            const bool last = (c + 1 == chunkCount);
            if (count == 0 || count > chunkCapacity ||
                (!last && count != chunkCapacity))
                throw TraceError(
                    "trace pack '" + filePath + "': chunk at "
                    "offset " + std::to_string(offset) +
                    " has inconsistent record count " +
                    std::to_string(count));
            if (payloadBytes !=
                    count * std::uint64_t{packRecordBytes} ||
                offset + chunkHeaderBytes + payloadBytes >
                    indexOffset)
                throw TraceError("trace pack '" + filePath +
                                 "': chunk payload overruns at "
                                 "offset " + std::to_string(offset));
            seen += count;
            ChunkRef ref;
            ref.payloadOffset = offset + chunkHeaderBytes;
            ref.records = count;
            streamChunks[s].push_back(ref);
        }
        if (seen != records)
            throw TraceError(
                "trace pack '" + filePath + "': stream '" +
                streams[s].name + "' indexes " +
                std::to_string(seen) + " records but declares " +
                std::to_string(records));
    }

    const std::uint64_t digestAt = cursor;
    if (digestAt + digestChars > mapSize)
        throw TraceError("trace pack '" + filePath +
                         "': truncated index digest");
    const std::string expected =
        ContentHash()
            .update(at(indexOffset), digestAt - indexOffset)
            .hexDigest();
    const std::string stored(
        reinterpret_cast<const char *>(at(digestAt)), digestChars);
    if (expected != stored)
        throw TraceError("trace pack '" + filePath +
                         "': index checksum mismatch");
    if (total != loadU64(at(32)))
        throw TraceError("trace pack '" + filePath +
                         "': header record count disagrees with "
                         "the index");
    for (char c : headerHash)
        if (!std::isxdigit(static_cast<unsigned char>(c)))
            throw TraceError("trace pack '" + filePath +
                             "': malformed content hash in header");

    totalRecords = total;
    packHash = headerHash;
}

const TracePackStreamInfo &
TracePackReader::stream(std::size_t index) const
{
    if (index >= streams.size())
        throw TraceError("trace pack '" + filePath + "': stream " +
                         std::to_string(index) + " out of range (" +
                         std::to_string(streams.size()) +
                         " streams)");
    return streams[index];
}

std::string
TracePackReader::contentHash() const
{
    if (!checkedHash.empty())
        return checkedHash;
    // Chain every chunk the way the writer did: in file order, each
    // chunk's stream id and then its unpadded payload.
    struct Placed
    {
        std::uint64_t payloadOffset;
        std::uint32_t stream;
        std::uint32_t records;
    };
    std::vector<Placed> chunks;
    chunks.reserve(totalChunks);
    for (std::uint32_t s = 0; s < streamChunks.size(); ++s)
        for (const ChunkRef &ref : streamChunks[s])
            chunks.push_back({ref.payloadOffset, s, ref.records});
    std::sort(chunks.begin(), chunks.end(),
              [](const Placed &a, const Placed &b) {
                  return a.payloadOffset < b.payloadOffset;
              });
    ContentHash hasher;
    for (const Placed &chunk : chunks)
        absorbChunk(hasher, chunk.stream, at(chunk.payloadOffset),
                    chunk.records * std::size_t{packRecordBytes});
    const std::string actual = hasher.hexDigest();
    if (actual != packHash)
        throw TraceError("trace pack '" + filePath +
                         "': content hash mismatch: the header says " +
                         packHash + ", the records hash to " + actual);
    checkedHash = actual;
    return actual;
}

int
TracePackReader::streamIndex(const std::string &name) const
{
    for (std::size_t i = 0; i < streams.size(); ++i)
        if (streams[i].name == name)
            return static_cast<int>(i);
    return -1;
}

void
TracePackReader::verifyChunk(std::size_t stream,
                             std::size_t chunk) const
{
    const ChunkRef &ref = streamChunks[stream][chunk];
    if (ref.verified)
        return;
    const unsigned char *header =
        at(ref.payloadOffset - chunkHeaderBytes);
    const std::string stored(
        reinterpret_cast<const char *>(header + 24), digestChars);
    if (chunkDigest(static_cast<std::uint32_t>(stream),
                    at(ref.payloadOffset),
                    ref.records * packRecordBytes) != stored)
        throw TraceError(
            "trace pack '" + filePath + "': corrupt chunk " +
            std::to_string(chunk) + " of stream '" +
            streams[stream].name + "' (checksum mismatch)");
    ref.verified = true;
}

std::size_t
TracePackReader::read(std::size_t stream, std::uint64_t pos,
                      TraceRecord *out, std::size_t n) const
{
    if (stream >= streams.size())
        throw TraceError("trace pack '" + filePath + "': stream " +
                         std::to_string(stream) +
                         " out of range (" +
                         std::to_string(streams.size()) +
                         " streams)");
    const std::uint64_t records = streams[stream].records;
    std::size_t produced = 0;
    while (produced < n && pos < records) {
        const std::size_t chunk =
            static_cast<std::size_t>(pos / chunkCapacity);
        const std::uint64_t within = pos % chunkCapacity;
        verifyChunk(stream, chunk);
        const ChunkRef &ref = streamChunks[stream][chunk];
        const std::uint64_t avail = ref.records - within;
        const std::uint64_t want = std::min<std::uint64_t>(
            avail, n - produced);
        const unsigned char *p =
            at(ref.payloadOffset + within * packRecordBytes);
        for (std::uint64_t i = 0; i < want; ++i) {
            out[produced++] = unpackRecord(p);
            p += packRecordBytes;
        }
        pos += want;
    }
    return produced;
}

// ---------------------------------------------------------------
// PackStreamSource
// ---------------------------------------------------------------

PackStreamSource::PackStreamSource(
    std::shared_ptr<TracePackReader> pack, std::size_t stream)
    : reader(std::move(pack)), streamId(stream)
{
    // Resolve bad stream indices at construction, not first fill().
    reader->stream(streamId);
}

std::size_t
PackStreamSource::fill(TraceRecord *out, std::size_t n)
{
    const std::uint64_t records = reader->stream(streamId).records;
    if (records == 0)
        return 0; // empty stream: never spin
    std::size_t produced = 0;
    while (produced < n) {
        if (position >= records)
            position = 0;
        const std::size_t got = reader->read(
            streamId, position, out + produced, n - produced);
        produced += got;
        position += got;
    }
    return produced;
}

std::string
PackStreamSource::describe() const
{
    return "pack:" + reader->path() + "/" +
           reader->stream(streamId).name;
}

std::string
PackStreamSource::identity() const
{
    return "pack " + reader->contentHash() + " stream " +
           std::to_string(streamId);
}

std::uint64_t
PackStreamSource::recordCount() const
{
    return reader->stream(streamId).records;
}

// ---------------------------------------------------------------
// Converters and helpers
// ---------------------------------------------------------------

namespace
{

std::string
trimmed(const std::string &line)
{
    std::size_t first = 0;
    std::size_t last = line.size();
    while (first < last &&
           std::isspace(static_cast<unsigned char>(line[first])))
        ++first;
    while (last > first &&
           std::isspace(static_cast<unsigned char>(line[last - 1])))
        --last;
    return line.substr(first, last - first);
}

[[noreturn]] void
textError(const std::string &path, std::uint64_t lineNo,
          const std::string &message)
{
    throw TraceError("trace text '" + path + "' line " +
                     std::to_string(lineNo) + ": " + message);
}

} // namespace

std::uint64_t
scanTextTrace(const std::string &path,
              const std::function<void(const TraceRecord *,
                                       std::size_t)> &sink)
{
    std::ifstream in(path);
    if (!in)
        throw TraceError("cannot open trace text '" + path + "'");

    constexpr std::size_t blockRecords = 1024;
    std::vector<TraceRecord> block;
    block.reserve(blockRecords);
    std::uint64_t total = 0;
    std::uint64_t lineNo = 0;
    std::string line;
    while (std::getline(in, line)) {
        ++lineNo;
        const std::string text = trimmed(line);
        if (text.empty() || text[0] == '#')
            continue;

        std::string fields[4];
        std::size_t field = 0;
        for (char c : text) {
            if (c == ',') {
                if (++field >= 4)
                    textError(path, lineNo,
                              "expected 4 comma-separated fields");
            } else {
                fields[field].push_back(c);
            }
        }
        if (field != 3)
            textError(path, lineNo,
                      "expected 4 comma-separated fields "
                      "(vaddr,inst_gap,rw,page), got " +
                          std::to_string(field + 1));
        for (auto &f : fields)
            f = trimmed(f);

        TraceRecord record;
        char *end = nullptr;
        errno = 0;
        record.vaddr = std::strtoull(fields[0].c_str(), &end, 0);
        if (fields[0].empty() || *end != '\0' || errno == ERANGE)
            textError(path, lineNo,
                      "bad vaddr '" + fields[0] + "'");
        errno = 0;
        const unsigned long long gap =
            std::strtoull(fields[1].c_str(), &end, 10);
        if (fields[1].empty() || *end != '\0' || errno == ERANGE ||
            gap > 0xffffffffull)
            textError(path, lineNo,
                      "bad inst_gap '" + fields[1] + "'");
        record.instGap = static_cast<std::uint32_t>(gap);
        if (fields[2] == "R" || fields[2] == "r")
            record.type = AccessType::Read;
        else if (fields[2] == "W" || fields[2] == "w")
            record.type = AccessType::Write;
        else
            textError(path, lineNo,
                      "bad rw flag '" + fields[2] +
                          "' (expected R or W)");
        if (fields[3] == "4K" || fields[3] == "4k")
            record.pageSize = PageSize::Small4K;
        else if (fields[3] == "2M" || fields[3] == "2m")
            record.pageSize = PageSize::Large2M;
        else
            textError(path, lineNo,
                      "bad page size '" + fields[3] +
                          "' (expected 4K or 2M)");

        block.push_back(record);
        ++total;
        if (block.size() >= blockRecords) {
            sink(block.data(), block.size());
            block.clear();
        }
    }
    if (!block.empty())
        sink(block.data(), block.size());
    return total;
}

std::string
formatTextRecord(const TraceRecord &record)
{
    std::ostringstream out;
    out << "0x" << std::hex << record.vaddr << std::dec << ","
        << record.instGap << ","
        << (record.type == AccessType::Write ? 'W' : 'R') << ","
        << (record.pageSize == PageSize::Large2M ? "2M" : "4K");
    return out.str();
}

JsonValue
tracePackInfoJson(const std::string &path)
{
    TracePackReader reader(path);
    JsonValue doc = JsonValue::object();
    doc.set("schema", tracePackSchema());
    doc.set("path", reader.path());
    doc.set("file_bytes", reader.fileBytes());
    doc.set("header_bytes", std::uint64_t{128});
    doc.set("record_bytes", std::uint64_t{16});
    doc.set("chunk_records", reader.chunkRecords());
    doc.set("records", reader.recordCount());
    doc.set("chunks", reader.chunkCount());
    doc.set("content_hash", reader.contentHash());
    JsonValue streams = JsonValue::array();
    for (std::size_t i = 0; i < reader.streamCount(); ++i) {
        const TracePackStreamInfo &info = reader.stream(i);
        JsonValue stream = JsonValue::object();
        stream.set("name", info.name);
        stream.set("records", info.records);
        stream.set("chunks", info.chunks);
        streams.push(std::move(stream));
    }
    doc.set("streams", std::move(streams));
    return doc;
}

std::string
tracePackContentHash(const std::string &path)
{
    return TracePackReader(path).contentHash();
}

} // namespace pomtlb
