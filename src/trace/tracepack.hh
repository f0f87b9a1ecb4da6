/**
 * @file
 * The pomtlb-tracepack-v1 container: mmap-able, chunked, multi-stream
 * trace storage.
 *
 * The one binary trace format of the simulator. A trace pack holds
 * one or more *named* streams (one per core or per tenant vCPU) in
 * 64-byte-aligned chunks that a reader maps read-only and decodes
 * straight out of the mapping — no up-front copy, O(1) seek and
 * rewind, and per-chunk checksums so corruption is detected instead
 * of silently simulated. Foreign traces enter as
 * pomtlb-tracetext-v1 text through `pomtlb trace pack --in`
 * (scanTextTrace()).
 *
 * On-disk layout (all integers little-endian):
 *
 *   file header (128 bytes):
 *     magic "POMTPAK1" | u32 version=1 | u32 header_bytes=128
 *     | u32 stream_count | u32 record_bytes=16 | u64 chunk_records
 *     | u64 total_records | u64 index_offset | char[32] content_hash
 *     | zero padding to 128
 *   stream directory (64-byte padded):
 *     magic "PKSD" | u32 dir_bytes | u32 stream_count
 *     | stream_count x (u32 name_len | name bytes)
 *     | char[32] directory digest | zero padding
 *   chunks, each 64-byte aligned:
 *     header (64 bytes): magic "PKCH" | u32 stream_id
 *       | u64 first_record | u32 record_count | u32 payload_bytes
 *       | char[32] chunk digest | zero padding
 *     payload: record_count x 16-byte records, zero-padded to a
 *       64-byte multiple
 *   index footer (at index_offset):
 *     magic "PKIXPKIX" | u32 stream_count | u32 zero
 *     | per stream: u64 chunk_count | u64 record_count
 *       | chunk_count x u64 chunk file offsets
 *     | char[32] index digest
 *
 *   record (16 bytes): u64 vaddr | u32 inst_gap | u8 flags | 3 zero
 *     flags bit 0: write, bit 1: 2 MB page
 *
 * Every digest is 32 lowercase hex characters. Directory and index
 * digests and the file content hash are the streaming 128-bit
 * FNV-1a of common/content_hash.hh; chunk digests are verified on
 * the replay critical path, so they use two 64-bit FNV-1a lanes
 * over 8-byte words instead (see chunkDigest in tracepack.cc). The
 * file content hash chains each chunk's 4 little-endian stream-id
 * bytes and unpadded payload in file order, so it identifies the
 * record content exactly — flipping one record bit changes it,
 * which is what lets sweep-cache job identity include it. Whatever
 * uses it as an identity recomputes it from the records first
 * (TracePackReader::contentHash()); replay never does.
 *
 * Every chunk except a stream's last holds exactly chunk_records
 * records, which is what makes seek O(1): record @c pos of a stream
 * lives in chunk pos / chunk_records at offset pos % chunk_records.
 *
 * Crash discipline mirrors SweepJournal: the writer emits chunks as
 * they fill and publishes the index footer and header *last* (close()
 * rewrites index_offset and content_hash), so a pack whose writer
 * never finished still has index_offset == 0. A reader has one open
 * path: an unclosed pack, a truncated or digest-failing index, or a
 * header or directory that fails its checks is rejected with a
 * path-named TraceError, never replayed as a prefix.
 */

#ifndef POMTLB_TRACE_TRACEPACK_HH
#define POMTLB_TRACE_TRACEPACK_HH

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/content_hash.hh"
#include "common/json.hh"
#include "trace/error.hh"
#include "trace/record.hh"
#include "trace/source.hh"

namespace pomtlb
{

/** Version tag of the on-disk layout this module reads and writes. */
constexpr std::uint32_t tracePackVersion = 1;

/**
 * Records per full chunk in every pack TracePackWriter writes. A
 * reader accepts whatever chunk_records a header declares.
 */
constexpr std::uint64_t tracePackChunkRecords = 4096;

/** Schema string emitted by `pomtlb trace info` and the docs. */
inline const char *
tracePackSchema()
{
    return "pomtlb-tracepack-v1";
}

/**
 * Streaming trace-pack writer.
 *
 * Streams are declared up front (the directory is written before any
 * chunk); records are appended per stream and buffered until a chunk
 * fills, so memory stays bounded at streams x tracePackChunkRecords
 * records no matter how long the trace is. close() flushes partial
 * tail chunks, writes the index footer, and publishes the header.
 * Only close() publishes: a writer destroyed without it (an
 * exception mid-conversion, say) leaves an unclosed pack, which every
 * reader rejects by name rather than replaying what was appended.
 */
class TracePackWriter
{
  public:
    /**
     * Create @p path (truncating) with one stream per entry of
     * @p streamNames. Throws TraceError if the file cannot be
     * created or the stream set is empty.
     */
    TracePackWriter(const std::string &path,
                    std::vector<std::string> streamNames);

    TracePackWriter(const TracePackWriter &) = delete;
    TracePackWriter &operator=(const TracePackWriter &) = delete;

    /** Append one record to stream @p stream. */
    void append(std::uint32_t stream, const TraceRecord &record);

    /** Append @p n records to stream @p stream. */
    void append(std::uint32_t stream, const TraceRecord *records,
                std::size_t n);

    /**
     * Flush tail chunks, write the index footer, publish the
     * header; idempotent. Throws TraceError if a write failed.
     */
    void close();

    /** Total records appended across all streams. */
    std::uint64_t recordCount() const { return totalRecords; }

    /** The pack content hash; complete only after close(). */
    std::string contentHash() const { return hasher.hexDigest(); }

  private:
    void flushChunk(std::uint32_t stream);
    void writeHeader(std::uint64_t indexOffset,
                     const std::string &hashHex);

    struct StreamState
    {
        std::string name;
        std::vector<TraceRecord> pending;
        std::uint64_t records = 0;
        std::vector<std::uint64_t> chunkOffsets;
    };

    std::ofstream out;
    std::string filePath;
    std::vector<StreamState> streams;
    std::uint64_t totalRecords = 0;
    std::uint64_t writeOffset = 0;
    ContentHash hasher;
    bool closed = false;
};

/** Per-stream shape reported by TracePackReader. */
struct TracePackStreamInfo
{
    std::string name;          //!< Directory name of the stream.
    std::uint64_t records = 0; //!< Records in the stream.
    std::uint64_t chunks = 0;  //!< Chunks holding those records.
};

/**
 * Zero-copy trace-pack reader.
 *
 * Maps the file read-only and decodes records straight out of the
 * mapping. Opening is O(index): the header, directory, index footer
 * and chunk headers are validated eagerly, payload checksums lazily,
 * on the first read touching each chunk. There is one open path: an
 * unclosed pack (index_offset 0), a truncated or digest-failing
 * index, a failed mmap, and a header or directory that fails its
 * checks each throw a TraceError naming the path (and, for a chunk,
 * the chunk).
 */
class TracePackReader
{
  public:
    /** Open and validate @p path; throws TraceError on bad input. */
    explicit TracePackReader(const std::string &path);

    TracePackReader(const TracePackReader &) = delete;
    TracePackReader &operator=(const TracePackReader &) = delete;

    std::size_t streamCount() const { return streams.size(); }

    /** Shape of stream @p index (bounds-checked, throws). */
    const TracePackStreamInfo &stream(std::size_t index) const;

    /** Index of the stream named @p name, or -1 when absent. */
    int streamIndex(const std::string &name) const;

    /** Total records across all streams. */
    std::uint64_t recordCount() const { return totalRecords; }

    /** Records per full chunk, as the header declares. */
    std::uint64_t chunkRecords() const { return chunkCapacity; }

    /** Total chunks across all streams. */
    std::uint64_t chunkCount() const { return totalChunks; }

    /**
     * Content hash over every chunk's stream id + payload, recomputed
     * from the records and checked against the header's: a mismatch
     * throws a TraceError naming the path. The first call reads
     * every record (later calls return the checked hash), so the
     * identities that name a pack call it, and opening for replay
     * does not.
     */
    std::string contentHash() const;

    /** Size of the mapped file in bytes. */
    std::uint64_t fileBytes() const { return mapSize; }

    const std::string &path() const { return filePath; }

    /**
     * Decode up to @p n records of stream @p stream starting at
     * record @p pos into @p out; returns the number decoded (short
     * when the stream ends). Verifies each chunk's checksum on first
     * touch; a mismatch throws a TraceError naming path and chunk.
     * That first touch writes a flag, so a reader must not be read
     * from two threads at once.
     */
    std::size_t read(std::size_t stream, std::uint64_t pos,
                     TraceRecord *out, std::size_t n) const;

  private:
    struct ChunkRef
    {
        std::uint64_t payloadOffset = 0; //!< File offset of records.
        std::uint32_t records = 0;
        mutable bool verified = false;   //!< Digest checked once.
    };

    /** munmap()s the mapping, also when the constructor throws. */
    struct Unmap
    {
        std::uint64_t bytes;
        void operator()(const unsigned char *p) const;
    };

    const unsigned char *at(std::uint64_t offset) const
    {
        return mapping.get() + offset;
    }
    void verifyChunk(std::size_t stream, std::size_t chunk) const;
    void openMapping();
    void parseIndexed(std::uint64_t indexOffset,
                      const std::string &headerHash);
    void parseDirectory();

    std::string filePath;
    std::unique_ptr<const unsigned char, Unmap> mapping;
    std::uint64_t mapSize = 0;

    std::vector<TracePackStreamInfo> streams;
    /** streamChunks[stream][i]: the i-th chunk of that stream. */
    std::vector<std::vector<ChunkRef>> streamChunks;

    std::uint64_t chunkCapacity = 0;
    std::uint64_t totalRecords = 0;
    std::uint64_t totalChunks = 0;
    /** The content hash the header declares. */
    std::string packHash;
    /** contentHash() once it has checked the records ("" before). */
    mutable std::string checkedHash;
};

/**
 * TraceSource view of one stream of a shared TracePackReader.
 *
 * fill() decodes records directly from the pack mapping into the
 * caller's block. The stream restarts after its last record, so a
 * short trace can drive an arbitrarily long simulation; an *empty*
 * stream returns 0, so it never spins (the scenario engine rejects
 * such streams up front with a named TraceError).
 */
class PackStreamSource : public TraceSource
{
  public:
    PackStreamSource(std::shared_ptr<TracePackReader> pack,
                     std::size_t stream);

    std::size_t fill(TraceRecord *out, std::size_t n) override;
    void rewind() override { position = 0; }
    std::string describe() const override;
    /** The pack's checked content hash and the stream index. */
    std::string identity() const override;

    /** Records in the underlying stream (before wrapping). */
    std::uint64_t recordCount() const;

  private:
    std::shared_ptr<TracePackReader> reader;
    std::size_t streamId;
    std::uint64_t position = 0;
};

/**
 * Stream the records of a pomtlb-tracetext-v1 text/CSV trace through
 * @p sink. The format is one record per line —
 * `vaddr,inst_gap,rw,page` e.g. `0x1a000,3,R,4K` — with blank lines
 * and `#` comments ignored. Returns the record count. Parse errors
 * throw a TraceError naming the path and line number.
 */
std::uint64_t
scanTextTrace(const std::string &path,
              const std::function<void(const TraceRecord *,
                                       std::size_t)> &sink);

/** Render @p record as one pomtlb-tracetext-v1 line (no newline). */
std::string formatTextRecord(const TraceRecord &record);

/**
 * Open @p path and summarise it as the `pomtlb trace info --json`
 * document (schema pomtlb-tracepack-v1; see docs/trace-format.md).
 * Throws TraceError on unreadable or malformed packs, and on a
 * header content hash the records do not match.
 */
JsonValue tracePackInfoJson(const std::string &path);

/**
 * Content hash of the pack at @p path, checked against its records
 * (TracePackReader::contentHash()), so corrupt packs throw. Used to
 * fold trace identity into sweep-cache job and scenario hashes.
 */
std::string tracePackContentHash(const std::string &path);

} // namespace pomtlb

#endif // POMTLB_TRACE_TRACEPACK_HH
