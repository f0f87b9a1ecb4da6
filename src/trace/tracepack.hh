/**
 * @file
 * The pomtlb-tracepack-v1 container: mmap-able, chunked, multi-stream
 * trace storage.
 *
 * The legacy POMT format (trace/trace_file.hh) stores one unnamed
 * stream of 13-byte packed records and is replayed by slurping the
 * whole file into a std::vector. A trace pack instead holds one or
 * more *named* streams (one per core or per tenant vCPU) in
 * 64-byte-aligned chunks that a reader maps read-only and decodes
 * straight out of the mapping — no up-front copy, O(1) seek and
 * rewind, and per-chunk checksums so corruption is detected instead
 * of silently simulated.
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
 * which is what lets sweep-cache job identity include it.
 *
 * Every chunk except a stream's last holds exactly chunk_records
 * records, which is what makes seek O(1): record @c pos of a stream
 * lives in chunk pos / chunk_records at offset pos % chunk_records.
 *
 * Crash discipline mirrors SweepJournal: the writer emits chunks as
 * they fill and finalises the index footer and header *last* (close()
 * rewrites index_offset and content_hash), so a torn file still has
 * index_offset == 0 and the reader falls back to scanning chunks from
 * the data start, keeping every digest-valid prefix chunk and
 * dropping the torn tail. Corruption inside the header or directory
 * is not recoverable and is rejected with a path-named TraceError.
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
 * fills, so memory stays bounded at streams x chunk_records records
 * no matter how long the trace is. close() flushes partial tail
 * chunks, writes the index footer, and finalises the header — a
 * writer that dies before close() leaves a recoverable torn file.
 */
class TracePackWriter
{
  public:
    /**
     * Create @p path (truncating) with one stream per entry of
     * @p streamNames. Throws TraceError if the file cannot be
     * created or the stream set is empty.
     *
     * @param chunkRecords Records per full chunk; tune down for
     *        fine-grained recovery, up for fewer chunk headers.
     */
    TracePackWriter(const std::string &path,
                    std::vector<std::string> streamNames,
                    std::uint64_t chunkRecords = 4096);
    ~TracePackWriter();

    TracePackWriter(const TracePackWriter &) = delete;
    TracePackWriter &operator=(const TracePackWriter &) = delete;

    /** Append one record to stream @p stream. */
    void append(std::uint32_t stream, const TraceRecord &record);

    /** Append @p n records to stream @p stream. */
    void append(std::uint32_t stream, const TraceRecord *records,
                std::size_t n);

    /**
     * Flush tail chunks, write the index footer, finalise the
     * header. Also run by the destructor; idempotent.
     */
    void close();

    /** Total records appended across all streams. */
    std::uint64_t recordCount() const { return totalRecords; }

    /** The pack content hash; complete only after close(). */
    std::string contentHash() const { return hasher.hexDigest(); }

    const std::string &path() const { return filePath; }

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
    std::uint64_t chunkCapacity;
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
 * Maps the file read-only (falling back to one heap read if mmap is
 * unavailable) and decodes records straight out of the mapping.
 * Opening a finalised pack is O(index): chunk headers are validated
 * eagerly but payload checksums are verified lazily, on the first
 * read touching each chunk. A pack without a valid index footer — a
 * writer died before close() — is *recovered* by scanning chunks
 * from the data start, verifying every digest, and keeping the valid
 * prefix. Any inconsistency names the path (and chunk) in the
 * TraceError it throws.
 */
class TracePackReader
{
  public:
    /** Open and validate @p path; throws TraceError on bad input. */
    explicit TracePackReader(const std::string &path);
    ~TracePackReader();

    TracePackReader(const TracePackReader &) = delete;
    TracePackReader &operator=(const TracePackReader &) = delete;

    std::size_t streamCount() const { return streams.size(); }

    /** Shape of stream @p index (bounds-checked, throws). */
    const TracePackStreamInfo &stream(std::size_t index) const;

    /** Index of the stream named @p name, or -1 when absent. */
    int streamIndex(const std::string &name) const;

    /** Total records across all streams. */
    std::uint64_t recordCount() const { return totalRecords; }

    /** Records per full chunk. */
    std::uint64_t chunkRecords() const { return chunkCapacity; }

    /** Total chunks across all streams. */
    std::uint64_t chunkCount() const { return chunks.size(); }

    /**
     * Content hash over every retained chunk's stream id + payload.
     * For a finalised pack this equals the header's hash (verified at
     * open); for a recovered pack it is recomputed from the retained
     * prefix.
     */
    const std::string &contentHash() const { return packHash; }

    /** True when the pack had a valid index footer (clean close()). */
    bool finalized() const { return isFinalized; }

    /** True when the pack was rebuilt by the torn-tail chunk scan. */
    bool recovered() const { return !isFinalized; }

    /** Size of the mapped file in bytes. */
    std::uint64_t fileBytes() const { return mapSize; }

    const std::string &path() const { return filePath; }

    /**
     * Decode up to @p n records of stream @p stream starting at
     * record @p pos into @p out; returns the number decoded (short
     * when the stream ends). Verifies each chunk's checksum on first
     * touch; a mismatch throws a TraceError naming path and chunk.
     * That first touch writes a flag cache, so a reader must not be
     * read from two threads at once.
     */
    std::size_t read(std::size_t stream, std::uint64_t pos,
                     TraceRecord *out, std::size_t n) const;

  private:
    struct ChunkRef
    {
        std::uint64_t payloadOffset = 0; //!< File offset of records.
        std::uint32_t records = 0;
        std::uint32_t fileIndex = 0;     //!< Position in file order.
    };

    const unsigned char *at(std::uint64_t offset) const
    {
        return base + offset;
    }
    void verifyChunk(std::size_t stream, std::size_t chunk) const;
    void openMapping();
    void parseIndexed(std::uint64_t indexOffset,
                      const std::string &headerHash);
    void recoverByScan(std::uint64_t dataStart);
    std::uint64_t parseDirectory();

    std::string filePath;
    const unsigned char *base = nullptr;
    std::uint64_t mapSize = 0;
    bool usedMmap = false;
    std::vector<unsigned char> heapCopy; //!< mmap-fallback storage.

    std::vector<TracePackStreamInfo> streams;
    // chunks[stream][i] — i-th chunk of that stream, plus a flat
    // file-order view for hashing and lazy verification.
    std::vector<std::vector<ChunkRef>> streamChunks;
    std::vector<std::pair<std::uint32_t, ChunkRef>> chunks;
    mutable std::vector<std::uint8_t> chunkVerified;

    std::uint64_t chunkCapacity = 0;
    std::uint64_t totalRecords = 0;
    std::string packHash;
    bool isFinalized = false;
};

/**
 * TraceSource view of one stream of a shared TracePackReader.
 *
 * fill() decodes records directly from the pack mapping into the
 * caller's block. With wrap on (the default, matching FileSource)
 * the stream restarts after its last record so short traces can
 * drive arbitrarily long simulations; an *empty* stream returns 0
 * regardless, so a mis-wired scenario fails loudly instead of
 * spinning.
 */
class PackStreamSource : public TraceSource
{
  public:
    PackStreamSource(std::shared_ptr<TracePackReader> pack,
                     std::size_t stream, bool wrap = true);

    std::size_t fill(TraceRecord *out, std::size_t n) override;
    void rewind() override { position = 0; }
    std::string describe() const override;

    /** Records in the underlying stream (before wrapping). */
    std::uint64_t recordCount() const;

  private:
    std::shared_ptr<TracePackReader> reader;
    std::size_t streamId;
    std::uint64_t position = 0;
    bool wrapAround;
};

/**
 * Stream the records of a legacy POMT trace file through @p sink in
 * fixed-size blocks without buffering the whole file (unlike
 * TraceFileReader's in-memory replay vector — the converter reads
 * each record exactly once). Returns the record count. Throws a
 * path-named, size-reporting TraceError on malformed input.
 */
std::uint64_t
scanLegacyTrace(const std::string &path,
                const std::function<void(const TraceRecord *,
                                         std::size_t)> &sink);

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
 * Throws TraceError on unreadable or malformed packs.
 */
JsonValue tracePackInfoJson(const std::string &path);

/**
 * Content hash of the pack at @p path (opens it, so corrupt packs
 * throw). Used to fold trace identity into sweep-cache job hashes.
 */
std::string tracePackContentHash(const std::string &path);

} // namespace pomtlb

#endif // POMTLB_TRACE_TRACEPACK_HH
