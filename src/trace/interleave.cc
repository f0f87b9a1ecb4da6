#include "trace/interleave.hh"

#include <algorithm>

#include "common/bitutil.hh"
#include "common/content_hash.hh"
#include "common/hash_set.hh"
#include "common/log.hh"

namespace pomtlb
{

std::size_t
TenantStreamSet::add(TenantStream stream)
{
    streams.push_back(std::move(stream));
    return streams.size() - 1;
}

bool
TenantStreamSet::captureEligible() const
{
    for (const TenantStream &stream : streams) {
        if (stream.totalRefs > replayCapRecords)
            return false;
    }
    return true;
}

std::shared_ptr<StreamEnumeration>
TenantStreamSet::enumerate(std::string key)
{
    auto enumeration = std::make_shared<StreamEnumeration>();
    enumeration->key = std::move(key);
    // Capture the streams while enumerating them so the timed run
    // can replay the records instead of re-generating them.
    const bool capture = captureEligible();
    enumeration->records.resize(capture ? streams.size() : 0);
    enumeration->firstTouches.resize(streams.size());
    U64Set seen(std::size_t{1} << 16);
    std::vector<TraceRecord> chunk;
    if (!capture)
        chunk.resize(static_cast<std::size_t>(streamBlockRecords));

    for (std::size_t s = 0; s < streams.size(); ++s) {
        TenantStream &stream = streams[s];
        const std::uint64_t total = stream.totalRefs;
        // Enumerate exactly the records the timed run will issue.
        TraceSource &dry = *stream.source;
        dry.rewind();
        // Dedup key covers (page, pid, vm): the same page may need
        // separate entries per process and per VM.
        const std::uint64_t space_key = mix64(
            (static_cast<std::uint64_t>(stream.pid) << 16) | stream.vm);
        std::vector<FirstTouch> &touches = enumeration->firstTouches[s];
        if (capture)
            enumeration->records[s].resize(total);

        std::uint64_t done = 0;
        std::uint64_t last_key = ~std::uint64_t{0};
        while (done < total) {
            TraceRecord *block;
            std::size_t want;
            if (capture) {
                block = enumeration->records[s].data() + done;
                want = static_cast<std::size_t>(total - done);
            } else {
                block = chunk.data();
                want = static_cast<std::size_t>(
                    std::min<std::uint64_t>(chunk.size(),
                                            total - done));
            }
            const std::size_t got = dry.fill(block, want);
            simAssert(got == want, "trace source exhausted during "
                                   "steady-state pre-population");
            for (std::size_t i = 0; i < got; ++i) {
                const TraceRecord &record = block[i];
                const std::uint64_t key =
                    mix64(pageBase(record.vaddr, record.pageSize)) ^
                    space_key;
                // Page-local runs dominate the streams: skip the set
                // probe when the key repeats back-to-back.
                if (key == last_key)
                    continue;
                last_key = key;
                if (seen.insert(key))
                    touches.push_back({record.vaddr, record.pageSize});
            }
            done += got;
        }
        // Leave the source rewound whether or not the timed run will
        // replay the capture instead of re-reading it.
        dry.rewind();
    }
    return enumeration;
}

std::string
TenantStreamSet::enumerationKey() const
{
    ContentHash hash;
    for (const TenantStream &stream : streams) {
        hash.update(stream.source->identity());
        hash.update(" vm " + std::to_string(stream.vm) + " pid " +
                    std::to_string(stream.pid) + " core " +
                    std::to_string(stream.homeCore) + " refs " +
                    std::to_string(stream.totalRefs) + "\n");
    }
    return hash.hexDigest();
}

void
TenantStreamSet::beginRun(
    std::shared_ptr<const StreamEnumeration> enumeration)
{
    replaySource = enumeration && !enumeration->records.empty()
                       ? std::move(enumeration)
                       : nullptr;
    for (std::size_t s = 0; s < streams.size(); ++s) {
        TenantStream &stream = streams[s];
        stream.block = nullptr;
        stream.blockPos = 0;
        stream.blockLen = 0;
        stream.consumed = 0;
        if (replaySource) {
            stream.replay = replaySource->records[s];
        } else {
            stream.replay = {};
            stream.scratch.resize(
                static_cast<std::size_t>(streamBlockRecords));
        }
    }
}

void
TenantStreamSet::refill(TenantStream &stream)
{
    if (replaySource) {
        // Replay mode: the block is a zero-copy slice of the
        // captured stream, extended to everything not yet consumed —
        // a stream refills at most once per run.
        const std::span<const TraceRecord> records = stream.replay;
        simAssert(stream.consumed < records.size(),
                  "captured trace stream exhausted");
        stream.block = records.data() + stream.consumed;
        stream.blockPos = 0;
        stream.blockLen = records.size() - stream.consumed;
        return;
    }
    const std::size_t got = stream.source->fill(
        stream.scratch.data(), stream.scratch.size());
    simAssert(got > 0, "trace source exhausted");
    stream.block = stream.scratch.data();
    stream.blockPos = 0;
    stream.blockLen = got;
}

void
TenantStreamSet::releaseCaptures()
{
    for (TenantStream &stream : streams) {
        stream.replay = {};
        stream.block = nullptr;
        stream.blockPos = 0;
        stream.blockLen = 0;
    }
    replaySource.reset();
}

std::shared_ptr<const StreamEnumeration>
EnumerationShare::obtain(const std::string &key, const Build &build)
{
    {
        const std::lock_guard<std::mutex> guard(lock);
        if (!enumeration) {
            // The group's first job builds under the lock, so the
            // others wait for it instead of enumerating too.
            enumeration = build(key);
            ++built;
            return enumeration;
        }
        if (enumeration->key == key) {
            ++reused;
            return enumeration;
        }
        ++built;
    }
    return build(key);
}

void
EnumerationShare::release()
{
    const std::lock_guard<std::mutex> guard(lock);
    enumeration.reset();
}

std::shared_ptr<const StreamEnumeration>
EnumerationShare::published() const
{
    const std::lock_guard<std::mutex> guard(lock);
    return enumeration;
}

std::size_t
EnumerationShare::builds() const
{
    const std::lock_guard<std::mutex> guard(lock);
    return built;
}

std::size_t
EnumerationShare::reuses() const
{
    const std::lock_guard<std::mutex> guard(lock);
    return reused;
}

} // namespace pomtlb
