#include "trace/interleave.hh"

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

void
TenantStreamSet::beginRun(bool captured)
{
    replayMode = captured;
    for (TenantStream &stream : streams) {
        stream.block = nullptr;
        stream.blockPos = 0;
        stream.blockLen = 0;
        stream.consumed = 0;
        if (!captured) {
            stream.scratch.resize(
                static_cast<std::size_t>(streamBlockRecords));
        }
    }
}

void
TenantStreamSet::refill(TenantStream &stream)
{
    if (replayMode) {
        // Replay mode: the block is a zero-copy slice of the
        // captured stream, extended to everything not yet consumed —
        // a stream refills at most once per run.
        const std::vector<TraceRecord> &records = stream.replay;
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
        stream.replay.clear();
        stream.replay.shrink_to_fit();
        stream.block = nullptr;
        stream.blockPos = 0;
        stream.blockLen = 0;
    }
}

} // namespace pomtlb
