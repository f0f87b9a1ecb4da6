/**
 * @file
 * The legacy POMT trace format's reference encoder.
 *
 * POMT is a fixed little-endian layout holding one unnamed stream:
 *
 *   header:  magic "POMT" | u32 version | u64 record count
 *   record:  u64 vaddr | u32 instGap | u8 flags
 *            flags bit 0: write, bit 1: 2 MB page
 *
 * The simulator does not replay POMT files: `pomtlb trace pack --in`
 * converts them (scanLegacyTrace() in trace/tracepack.hh, the one
 * POMT decoder) into a pomtlb-tracepack-v1 pack, the one replay
 * format. TraceFileWriter produces POMT files, for that converter's
 * tests and for tools that archive traces in the legacy layout.
 */

#ifndef POMTLB_TRACE_TRACE_FILE_HH
#define POMTLB_TRACE_TRACE_FILE_HH

#include <cstdint>
#include <fstream>
#include <string>

#include "trace/record.hh"

namespace pomtlb
{

/** Writes trace records to a binary file. */
class TraceFileWriter
{
  public:
    /** Open @p path for writing (fatal on failure). */
    explicit TraceFileWriter(const std::string &path);
    ~TraceFileWriter();

    TraceFileWriter(const TraceFileWriter &) = delete;
    TraceFileWriter &operator=(const TraceFileWriter &) = delete;

    /** Append one record. */
    void append(const TraceRecord &record);

    /** Flush and finalise the header (also done by the destructor). */
    void close();

    std::uint64_t recordCount() const { return count; }

  private:
    void writeHeader();

    std::ofstream out;
    std::string filePath;
    std::uint64_t count = 0;
    bool closed = false;
};

} // namespace pomtlb

#endif // POMTLB_TRACE_TRACE_FILE_HH
