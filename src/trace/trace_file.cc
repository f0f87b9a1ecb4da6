#include "trace/trace_file.hh"

#include "common/log.hh"

namespace pomtlb
{

namespace
{

constexpr char traceMagic[4] = {'P', 'O', 'M', 'T'};
constexpr std::uint32_t traceVersion = 1;

constexpr std::uint8_t flagWrite = 1u << 0;
constexpr std::uint8_t flagLargePage = 1u << 1;

void
putU32(std::ofstream &out, std::uint32_t value)
{
    char bytes[4];
    for (int i = 0; i < 4; ++i)
        bytes[i] = static_cast<char>((value >> (8 * i)) & 0xff);
    out.write(bytes, 4);
}

void
putU64(std::ofstream &out, std::uint64_t value)
{
    char bytes[8];
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<char>((value >> (8 * i)) & 0xff);
    out.write(bytes, 8);
}

} // namespace

TraceFileWriter::TraceFileWriter(const std::string &path)
    : out(path, std::ios::binary | std::ios::trunc), filePath(path)
{
    if (!out)
        fatal("cannot open trace file '", path, "' for writing");
    writeHeader();
}

TraceFileWriter::~TraceFileWriter()
{
    // A destructor must not throw. fatal() has already reported a
    // failed final write on stderr; a caller that must act on it
    // calls close() itself.
    if (!closed) {
        try {
            close();
        } catch (const FatalError &) {
        }
    }
}

void
TraceFileWriter::writeHeader()
{
    out.seekp(0);
    out.write(traceMagic, 4);
    putU32(out, traceVersion);
    putU64(out, count);
}

void
TraceFileWriter::append(const TraceRecord &record)
{
    simAssert(!closed, "append to a closed trace file");
    putU64(out, record.vaddr);
    putU32(out, record.instGap);
    std::uint8_t flags = 0;
    if (record.type == AccessType::Write)
        flags |= flagWrite;
    if (record.pageSize == PageSize::Large2M)
        flags |= flagLargePage;
    out.write(reinterpret_cast<const char *>(&flags), 1);
    ++count;
}

void
TraceFileWriter::close()
{
    if (closed)
        return;
    writeHeader(); // rewrite with the final record count
    out.flush();
    if (!out)
        fatal("error writing trace file '", filePath, "'");
    out.close();
    closed = true;
}

} // namespace pomtlb
