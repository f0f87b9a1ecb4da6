#include "common/zeroed_array.hh"

#include <new>

#include <sys/mman.h>

namespace pomtlb
{

void *
mapZeroedBytes(std::size_t bytes)
{
    if (bytes == 0)
        return nullptr;
    void *base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED)
        throw std::bad_alloc();
    return base;
}

void
unmapZeroedBytes(void *base, std::size_t bytes)
{
    if (base != nullptr)
        ::munmap(base, bytes);
}

} // namespace pomtlb
