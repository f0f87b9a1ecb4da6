#include "common/config.hh"

#include <algorithm>
#include <cmath>

#include "common/bitutil.hh"
#include "common/log.hh"

namespace pomtlb
{

void
CacheConfig::validate() const
{
    if (sizeBytes == 0 || associativity == 0 || lineBytes == 0)
        fatal("cache '", name, "': zero-sized parameter");
    if (!isPowerOfTwo(lineBytes))
        fatal("cache '", name, "': line size must be a power of two");
    if (sizeBytes % (static_cast<std::uint64_t>(associativity) * lineBytes))
        fatal("cache '", name, "': size not divisible by way size");
    if (!isPowerOfTwo(numSets()))
        fatal("cache '", name, "': set count must be a power of two");
    if (associativity > maxSetWays)
        fatal("cache '", name, "': more than ", maxSetWays, " ways");
    if (accessLatency == 0)
        fatal("cache '", name, "': zero access latency");
}

void
TlbConfig::validate() const
{
    if (entries == 0 || associativity == 0)
        fatal("tlb '", name, "': zero-sized parameter");
    if (entries % associativity)
        fatal("tlb '", name, "': entries not divisible by associativity");
    if (!isPowerOfTwo(numSets()))
        fatal("tlb '", name, "': set count must be a power of two");
    if (associativity > maxSetWays)
        fatal("tlb '", name, "': more than ", maxSetWays, " ways");
}

void
PscConfig::validate() const
{
    if (pml4Entries == 0 || pdpEntries == 0 || pdeEntries == 0)
        fatal("psc: zero-sized structure cache");
    if (nestedTlbEntries == 0 || nestedTlbAssociativity == 0)
        fatal("psc: zero-sized nested TLB");
    if (nestedTlbEntries % nestedTlbAssociativity)
        fatal("psc: nested TLB entries not divisible by ways");
    if (!isPowerOfTwo(nestedTlbEntries / nestedTlbAssociativity))
        fatal("psc: nested TLB set count must be a power of two");
    // A structure cache is one fully-associative set.
    if (std::max({pml4Entries, pdpEntries, pdeEntries,
                  nestedTlbAssociativity}) > maxSetWays)
        fatal("psc: a structure cache or the nested TLB has more than ",
              maxSetWays, " ways");
}

DramConfig
DramConfig::dieStacked()
{
    DramConfig config;
    config.name = "die-stacked";
    config.busFreqGhz = 1.0;
    config.busWidthBits = 128;
    config.rowBufferBytes = 2048;
    config.tCas = 11;
    config.tRcd = 11;
    config.tRp = 11;
    config.numBanks = 8;
    config.numChannels = 1;
    return config;
}

DramConfig
DramConfig::ddr4()
{
    DramConfig config;
    config.name = "ddr4-2133";
    config.busFreqGhz = 1.066;
    config.busWidthBits = 64;
    config.rowBufferBytes = 2048;
    config.tCas = 14;
    config.tRcd = 14;
    config.tRp = 14;
    config.numBanks = 16;
    config.numChannels = 2;
    return config;
}

Cycles
DramConfig::toCoreCycles(double bus_cycles) const
{
    const double scale = coreFreqGhz / busFreqGhz;
    return static_cast<Cycles>(std::ceil(bus_cycles * scale));
}

double
DramConfig::burstBusCycles() const
{
    // Double data rate: two beats per bus cycle.
    const double bytes_per_beat = busWidthBits / 8.0;
    const double beats = burstBytes / bytes_per_beat;
    return beats / 2.0;
}

void
DramConfig::validate() const
{
    if (busFreqGhz <= 0.0 || coreFreqGhz <= 0.0)
        fatal("dram '", name, "': non-positive frequency");
    if (!isPowerOfTwo(rowBufferBytes) || !isPowerOfTwo(burstBytes))
        fatal("dram '", name, "': row/burst sizes must be powers of two");
    if (!isPowerOfTwo(numBanks) || !isPowerOfTwo(numChannels))
        fatal("dram '", name, "': bank/channel counts must be powers of "
              "two");
    if (burstBytes > rowBufferBytes)
        fatal("dram '", name, "': burst larger than a row");
    if (busWidthBits % 8)
        fatal("dram '", name, "': bus width must be whole bytes");
    if (refreshEnabled &&
        (refreshIntervalBusCycles == 0 ||
         refreshBusCycles >= refreshIntervalBusCycles)) {
        fatal("dram '", name, "': refresh window must be shorter "
              "than the refresh interval");
    }
}

void
PomTlbConfig::validate() const
{
    if (entryBytes != 16)
        fatal("pom-tlb: entry format is fixed at 16 bytes (Figure 5)");
    if (associativity == 0 || capacityBytes == 0)
        fatal("pom-tlb: zero-sized parameter");
    if (smallPartitionFraction <= 0.0 || smallPartitionFraction >= 1.0)
        fatal("pom-tlb: small partition fraction must be in (0,1)");
    const std::uint64_t small_bytes = smallPartitionBytes();
    const std::uint64_t large_bytes = capacityBytes - small_bytes;
    const std::uint64_t set_bytes =
        static_cast<std::uint64_t>(entryBytes) * associativity;
    if (small_bytes % set_bytes || large_bytes % set_bytes)
        fatal("pom-tlb: partitions must hold whole sets");
    if (!isPowerOfTwo(small_bytes / set_bytes) ||
        !isPowerOfTwo(large_bytes / set_bytes)) {
        fatal("pom-tlb: per-partition set counts must be powers of two");
    }
    if (!isPowerOfTwo(predictorEntries))
        fatal("pom-tlb: predictor entries must be a power of two");
}

void
TsbConfig::validate() const
{
    if (capacityBytes == 0 || entryBytes == 0)
        fatal("tsb: zero-sized parameter");
    if (!isPowerOfTwo(capacityBytes / entryBytes))
        fatal("tsb: entry count must be a power of two");
    if (accessesPerTranslation == 0)
        fatal("tsb: needs at least one access per translation");
}

void
CoalescedTlbConfig::validate() const
{
    if (rangePages == 0 || !isPowerOfTwo(rangePages))
        fatal("coalesced: range must be a non-zero power of two");
    if (rangePages > 64)
        fatal("coalesced: range wider than the 64-bit presence map");
    if (associativity == 0)
        fatal("coalesced: need at least one way");
    if (associativity > maxSetWays)
        fatal("coalesced: more than ", maxSetWays, " ways");
}

void
VictimaConfig::validate() const
{
    if (entriesPerBlock == 0)
        fatal("victima: need at least one entry per block");
    if (regionBytes == 0 || !isPowerOfTwo(regionBytes))
        fatal("victima: region must be a non-zero power of two");
}

void
SystemConfig::validate() const
{
    if (numCores == 0)
        fatal("system: need at least one core");
    if (coreFreqGhz <= 0.0)
        fatal("system: non-positive core frequency");
    l1d.validate();
    l2.validate();
    l3.validate();
    l1TlbSmall.validate();
    l1TlbLarge.validate();
    l2Tlb.validate();
    psc.validate();
    dieStacked.validate();
    mainMemory.validate();
    pomTlb.validate();
    tsb.validate();
    coalesced.validate();
    victima.validate();
    if (l1d.lineBytes != l2.lineBytes || l2.lineBytes != l3.lineBytes)
        fatal("system: cache line size must match across levels");
    if (pomTlb.cacheable &&
        pomTlb.entryBytes * pomTlb.associativity != l3.lineBytes) {
        fatal("system: a cacheable POM-TLB needs one set per cache "
              "line (Section 2.1.1)");
    }
}

SystemConfig
SystemConfig::table1()
{
    SystemConfig config;
    config.dieStacked.coreFreqGhz = config.coreFreqGhz;
    config.mainMemory.coreFreqGhz = config.coreFreqGhz;
    config.validate();
    return config;
}

} // namespace pomtlb
