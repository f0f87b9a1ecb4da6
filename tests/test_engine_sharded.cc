/**
 * @file
 * Bit-identity battery for the sharded engine (docs/internals.md
 * §14).
 *
 * The determinism contract of EngineConfig::runThreads is absolute:
 * a sharded run must produce the SAME BYTES as the serial run — not
 * statistically similar, not equal within tolerance — because
 * sharded and serial results share sweep-cache entries (runThreads
 * is excluded from jobHash) and golden fixtures. This battery
 * enforces the contract across every axis that routes work
 * differently through the executor:
 *
 *  - every registered scheme × both benchmarks × 2/3/8 worker
 *    threads, compared on the full `pomtlb-stats-v1` document
 *    byte-for-byte (doubles included at full precision);
 *  - the streaming regime (prepopulate off, so the timed run pulls
 *    from sources through the epoch-barrier prefill machinery
 *    rather than a captured replay), with a deliberately tiny epoch
 *    to force many barriers;
 *  - trace-pack replay input (shared mmap-ed reader fanned out to
 *    worker threads);
 *  - a churny 64-tenant consolidation scenario with overcommit,
 *    migrations, and shootdown storms, compared on the full
 *    `pomtlb-scenario-v1` document.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "sim/engine.hh"
#include "sim/machine.hh"
#include "sim/scenario.hh"
#include "sim/scheme_registry.hh"
#include "sim/stats_export.hh"
#include "trace/profile.hh"
#include "trace/source.hh"
#include "trace/tracepack.hh"
#include "test_paths.hh"

namespace pomtlb
{
namespace
{

constexpr unsigned kShardCounts[] = {2, 3, 8};

SystemConfig
smallSystem(unsigned cores = 4)
{
    SystemConfig config = SystemConfig::table1();
    config.numCores = cores;
    return config;
}

EngineConfig
quickEngine()
{
    EngineConfig config;
    config.refsPerCore = 2500;
    config.warmupRefsPerCore = 1000;
    return config;
}

/** Full pomtlb-stats-v1 bytes of one run of @p config. */
std::string
statsDump(const std::string &scheme, const std::string &benchmark,
          const EngineConfig &config, unsigned cores = 4)
{
    Machine machine(smallSystem(cores), scheme);
    SimulationEngine engine(
        machine, ProfileRegistry::byName(benchmark), config);
    const RunResult result = engine.run();
    return buildStatsDocument(machine, result, benchmark).dump(2);
}

// ---------------------------------------------------------------
// Captured regime: every scheme, both benchmarks, three shard
// counts (including more threads than cores).
// ---------------------------------------------------------------

class ShardedScheme
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string>>
{
};

TEST_P(ShardedScheme, StatsDocumentIsByteIdenticalToSerial)
{
    const auto &[scheme, benchmark] = GetParam();
    const EngineConfig serial = quickEngine();
    const std::string expected =
        statsDump(scheme, benchmark, serial);

    for (const unsigned threads : kShardCounts) {
        EngineConfig sharded = serial;
        sharded.runThreads = threads;
        EXPECT_EQ(statsDump(scheme, benchmark, sharded), expected)
            << scheme << "/" << benchmark << " diverged at "
            << threads << " worker threads";
    }
}

std::vector<std::tuple<std::string, std::string>>
allSchemeBenchPairs()
{
    std::vector<std::tuple<std::string, std::string>> out;
    for (const std::string &scheme :
         SchemeRegistry::global().names())
        for (const std::string bench : {"mcf", "gups"})
            out.emplace_back(scheme, bench);
    return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, ShardedScheme,
    ::testing::ValuesIn(allSchemeBenchPairs()),
    [](const ::testing::TestParamInfo<ShardedScheme::ParamType>
           &info) {
        std::string name = std::get<0>(info.param) + "_" +
                           std::get<1>(info.param);
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

// ---------------------------------------------------------------
// Streaming regime: with pre-population off there is no capture to
// replay, so the timed loop pulls blocks through the epoch-barrier
// prefill machinery. A tiny epoch forces many barriers.
// ---------------------------------------------------------------

TEST(ShardedStreaming, EpochPrefillIsByteIdenticalToSerial)
{
    EngineConfig serial = quickEngine();
    serial.prepopulate = false;
    const std::string expected = statsDump("POM-TLB", "mcf", serial);

    for (const unsigned threads : kShardCounts) {
        EngineConfig sharded = serial;
        sharded.runThreads = threads;
        sharded.epochCycles = 512;
        EXPECT_EQ(statsDump("POM-TLB", "mcf", sharded), expected)
            << "streaming run diverged at " << threads
            << " worker threads";
    }
}

TEST(ShardedStreaming, EpochLengthNeverChangesResults)
{
    EngineConfig serial = quickEngine();
    serial.prepopulate = false;
    const std::string expected =
        statsDump("Baseline", "gups", serial);

    for (const Cycles epoch : {Cycles(256), Cycles(4096),
                               Cycles(1u << 20)}) {
        EngineConfig sharded = serial;
        sharded.runThreads = 3;
        sharded.epochCycles = epoch;
        EXPECT_EQ(statsDump("Baseline", "gups", sharded), expected)
            << "streaming run diverged at epoch length " << epoch;
    }
}

// ---------------------------------------------------------------
// Trace-pack replay: the shared mmap-ed reader is fanned out to
// worker threads (eagerly verified, trace/tracepack.hh).
// ---------------------------------------------------------------

TEST(ShardedPackReplay, ReplayIsByteIdenticalToSerial)
{
    const auto &profile = ProfileRegistry::byName("gups");
    const EngineConfig config = quickEngine();
    const unsigned cores = 4;

    const std::string path =
        testTempPath("sharded_replay", ".pack");
    {
        TracePackWriter writer(
            path, {"core0", "core1", "core2", "core3"});
        const std::uint64_t per_core =
            config.warmupRefsPerCore + config.refsPerCore;
        std::vector<TraceRecord> block(1024);
        for (unsigned core = 0; core < cores; ++core) {
            GeneratorSource source(
                profile, core,
                config.seed ^ smallSystem(cores).seed);
            std::uint64_t left = per_core;
            while (left > 0) {
                const std::size_t got = source.fill(
                    block.data(),
                    static_cast<std::size_t>(
                        std::min<std::uint64_t>(block.size(),
                                                left)));
                writer.append(core, block.data(), got);
                left -= got;
            }
        }
        writer.close();
    }

    EngineConfig serial = config;
    serial.tracePackPath = path;
    const std::string expected =
        statsDump("POM-TLB", "gups", serial, cores);

    for (const unsigned threads : kShardCounts) {
        EngineConfig sharded = serial;
        sharded.runThreads = threads;
        EXPECT_EQ(statsDump("POM-TLB", "gups", sharded, cores),
                  expected)
            << "pack replay diverged at " << threads << " threads";
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------
// Consolidation scenarios: 64 churning tenants with overcommit,
// migrations, and shootdown storms — the full
// `pomtlb-scenario-v1` document matches byte for byte.
// ---------------------------------------------------------------

ScenarioSpec
churnySpec()
{
    ScenarioSpec spec;
    spec.name = "sharded-churn";
    spec.scheme = "POM-TLB";
    spec.system = smallSystem(4);
    spec.engine = quickEngine();
    spec.tenantCount = 64;
    spec.residentPerCore = 4;
    spec.overcommitFactor = 1.5;
    spec.migrationPagesPerArrival = 16;
    spec.storm.intervalRefs = 900;
    spec.storm.pagesPerBurst = 8;
    return spec;
}

std::string
scenarioDump(const ScenarioSpec &spec)
{
    Machine machine(spec.system, spec.scheme);
    const ScenarioResult result = runScenario(machine, spec);
    return buildScenarioDocument(machine, spec, result).dump(2);
}

TEST(ShardedScenario, ChurnyTenantsAreByteIdenticalToSerial)
{
    const ScenarioSpec serial = churnySpec();
    const std::string expected = scenarioDump(serial);

    for (const unsigned threads : kShardCounts) {
        ScenarioSpec sharded = serial;
        sharded.engine.runThreads = threads;
        EXPECT_EQ(scenarioDump(sharded), expected)
            << "scenario diverged at " << threads
            << " worker threads";
    }
}

} // namespace
} // namespace pomtlb
