/**
 * @file
 * Simulation-engine tests: determinism, warmup/stat-reset semantics,
 * pre-population, multi-VM placement, trace-pack replay, the
 * classic-run facade's input checks, and result aggregation.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/engine.hh"
#include "trace/source.hh"
#include "trace/tracepack.hh"
#include "test_paths.hh"

namespace pomtlb
{
namespace
{

EngineConfig
quickEngine()
{
    EngineConfig config;
    config.refsPerCore = 3000;
    config.warmupRefsPerCore = 1000;
    return config;
}

SystemConfig
twoCores()
{
    SystemConfig config = SystemConfig::table1();
    config.numCores = 2;
    return config;
}

TEST(Engine, RunProducesPerCoreStats)
{
    Machine machine(twoCores(), "POM-TLB");
    SimulationEngine engine(
        machine, ProfileRegistry::byName("gups"), quickEngine());
    const RunResult result = engine.run();
    ASSERT_EQ(result.cores.size(), 2u);
    for (const auto &core : result.cores) {
        EXPECT_EQ(core.refs, 3000u);
        EXPECT_GT(core.instructions, core.refs);
        EXPECT_GT(core.cycles, 0u);
    }
    EXPECT_EQ(result.totals().refs, 6000u);
}

TEST(Engine, DeterministicAcrossRuns)
{
    const auto &profile = ProfileRegistry::byName("mcf");
    Machine machine_a(twoCores(), "POM-TLB");
    SimulationEngine engine_a(machine_a, profile, quickEngine());
    const RunResult a = engine_a.run();

    Machine machine_b(twoCores(), "POM-TLB");
    SimulationEngine engine_b(machine_b, profile, quickEngine());
    const RunResult b = engine_b.run();

    EXPECT_EQ(a.totals().translationCycles, b.totals().translationCycles);
    EXPECT_EQ(a.totals().lastLevelMisses, b.totals().lastLevelMisses);
    for (std::size_t i = 0; i < a.cores.size(); ++i)
        EXPECT_EQ(a.cores[i].cycles, b.cores[i].cycles);
}

TEST(Engine, SeedChangesResults)
{
    const auto &profile = ProfileRegistry::byName("gups");
    EngineConfig config_a = quickEngine();
    EngineConfig config_b = quickEngine();
    config_b.seed = 777;

    Machine machine_a(twoCores(), "POM-TLB");
    const RunResult a =
        SimulationEngine(machine_a, profile, config_a).run();
    Machine machine_b(twoCores(), "POM-TLB");
    const RunResult b =
        SimulationEngine(machine_b, profile, config_b).run();
    EXPECT_NE(a.totals().translationCycles,
              b.totals().translationCycles);
}

TEST(Engine, PrepopulationEliminatesColdWalks)
{
    const auto &profile = ProfileRegistry::byName("gups");
    EngineConfig with = quickEngine();
    EngineConfig without = quickEngine();
    without.prepopulate = false;

    Machine machine_a(twoCores(), "POM-TLB");
    const RunResult pre =
        SimulationEngine(machine_a, profile, with).run();
    Machine machine_b(twoCores(), "POM-TLB");
    const RunResult cold =
        SimulationEngine(machine_b, profile, without).run();

    EXPECT_LT(pre.totals().walkFraction, 0.02);
    EXPECT_GT(cold.totals().walkFraction, pre.totals().walkFraction);
}

TEST(Engine, WarmupStatsAreDiscarded)
{
    const auto &profile = ProfileRegistry::byName("gups");
    Machine machine(twoCores(), "POM-TLB");
    SimulationEngine engine(machine, profile, quickEngine());
    const RunResult result = engine.run();
    // Only measured-phase references are counted in the MMU stats.
    std::uint64_t translations = 0;
    for (CoreId core = 0; core < 2; ++core)
        translations += machine.mmu(core).translationCount();
    EXPECT_EQ(translations, result.totals().refs);
}

TEST(Engine, MultiVmPlacement)
{
    const auto &profile = ProfileRegistry::byName("gups");
    EngineConfig config = quickEngine();
    config.coreVm = {1, 2};
    Machine machine(twoCores(), "POM-TLB");
    SimulationEngine engine(machine, profile, config);
    EXPECT_NO_THROW(engine.run());
    // Both VMs really exist in the memory map.
    EXPECT_EQ(machine.memoryMap().vmCount(), 2u);
}

TEST(Engine, BaselineWalksEveryMiss)
{
    const auto &profile = ProfileRegistry::byName("gups");
    Machine machine(twoCores(), "Baseline");
    SimulationEngine engine(machine, profile, quickEngine());
    const RunResult result = engine.run();
    EXPECT_GT(result.totals().lastLevelMisses, 0u);
    EXPECT_DOUBLE_EQ(result.totals().walkFraction, 1.0);
    EXPECT_GT(result.totals().avgPenaltyPerMiss, 0.0);
}

TEST(Engine, OneStreamPackReplaysOnEveryCore)
{
    // Pack a short generator trace as one stream and replay it on
    // two cores: both wrap onto stream 0 (core c -> c mod 1), and
    // the run behaves like a normal run.
    const std::string pack =
        testTempPath("engine_replay_test", ".pack");
    const auto &profile = ProfileRegistry::byName("gups");
    {
        TraceGenerator generator(profile, 0, 123);
        std::vector<TraceRecord> records(5000);
        generator.fill(records.data(), records.size());
        TracePackWriter writer(pack, {"core0"});
        writer.append(0, records.data(), records.size());
        writer.close();
    }

    EngineConfig config = quickEngine();
    config.refsPerCore = 2000;
    config.warmupRefsPerCore = 1000;
    config.tracePackPath = pack;
    Machine machine(twoCores(), "POM-TLB");
    SimulationEngine engine(machine, profile, config);
    const RunResult result = engine.run();
    EXPECT_EQ(result.totals().refs, 4000u);
    // Pre-population still covers every page: no walks.
    EXPECT_LT(result.totals().walkFraction, 0.01);
    std::remove(pack.c_str());
}

TEST(Engine, ZeroPidOrVmIsANamedError)
{
    // To the scenario a classic run compiles to, 0 means
    // "auto-assign"; a classic run refuses it rather than renumber.
    const auto &profile = ProfileRegistry::byName("canneal");
    Machine machine(twoCores(), "POM-TLB");
    EngineConfig zero_pid = quickEngine();
    zero_pid.pidBase = 0;
    try {
        SimulationEngine engine(machine, profile, zero_pid);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &error) {
        EXPECT_NE(std::string(error.what()).find("pidBase"),
                  std::string::npos)
            << error.what();
    }
    EngineConfig zero_vm = quickEngine();
    zero_vm.coreVm = {1, 0};
    try {
        SimulationEngine engine(machine, profile, zero_vm);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &error) {
        EXPECT_NE(std::string(error.what()).find("core 1 VM 0"),
                  std::string::npos)
            << error.what();
    }
}

TEST(Engine, ModifiedProfileIsANamedError)
{
    // Workloads resolve by name, so a profile edited after lookup
    // would silently run as the registered one; it is refused.
    BenchmarkProfile profile = ProfileRegistry::byName("mcf");
    profile.footprintBytes /= 2;
    Machine machine(twoCores(), "POM-TLB");
    EXPECT_THROW(SimulationEngine(machine, profile, quickEngine()),
                 std::invalid_argument);
}

TEST(Engine, PackReplayMatchesTheGeneratorRunExactly)
{
    const auto &profile = ProfileRegistry::byName("mcf");
    const SystemConfig system = twoCores();
    const EngineConfig config = quickEngine();

    // The generator-driven reference run.
    Machine machine_a(system, "POM-TLB");
    SimulationEngine engine_a(machine_a, profile, config);
    const RunResult a = engine_a.run();

    // Capture the exact streams that run consumed — same combined
    // seed, one stream per core, warmup + measured records...
    const std::string path =
        testTempPath("engine_pack_replay", ".pack");
    {
        TracePackWriter writer(path, {"core0", "core1"});
        const std::uint64_t per_core =
            config.warmupRefsPerCore + config.refsPerCore;
        std::vector<TraceRecord> block(1024);
        for (unsigned core = 0; core < 2; ++core) {
            GeneratorSource source(profile, core,
                                   config.seed ^ system.seed);
            std::uint64_t left = per_core;
            while (left > 0) {
                const std::size_t got = source.fill(
                    block.data(),
                    static_cast<std::size_t>(std::min<std::uint64_t>(
                        block.size(), left)));
                writer.append(core, block.data(), got);
                left -= got;
            }
        }
        writer.close();
    }

    // ...and replay it: every per-core figure matches exactly.
    EngineConfig replay = config;
    replay.tracePackPath = path;
    Machine machine_b(system, "POM-TLB");
    SimulationEngine engine_b(machine_b, profile, replay);
    const RunResult b = engine_b.run();

    ASSERT_EQ(a.cores.size(), b.cores.size());
    for (std::size_t i = 0; i < a.cores.size(); ++i) {
        EXPECT_EQ(a.cores[i].cycles, b.cores[i].cycles);
        EXPECT_EQ(a.cores[i].instructions, b.cores[i].instructions);
        EXPECT_EQ(a.cores[i].translationCycles,
                  b.cores[i].translationCycles);
        EXPECT_EQ(a.cores[i].l1TlbHits, b.cores[i].l1TlbHits);
        EXPECT_EQ(a.cores[i].lastLevelTlbMisses,
                  b.cores[i].lastLevelTlbMisses);
        EXPECT_EQ(a.cores[i].pageWalks, b.cores[i].pageWalks);
    }
    std::remove(path.c_str());
}

TEST(Engine, GeneratorSourceRewindReplays)
{
    const auto &profile = ProfileRegistry::byName("mcf");
    GeneratorSource source(profile, 0, 99);
    std::vector<Addr> first;
    for (int i = 0; i < 100; ++i)
        first.push_back(source.next().vaddr);
    source.rewind();
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(source.next().vaddr, first[i]);
}

TEST(Engine, PomReducesPenaltyVersusBaseline)
{
    // The headline property: on a TLB-stressing workload the POM-TLB
    // machine spends fewer post-L1 translation cycles than the
    // baseline walker machine, on identical traces.
    const auto &profile = ProfileRegistry::byName("gups");
    EngineConfig config = quickEngine();
    config.refsPerCore = 8000;
    config.warmupRefsPerCore = 4000;

    Machine base(twoCores(), "Baseline");
    const RunResult base_result =
        SimulationEngine(base, profile, config).run();
    Machine pom(twoCores(), "POM-TLB");
    const RunResult pom_result =
        SimulationEngine(pom, profile, config).run();

    EXPECT_LT(pom_result.totals().translationCycles,
              base_result.totals().translationCycles);
}

} // namespace
} // namespace pomtlb
