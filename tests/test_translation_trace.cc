/**
 * @file
 * Unit tests for the sampled translation event trace: sampling
 * cadence, ring-buffer wrap-around, JSONL dump shape, and the
 * machine-level wiring (enableTracing + warmup reset).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/engine.hh"
#include "sim/machine.hh"
#include "sim/translation_trace.hh"
#include "trace/profile.hh"

namespace pomtlb
{
namespace
{

TranslationEvent
eventWithSeq(std::uint64_t seq)
{
    TranslationEvent event;
    event.seq = seq;
    return event;
}

TEST(TranslationTracer, SamplesOneInN)
{
    TranslationTracer tracer(16, 4);
    int sampled = 0;
    for (int i = 0; i < 12; ++i) {
        if (tracer.shouldSample())
            ++sampled;
    }
    // 1-in-4 starting with the very first translation.
    EXPECT_EQ(sampled, 3);
    EXPECT_EQ(tracer.seenCount(), 12u);
    EXPECT_EQ(tracer.sampleInterval(), 4u);
}

TEST(TranslationTracer, RingKeepsLatestWindow)
{
    TranslationTracer tracer(4, 1);
    for (std::uint64_t seq = 0; seq < 10; ++seq)
        tracer.record(eventWithSeq(seq));
    EXPECT_EQ(tracer.capacity(), 4u);
    EXPECT_EQ(tracer.size(), 4u);
    EXPECT_EQ(tracer.recordedCount(), 10u);

    const std::vector<TranslationEvent> events = tracer.events();
    ASSERT_EQ(events.size(), 4u);
    // Oldest first, and only the latest window survives.
    EXPECT_EQ(events.front().seq, 6u);
    EXPECT_EQ(events.back().seq, 9u);
}

TEST(TranslationTracer, ResetClearsEverything)
{
    TranslationTracer tracer(4, 2);
    tracer.shouldSample();
    tracer.record(eventWithSeq(0));
    tracer.reset();
    EXPECT_EQ(tracer.size(), 0u);
    EXPECT_EQ(tracer.seenCount(), 0u);
    EXPECT_EQ(tracer.recordedCount(), 0u);
    EXPECT_TRUE(tracer.events().empty());
}

TEST(TranslationTracer, JsonlLinesAreValidJson)
{
    TranslationTracer tracer(8, 1);
    TranslationEvent event;
    event.seq = 42;
    event.core = 3;
    event.vaddr = 0xdeadbeef000;
    event.size = PageSize::Large2M;
    event.vm = 1;
    event.pid = 7;
    event.cycles = 100;
    event.sramCycles = 26;
    event.schemeCycles = 74;
    event.tlbLevel = TlbLevel::Miss;
    event.servedBy = ServicePoint::PomDram;
    event.probes = 2;
    event.firstTryServed = false;
    event.walked = false;
    tracer.record(event);

    std::ostringstream oss;
    tracer.writeJsonl(oss);
    const std::string text = oss.str();
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.back(), '\n');

    const JsonValue line =
        JsonValue::parse(text.substr(0, text.find('\n')));
    EXPECT_EQ(line.at("seq").asUint(), 42u);
    EXPECT_EQ(line.at("core").asUint(), 3u);
    EXPECT_EQ(line.at("page_size").asString(), "2MB");
    EXPECT_EQ(line.at("tlb_level").asString(), "miss");
    EXPECT_EQ(line.at("served_by").asString(), "pom_dram");
    EXPECT_EQ(line.at("probes").asUint(), 2u);
    EXPECT_EQ(line.at("first_try"), JsonValue(false));
    // The exact cycle split survives serialisation.
    EXPECT_EQ(line.at("sram_cycles").asUint() +
                  line.at("scheme_cycles").asUint(),
              line.at("cycles").asUint());
}

TEST(TranslationTracer, MachineWiringRecordsMeasuredPhaseOnly)
{
    SystemConfig config = SystemConfig::table1();
    config.numCores = 2;
    Machine machine(config, "POM-TLB");
    TranslationTracer &tracer = machine.enableTracing(512, 8);
    ASSERT_EQ(machine.tracer(), &tracer);

    EngineConfig engine_config;
    engine_config.refsPerCore = 4000;
    engine_config.warmupRefsPerCore = 1000;
    const BenchmarkProfile &profile =
        ProfileRegistry::byName("mcf");
    SimulationEngine engine(machine, profile, engine_config);
    const RunResult result = engine.run();

    // The warmup-boundary stats reset also resets the tracer, so the
    // sampler saw exactly the measured-phase translations.
    EXPECT_EQ(tracer.seenCount(), result.totals().refs);
    EXPECT_GT(tracer.size(), 0u);
    EXPECT_EQ(tracer.recordedCount(),
              (tracer.seenCount() + 7) / 8);

    // Every recorded event respects the exact cycle split.
    for (const TranslationEvent &event : tracer.events()) {
        EXPECT_EQ(event.sramCycles + event.schemeCycles,
                  event.cycles);
        if (event.tlbLevel != TlbLevel::Miss) {
            EXPECT_EQ(event.schemeCycles, 0u);
        }
    }
}

TEST(TranslationTracer, DefaultSampleIntervalHonoursEnv)
{
    ::setenv("POMTLB_TRACE_SAMPLE", "128", 1);
    EXPECT_EQ(TranslationTracer::defaultSampleInterval(), 128u);
    ::unsetenv("POMTLB_TRACE_SAMPLE");
    EXPECT_EQ(TranslationTracer::defaultSampleInterval(), 64u);
    TranslationTracer tracer(4, 0);
    EXPECT_EQ(tracer.sampleInterval(), 64u);
}

} // namespace
} // namespace pomtlb
