/**
 * @file
 * Tests for the `pomtlb-stats-v1` document (sim/stats_export.hh):
 * schema shape, the exact cycle-accounting invariants for every
 * registered scheme, trace metadata, and the docs/metrics.md
 * coverage contract
 * (every emitted stat name must be documented).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <memory>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/engine.hh"
#include "sim/machine.hh"
#include "sim/scenario.hh"
#include "sim/scheme_registry.hh"
#include "sim/stats_export.hh"
#include "trace/profile.hh"

namespace pomtlb
{
namespace
{

struct RunOutput
{
    std::unique_ptr<Machine> machine;
    RunResult result;
};

RunOutput
runMachine(SystemConfig config, const std::string &scheme,
           bool with_tracer = false)
{
    config.numCores = 2;
    RunOutput out;
    out.machine = std::make_unique<Machine>(config, scheme);
    if (with_tracer)
        out.machine->enableTracing(256, 16);
    EngineConfig engine_config;
    engine_config.refsPerCore = 4000;
    engine_config.warmupRefsPerCore = 1000;
    const BenchmarkProfile &profile =
        ProfileRegistry::byName("mcf");
    SimulationEngine engine(*out.machine, profile, engine_config);
    out.result = engine.run();
    return out;
}

TEST(StatsExport, DocumentShape)
{
    RunOutput out = runMachine(SystemConfig::table1(), "POM-TLB");
    const JsonValue doc =
        buildStatsDocument(*out.machine, out.result, "mcf");

    EXPECT_EQ(doc.at("schema").asString(), kStatsSchemaV1);
    EXPECT_EQ(doc.at("benchmark").asString(), "mcf");
    EXPECT_EQ(doc.at("scheme").asString(), "POM-TLB");
    EXPECT_EQ(doc.at("mode").asString(), "virtualized");
    EXPECT_EQ(doc.at("num_cores").asUint(), 2u);
    EXPECT_TRUE(doc.at("totals").isObject());
    EXPECT_TRUE(doc.at("cycle_breakdown").isObject());
    EXPECT_TRUE(doc.at("components").isObject());
    EXPECT_FALSE(doc.has("trace")); // tracing was off

    // The components tree includes every per-core group.
    EXPECT_TRUE(doc.at("components").has("mmu.0"));
    EXPECT_TRUE(doc.at("components").has("mmu.1"));
    EXPECT_TRUE(doc.at("components").has("walker.0"));
    EXPECT_TRUE(doc.at("components").has("scheme"));

    // The whole document survives a serialise/parse round trip.
    EXPECT_EQ(JsonValue::parse(doc.dump()), doc);
}

/**
 * The acceptance invariant: the document's cycle totals equal the
 * engine's aggregate cost exactly — for every registered scheme.
 */
TEST(StatsExport, CycleTotalsExactlyMatchEngineForEveryScheme)
{
    for (const std::string &scheme :
         SchemeRegistry::global().names()) {
        SCOPED_TRACE(scheme);
        RunOutput out = runMachine(SystemConfig::table1(), scheme);
        const JsonValue doc =
            buildStatsDocument(*out.machine, out.result, "mcf");
        const JsonValue &totals = doc.at("totals");

        // Document totals == the engine's per-core aggregate.
        EXPECT_EQ(totals.at("translation_cycles").asUint(),
                  out.result.totals().translationCycles);
        EXPECT_EQ(totals.at("refs").asUint(),
                  out.result.totals().refs);
        EXPECT_EQ(totals.at("last_level_tlb_misses").asUint(),
                  out.result.totals().lastLevelMisses);
        EXPECT_EQ(totals.at("page_walks").asUint(),
                  out.result.totals().pageWalks);

        // Exact split: translation == sram + scheme.
        EXPECT_EQ(totals.at("sram_cycles").asUint() +
                      totals.at("scheme_cycles").asUint(),
                  totals.at("translation_cycles").asUint());

        // The breakdown partitions the total with no remainder.
        std::uint64_t breakdown_sum = 0;
        for (const auto &[name, value] :
             doc.at("cycle_breakdown").members()) {
            EXPECT_TRUE(name == "sram_tlb" ||
                        servicePointFromName(name).has_value())
                << name;
            breakdown_sum += value.asUint();
        }
        EXPECT_EQ(breakdown_sum,
                  totals.at("translation_cycles").asUint());
        EXPECT_EQ(doc.at("cycle_breakdown").at("sram_tlb").asUint(),
                  totals.at("sram_cycles").asUint());
    }
}

TEST(StatsExport, TraceMetadataPresentWhenTracing)
{
    RunOutput out =
        runMachine(SystemConfig::table1(), "Baseline", true);
    const JsonValue doc =
        buildStatsDocument(*out.machine, out.result, "mcf");
    ASSERT_TRUE(doc.has("trace"));
    const JsonValue &trace = doc.at("trace");
    EXPECT_EQ(trace.at("sample_interval").asUint(), 16u);
    EXPECT_EQ(trace.at("capacity").asUint(), 256u);
    EXPECT_EQ(trace.at("seen").asUint(), out.result.totals().refs);
    EXPECT_GE(trace.at("recorded").asUint(),
              trace.at("held").asUint());
}

// ----------------------------------------------------------------
// docs/metrics.md coverage
// ----------------------------------------------------------------

/** Every backticked token in the doc, plus its dot-split parts. */
std::set<std::string>
documentedTokens()
{
    const std::string path =
        std::string(POMTLB_SOURCE_DIR) + "/docs/metrics.md";
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();

    std::set<std::string> tokens;
    std::size_t pos = 0;
    while ((pos = text.find('`', pos)) != std::string::npos) {
        const std::size_t end = text.find('`', pos + 1);
        if (end == std::string::npos)
            break;
        const std::string token =
            text.substr(pos + 1, end - pos - 1);
        tokens.insert(token);
        std::string part;
        for (const char c : token + ".") {
            if (c == '.') {
                if (!part.empty())
                    tokens.insert(part);
                part.clear();
            } else {
                part += c;
            }
        }
        pos = end + 1;
    }
    return tokens;
}

/** Collect every flat stat name a machine emits, `.N`-normalised. */
void
collectNames(SystemConfig config, const std::string &scheme,
             std::set<std::string> &names)
{
    RunOutput out = runMachine(std::move(config), scheme);
    std::vector<std::pair<std::string, double>> flat;
    out.machine->stats().collect(flat);
    const std::regex digits("\\.[0-9]+");
    for (const auto &stat : flat)
        names.insert(std::regex_replace(stat.first, digits, ".N"));
}

/**
 * The contract docs/metrics.md advertises: 100% of emitted stat
 * names are documented. Every dot-segment of every emitted name
 * (histograms reduced to their base name) must appear in the doc.
 */
TEST(StatsExport, MetricsDocCoversEveryStat)
{
    std::set<std::string> names;
    for (const std::string &scheme :
         SchemeRegistry::global().names())
        collectNames(SystemConfig::table1(), scheme, names);
    SystemConfig unified = SystemConfig::table1();
    unified.pomTlb.unifiedOrganization = true;
    collectNames(unified, "POM-TLB", names);
    SystemConfig with_l4 = SystemConfig::table1();
    with_l4.dieStackedL4Cache = true;
    collectNames(with_l4, "Baseline", names);
    ASSERT_GT(names.size(), 100u);

    const std::set<std::string> tokens = documentedTokens();
    for (std::string name : names) {
        // The flat form of a histogram appends .samples/.mean/.max;
        // the doc documents the histogram's base name.
        for (const char *suffix : {".samples", ".mean", ".max"}) {
            const std::size_t at = name.rfind(suffix);
            if (at != std::string::npos &&
                at + std::strlen(suffix) == name.size() &&
                name.find("_hist") != std::string::npos) {
                name.resize(at);
            }
        }
        std::string part;
        for (const char c : name + ".") {
            if (c == '.') {
                if (!part.empty() && part != "N") {
                    EXPECT_TRUE(tokens.count(part))
                        << "stat '" << name << "': segment '"
                        << part
                        << "' is not documented in docs/metrics.md";
                }
                part.clear();
            } else {
                part += c;
            }
        }
    }
}

/**
 * The same 100%-documented contract for the per-tenant statistics of
 * the `pomtlb-scenario-v1` document: every key of every `tenants[]`
 * entry must appear in the docs/metrics.md per-tenant table.
 */
TEST(StatsExport, MetricsDocCoversEveryScenarioTenantStat)
{
    ScenarioSpec spec;
    spec.name = "doc-coverage";
    spec.system.numCores = 2;
    spec.engine.refsPerCore = 2000;
    spec.engine.warmupRefsPerCore = 1000;
    spec.tenantCount = 4;
    spec.tenantBenchmarks = {"mcf", "gups"};
    spec.migrationPagesPerArrival = 2;
    spec.storm = {800, 4};

    Machine machine(spec.system, spec.scheme);
    const ScenarioResult result = runScenario(machine, spec);
    const JsonValue document =
        buildScenarioDocument(machine, spec, result);

    const std::set<std::string> tokens = documentedTokens();
    const JsonValue &tenants = document.at("tenants");
    ASSERT_EQ(tenants.elements().size(), 4u);
    for (const JsonValue &tenant : tenants.elements()) {
        ASSERT_GT(tenant.members().size(), 10u);
        for (const auto &member : tenant.members()) {
            EXPECT_TRUE(tokens.count(member.first))
                << "tenant stat '" << member.first
                << "' is not documented in docs/metrics.md";
        }
    }
}

} // namespace
} // namespace pomtlb
