#include "sim/stats_export.hh"

#include "sim/engine.hh"
#include "sim/machine.hh"
#include "sim/translation_trace.hh"

namespace pomtlb
{

namespace
{

/** Sum the MMUs' exact SRAM/scheme cycle split across all cores. */
struct CycleSplit
{
    std::uint64_t sram = 0;
    std::uint64_t scheme = 0;
    std::uint64_t total = 0;
};

CycleSplit
sumCycleSplit(Machine &machine)
{
    CycleSplit split;
    for (unsigned core = 0; core < machine.numCores(); ++core) {
        const Mmu &mmu = machine.mmu(core);
        split.sram += mmu.totalSramCycles();
        split.scheme += mmu.totalSchemeCycles();
        split.total += mmu.totalTranslationCycles();
    }
    return split;
}

} // namespace

JsonValue
buildStatsDocument(Machine &machine, const RunResult &result,
                   const std::string &benchmark)
{
    JsonValue doc = JsonValue::object();
    doc.set("schema", kStatsSchemaV1);
    doc.set("benchmark", benchmark);
    doc.set("scheme", machine.schemeName());
    doc.set("mode", execModeName(machine.config().mode));
    doc.set("num_cores",
            static_cast<std::uint64_t>(machine.numCores()));

    // -- totals ----------------------------------------------------
    std::uint64_t translations = 0;
    std::uint64_t l1_hits = 0;
    std::uint64_t l2_hits = 0;
    std::uint64_t ll_misses = 0;
    for (unsigned core = 0; core < machine.numCores(); ++core) {
        const Mmu &mmu = machine.mmu(core);
        translations += mmu.translationCount();
        l1_hits += mmu.l1HitCount();
        l2_hits += mmu.l2HitCount();
        ll_misses += mmu.lastLevelMissCount();
    }
    const CycleSplit split = sumCycleSplit(machine);

    const RunTotals &run_totals = result.totals();
    JsonValue totals = JsonValue::object();
    totals.set("refs", run_totals.refs);
    totals.set("translations", translations);
    totals.set("l1_tlb_hits", l1_hits);
    totals.set("l2_tlb_hits", l2_hits);
    totals.set("last_level_tlb_misses", ll_misses);
    totals.set("translation_cycles", split.total);
    totals.set("sram_cycles", split.sram);
    totals.set("scheme_cycles", split.scheme);
    totals.set("page_walks", run_totals.pageWalks);
    totals.set("shootdowns", run_totals.shootdowns);
    totals.set("avg_penalty_per_miss", run_totals.avgPenaltyPerMiss);
    totals.set("walk_fraction", run_totals.walkFraction);
    doc.set("totals", std::move(totals));

    // -- cycle breakdown (Figure 8 decomposition) ------------------
    // "sram_tlb" is the private-SRAM share; the remaining keys come
    // from the scheme's per-service-point accounting and sum exactly
    // to totals.scheme_cycles (asserted in tests).
    JsonValue breakdown = JsonValue::object();
    breakdown.set("sram_tlb", split.sram);
    for (const auto &[point, cycles] :
         machine.scheme().cycleBreakdown()) {
        breakdown.set(servicePointName(point), cycles);
    }
    doc.set("cycle_breakdown", std::move(breakdown));

    // -- full component statistics tree ----------------------------
    doc.set("components", machine.stats().toJson());

    // -- trace metadata (only when a tracer is attached) -----------
    if (const TranslationTracer *tracer = machine.tracer()) {
        JsonValue trace = JsonValue::object();
        trace.set("sample_interval", tracer->sampleInterval());
        trace.set("capacity",
                  static_cast<std::uint64_t>(tracer->capacity()));
        trace.set("seen", tracer->seenCount());
        trace.set("recorded", tracer->recordedCount());
        trace.set("held",
                  static_cast<std::uint64_t>(tracer->size()));
        doc.set("trace", std::move(trace));
    }

    return doc;
}

} // namespace pomtlb
