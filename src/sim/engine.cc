#include "sim/engine.hh"

#include <stdexcept>
#include <string>

#include "sim/scenario.hh"

namespace pomtlb
{

const RunTotals &
RunResult::totals() const
{
    if (cachedValid)
        return cached;

    RunTotals totals;
    double weighted_penalty = 0.0;
    for (const CoreRunStats &core : cores) {
        totals.refs += core.refs;
        totals.instructions += core.instructions;
        totals.cycles += core.cycles;
        totals.translationCycles += core.translationCycles;
        totals.l1TlbHits += core.l1TlbHits;
        totals.l2TlbHits += core.l2TlbHits;
        totals.lastLevelMisses += core.lastLevelTlbMisses;
        totals.pageWalks += core.pageWalks;
        totals.shootdowns += core.shootdowns;
        weighted_penalty += core.avgPenaltyPerMiss *
                            static_cast<double>(core.lastLevelTlbMisses);
    }
    totals.avgPenaltyPerMiss =
        totals.lastLevelMisses
            ? weighted_penalty /
                  static_cast<double>(totals.lastLevelMisses)
            : 0.0;
    totals.walkFraction =
        totals.lastLevelMisses
            ? static_cast<double>(totals.pageWalks) /
                  static_cast<double>(totals.lastLevelMisses)
            : 0.0;

    cached = totals;
    cachedValid = true;
    return cached;
}

SimulationEngine::SimulationEngine(Machine &machine,
                                   const BenchmarkProfile &profile,
                                   const EngineConfig &config)
{
    // The scenario resolves tenants' workloads by name, so only a
    // registered profile runs as itself.
    const BenchmarkProfile *registered =
        ProfileRegistry::find(profile.name);
    if (registered == nullptr || !(*registered == profile)) {
        throw std::invalid_argument(
            "SimulationEngine: profile '" + profile.name +
            "' is not the registered profile of that name");
    }
    // To a scenario, VM 0 and pid 0 mean "auto-assign"; a classic
    // run never renumbers, so it rejects them instead.
    if (config.pidBase == 0) {
        throw std::invalid_argument(
            "SimulationEngine: EngineConfig::pidBase must be non-zero");
    }
    const unsigned cores = machine.numCores();
    std::vector<VmId> core_vm = config.coreVm;
    core_vm.resize(cores, core_vm.empty() ? VmId{1} : core_vm.back());

    ScenarioSpec spec;
    spec.scheme = machine.schemeName();
    spec.system = machine.config();
    spec.engine = config;
    spec.tracePack = config.tracePackPath;
    for (unsigned core = 0; core < cores; ++core) {
        if (core_vm[core] == 0) {
            throw std::invalid_argument(
                "SimulationEngine: EngineConfig::coreVm gives core " +
                std::to_string(core) + " VM 0");
        }
        // Multithreaded workloads share one address space (one
        // pid); rate-mode copies each run as their own process.
        spec.withTenant(
            TenantSpec{}
                .withName(profile.name)
                .withBenchmark(profile.name)
                .withVm(core_vm[core])
                .withPid(static_cast<ProcessId>(
                    profile.multithreaded ? config.pidBase
                                          : config.pidBase + core)));
    }
    scenario = std::make_unique<ScenarioEngine>(machine, spec);
}

SimulationEngine::~SimulationEngine() = default;

RunResult
SimulationEngine::run()
{
    return scenario->run().run;
}

} // namespace pomtlb
