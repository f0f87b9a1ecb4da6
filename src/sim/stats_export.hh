/**
 * @file
 * The versioned `pomtlb-stats-v1` statistics document.
 *
 * buildStatsDocument() snapshots a finished run — machine identity,
 * run totals, the per-service-point cycle breakdown (the paper's
 * Figure 8 decomposition), and the full component statistics tree —
 * into one JSON object. The schema is documented field-by-field in
 * docs/metrics.md; consumers (scripts/plot_results.py, notebooks)
 * should check the `schema` member before reading anything else.
 *
 * Invariants the document guarantees (asserted in tests):
 *
 *  - totals.translation_cycles == totals.sram_cycles +
 *    totals.scheme_cycles, exactly;
 *  - the cycle_breakdown values sum exactly to
 *    totals.translation_cycles;
 *  - every leaf in `components` matches a name documented in
 *    docs/metrics.md (after `.N` core-index normalisation).
 */

#ifndef POMTLB_SIM_STATS_EXPORT_HH
#define POMTLB_SIM_STATS_EXPORT_HH

#include <string>

#include "common/json.hh"

namespace pomtlb
{

class Machine;
struct RunResult;

/** Schema identifier written into every stats document. */
inline constexpr const char *kStatsSchemaV1 = "pomtlb-stats-v1";

/**
 * Build the `pomtlb-stats-v1` document for a finished run.
 *
 * @param machine   The machine the run executed on (statistics are
 *                  read from its stats tree and components as-is, so
 *                  call this before any resetStats()). Non-const only
 *                  because component accessors are non-const; nothing
 *                  is modified.
 * @param result    The engine's RunResult for the measured phase.
 * @param benchmark Benchmark name recorded in the document.
 * @return The document as a JsonValue object.
 */
JsonValue buildStatsDocument(Machine &machine, const RunResult &result,
                             const std::string &benchmark);

} // namespace pomtlb

#endif // POMTLB_SIM_STATS_EXPORT_HH
