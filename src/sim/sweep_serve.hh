/**
 * @file
 * The `pomtlb serve` protocol: a line-oriented JSON (JSONL) request
 * loop that runs sweep campaigns through the sweep-at-scale service
 * (sim/sweep_cache.hh) and streams results incrementally.
 *
 * The session reads one JSON request object per input line and
 * writes one JSON event object per output line, each tagged
 * `"schema": "pomtlb-serve-v1"`. Long campaigns stream a `job`
 * event per completed job — in request order, cached prefixes
 * immediately — so a client (scripts/plot_results.py understands
 * the stream) renders progress without waiting for the end.
 *
 * The protocol lives in the library, parameterised over plain
 * istream/ostream, so the CLI serves a FIFO or stdin with the exact
 * code the tests drive through stringstreams. The full
 * request/event vocabulary is documented in docs/sweep-service.md.
 */

#ifndef POMTLB_SIM_SWEEP_SERVE_HH
#define POMTLB_SIM_SWEEP_SERVE_HH

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/sweep_cache.hh"

namespace pomtlb
{

/** Schema identifier tagged onto every serve-protocol event line. */
inline constexpr const char *kSweepServeSchemaV1 = "pomtlb-serve-v1";

/** Knobs of one ServeSession. */
struct ServeOptions
{
    /** Result-cache directory shared by every campaign served. */
    std::string cacheDir;
    /**
     * Directory for checkpoint journals, one per campaign
     * (`<dir>/<sweep-hash>.jsonl`); empty disables checkpointing.
     */
    std::string journalDir;
    /**
     * Worker threads per campaign, as SweepServiceOptions::jobs
     * (0 = hardware concurrency); a request's `jobs` overrides it.
     */
    unsigned jobs = 1;
};

/**
 * One serve-protocol session over an input/output stream pair.
 *
 * Requests (one JSON object per line, `"op"` selects):
 *  - `ping`      liveness probe, answered with `pong`;
 *  - `list`      answered with a `catalog` of benchmarks + schemes;
 *  - `sweep`     run a campaign (benchmarks x schemes axes plus
 *                config overrides), streaming `job` events and a
 *                final `sweep-end`;
 *  - `run`       single-job sugar for `sweep`;
 *  - `scenario`  run a consolidation-scenario campaign (tenant
 *                counts plus churn/overcommit/storm knobs; see
 *                sim/scenario.hh), streaming `scenario-job` events
 *                and a final `scenario-end`;
 *  - `stats`     accounting of the most recent campaign;
 *  - `shutdown`  answered with `bye`; the session ends.
 *
 * Malformed lines and unknown ops produce an `error` event and the
 * loop continues; EOF ends the session without a `bye`.
 */
class ServeSession
{
  public:
    ServeSession(std::istream &in, std::ostream &out,
                 ServeOptions serve_options);

    /**
     * Announce `ready`, then serve requests until `shutdown` or
     * EOF. Returns the number of request lines processed.
     */
    std::size_t runToCompletion();

  private:
    void emitEvent(JsonValue event);
    JsonValue statsJson() const;
    void handleRequest(const JsonValue &request);
    void handleSweep(const JsonValue &request);
    void handleScenario(const JsonValue &request);
    std::string
    runCampaign(const JsonValue &request, const char *schema,
                const std::vector<CampaignJob> &jobs,
                const char *job_event,
                const std::function<void(JsonValue &event,
                                         const SweepJobReport &report)>
                    &identify);

    std::istream &input;
    std::ostream &output;
    ServeOptions serveOptions;
    SweepServiceStats campaignStats;
    bool shuttingDown = false;
};

} // namespace pomtlb

#endif // POMTLB_SIM_SWEEP_SERVE_HH
