/**
 * @file
 * The sweep-at-scale layer: memoized, checkpointed, resumable
 * campaigns on top of sim/sweep.hh.
 *
 * A campaign is a large cross product of (benchmark, scheme, config)
 * jobs, and repeated campaigns overlap heavily — re-running the
 * unchanged 95% is wasted compute. Three cooperating pieces fix
 * that, all documented field-by-field in docs/sweep-service.md:
 *
 *  - **Content hashing** (jobIdentityJson / jobHash): every job is
 *    reduced to a canonical JSON identity — schema version,
 *    benchmark, canonical scheme name, label, and the *complete*
 *    serialised configuration — and hashed with 128-bit FNV-1a.
 *    Identical jobs get identical hashes in any process on any
 *    host; any knob that can change a result changes the hash.
 *
 *  - **The on-disk result cache** (SweepCache,
 *    `pomtlb-sweepcache-v1`): one JSON blob per job hash under a
 *    cache directory, written via atomic rename so readers never
 *    observe a torn entry; entries that fail validation are moved
 *    to a quarantine subdirectory (never silently served, never
 *    deleted) and the job simply re-runs.
 *
 *  - **The checkpoint journal** (SweepJournal,
 *    `pomtlb-sweepjournal-v1`): an append-only JSONL file, one
 *    record per completed job, flushed as each job finishes. A
 *    killed sweep resumes by replaying the journal: completed jobs
 *    are served from it, a torn trailing record (the crash write)
 *    is truncated away, and only the remainder executes.
 *
 * SweepService orchestrates the three around its worker pool and
 * emits results *incrementally in request order*, which is what the
 * `pomtlb serve` protocol (sim/sweep_serve.hh) streams to clients.
 * It is the only code that runs a batch of simulations: a campaign
 * is a list of CampaignJob (content hash, key, a function producing
 * the job's entry, a servability check), built by a short adapter
 * per job kind — experimentJobs() here for sweeps, scenarioJobs()
 * in sim/scenario.hh for consolidation scenarios.
 *
 * Determinism contract: a service-built document is byte-identical
 * whether every job executed, came from the cache, came from the
 * journal, or any mix — because the cache stores the exact
 * `pomtlb-sweep-v1` entry bytes, and an entry's `wall_seconds` is
 * always 0 (the identity form). Real wall times are reported
 * out-of-band in the journal records and job reports.
 */

#ifndef POMTLB_SIM_SWEEP_CACHE_HH
#define POMTLB_SIM_SWEEP_CACHE_HH

#include <cstddef>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/sweep.hh"

namespace pomtlb
{

/** Schema identifier of one on-disk cache entry. */
inline constexpr const char *kSweepCacheSchemaV1 =
    "pomtlb-sweepcache-v1";

/** Schema identifier of the checkpoint journal's header record. */
inline constexpr const char *kSweepJournalSchemaV1 =
    "pomtlb-sweepjournal-v1";

/**
 * Canonical identity serialisation of a SystemConfig: every field
 * that can influence a simulation result, in a fixed key order.
 * Shared by the sweep-job identity (jobIdentityJson) and the
 * scenario identity (scenarioIdentityJson in sim/scenario.hh) so
 * both hash the configuration the same way.
 */
JsonValue systemConfigJson(const SystemConfig &config);

/** Canonical identity serialisation of an EngineConfig. */
JsonValue engineConfigJson(const EngineConfig &config);

/**
 * The canonical JSON identity of one sweep job: cache-schema
 * version, benchmark, canonical scheme name, report label, the
 * component-stats flag, and the complete configuration (every
 * SystemConfig and EngineConfig field that can influence a result).
 *
 * Growing the configuration structs means extending this serialiser
 * (and bumping the cache schema version when semantics change);
 * the hash-stability test pins the current recipe.
 */
JsonValue jobIdentityJson(const ExperimentRequest &request);

/**
 * The job's content hash: 32 hex characters of 128-bit FNV-1a over
 * the compact serialisation of jobIdentityJson(). Stable across
 * processes and hosts; this is the cache key and journal key.
 */
std::string jobHash(const ExperimentRequest &request);

/**
 * Hash of a whole campaign: FNV-1a over the newline-joined job
 * hashes (order-sensitive). The journal header records it so a
 * journal is only ever replayed against the sweep that wrote it.
 */
std::string sweepHash(const std::vector<std::string> &job_hashes);

/**
 * The on-disk result cache: `<dir>/<job-hash>.json`, one
 * `pomtlb-sweepcache-v1` blob per entry.
 *
 * Writes go to a hidden temporary in the same directory and are
 * published with rename(), which is atomic on POSIX filesystems —
 * a concurrent reader sees the old entry, no entry, or the new
 * entry, never a prefix. Entries that fail validation on read
 * (unparsable, wrong schema, wrong hash, missing run) are moved to
 * `<dir>/quarantine/` for post-mortem and reported as misses.
 */
class SweepCache
{
  public:
    /** Open (and create if needed) the cache at @p dir. */
    explicit SweepCache(std::string dir);

    /** Path the entry for @p job_hash lives at. */
    std::string entryPath(const std::string &job_hash) const;

    /**
     * The cached `pomtlb-sweep-v1` run entry for @p job_hash, or
     * nullopt on miss. A corrupt entry is quarantined and reported
     * as a miss.
     */
    std::optional<JsonValue> lookup(const std::string &job_hash);

    /**
     * Atomically publish @p run (a `pomtlb-sweep-v1` run entry in
     * identity form) as the cache entry for @p job_hash. @p key is
     * the human-readable "benchmark/scheme[/label]" recorded
     * alongside for debuggability. Failures are reported with
     * warn() and swallowed — the cache is an optimisation, never a
     * correctness dependency.
     */
    void store(const std::string &job_hash, const std::string &key,
               const JsonValue &run);

    /** Entries quarantined by this instance. */
    std::size_t quarantined() const { return quarantineCount; }

  private:
    void quarantine(const std::string &path);

    std::string directory;
    std::size_t quarantineCount = 0;
    std::size_t tmpCounter = 0;
};

/**
 * The append-only checkpoint journal of one campaign
 * (`pomtlb-sweepjournal-v1` JSONL).
 *
 * Line 1 is a header naming the campaign (sweep hash + job count);
 * every subsequent line is one completed job: its hash, key,
 * source, real wall seconds, and the full run entry. open()
 * replays an existing file — dropping a torn trailing line, and
 * restarting the file entirely when the header names a different
 * campaign — and leaves the journal positioned for appends.
 */
class SweepJournal
{
  public:
    explicit SweepJournal(std::string journal_path);

    /**
     * Replay and position for append. Returns the completed jobs
     * (job hash -> run entry) when the existing header matches
     * @p sweep_hash_value / @p jobs; otherwise the file is
     * restarted with a fresh header and the map is empty.
     */
    std::map<std::string, JsonValue>
    open(const std::string &sweep_hash_value, std::size_t jobs);

    /** Append one completed-job record and flush it to the OS. */
    void append(const std::string &job_hash, const std::string &key,
                const std::string &source, double wall_seconds,
                const JsonValue &run);

    /** Records appended through this instance (not replayed ones). */
    std::size_t appended() const { return appendCount; }

  private:
    std::string journalPath;
    std::ofstream out;
    std::size_t appendCount = 0;
};

/** Accounting of one sweepCacheGc() pass. */
struct SweepCacheGcStats
{
    std::size_t scanned = 0;     /**< Entries examined. */
    std::size_t evicted = 0;     /**< Entries removed. */
    std::uint64_t bytesFreed = 0; /**< Bytes of removed entries. */
    std::uint64_t bytesKept = 0;  /**< Bytes of surviving entries. */
};

/**
 * Evict entries from the sweep cache at @p dir: first every
 * top-level `*.json` entry older than @p max_age_seconds (0 = no
 * age limit), then oldest-first — ties broken by name for
 * determinism — until the survivors total at most @p max_bytes
 * (0 = no size limit). Only top-level entry files are candidates:
 * the quarantine subdirectory (post-mortem evidence) and hidden
 * in-flight temporaries are never touched.
 *
 * With @p dry_run set, nothing is removed: the returned stats
 * report what the same two-pass eviction *would* delete (evicted /
 * bytesFreed) and keep, so operators can audit a policy before
 * applying it (`pomtlb cache-gc --dry-run`).
 */
SweepCacheGcStats sweepCacheGc(const std::string &dir,
                               std::uint64_t max_bytes,
                               std::uint64_t max_age_seconds,
                               bool dry_run = false);

/** Where a job's result came from. */
enum class JobSource
{
    Executed, /**< Simulated in this process. */
    Cache,    /**< Served from the on-disk result cache. */
    Journal,  /**< Replayed from the checkpoint journal. */
};

/** Human-readable name of a JobSource ("executed", ...). */
const char *jobSourceName(JobSource source);

/**
 * One job of a campaign, as SweepService runs it. A job kind (sweep
 * request, consolidation scenario) only says how to identify, group,
 * run and validate its jobs; hashing order, deduplication, the
 * cache, the journal, the worker pool, the execution and emission
 * orders and the sharing of trace enumerations are the service's.
 */
struct CampaignJob
{
    /** Content hash: the cache and journal key of the job. */
    std::string hash;
    /** Human-readable key recorded beside the entry. */
    std::string key;
    /**
     * Jobs with the same non-empty group compile the same trace
     * streams (their identities differ only in scheme and label):
     * the service runs them together and shares one trace
     * enumeration among them. "" = the job shares nothing.
     */
    std::string group;
    /**
     * Run the job on the calling thread and return its entry in
     * identity form (no host-dependent field). @p share is the
     * job's group enumeration, or null when no other pending job
     * shares the group; the entry must not depend on it. May throw;
     * the service reports the failure of the lowest job hash.
     */
    std::function<JsonValue(EnumerationShare *share)> produce;
    /**
     * Whether a stored cache or journal entry of this job can be
     * served. A rejected entry is stale, not corrupt: the job
     * re-executes and overwrites it.
     */
    std::function<bool(const JsonValue &entry)> servable;
};

/**
 * The campaign jobs of sweep @p requests: jobHash() and key() of
 * each request, one group per identity without scheme and label,
 * runExperiment() written by SweepResultWriter::entryToJson(), and
 * servable when SweepResultWriter::entryFromJson() reads the entry
 * back.
 */
std::vector<CampaignJob>
experimentJobs(const std::vector<ExperimentRequest> &requests);

/**
 * The worker count that runs @p pending jobs: @p requested, or the
 * host's hardware concurrency when @p requested is 0, capped by
 * @p pending and never 0.
 */
unsigned campaignWorkers(unsigned requested, std::size_t pending);

/** Per-job completion report handed to the emit callback. */
struct SweepJobReport
{
    std::size_t index = 0;  /**< Position in the job list. */
    std::string key;        /**< The job's CampaignJob::key. */
    std::string hash;       /**< The job's content hash. */
    JobSource source = JobSource::Executed; /**< Result origin. */
    /**
     * Host wall seconds the job took to produce, Machine
     * construction included (0 for cache/journal).
     */
    double wallSeconds = 0.0;
};

/** Aggregate accounting of one SweepService::run(). */
struct SweepServiceStats
{
    std::size_t jobs = 0;         /**< Requests in the campaign. */
    std::size_t executed = 0;     /**< Simulations actually run. */
    std::size_t cacheHits = 0;    /**< Jobs served from the cache. */
    std::size_t journalHits = 0;  /**< Jobs replayed from journal. */
    std::size_t deduplicated = 0; /**< Duplicate-hash jobs reused. */
    std::size_t quarantined = 0;  /**< Corrupt cache entries moved. */
    /** Trace enumerations built for groups of pending jobs. */
    std::size_t enumerations = 0;
    /** Executed jobs that reused their group's enumeration. */
    std::size_t enumerationReuses = 0;
};

/** Knobs of one SweepService. */
struct SweepServiceOptions
{
    /** Result-cache directory; empty disables memoization. */
    std::string cacheDir;
    /** Checkpoint-journal path; empty disables checkpointing. */
    std::string journalPath;
    /**
     * Worker threads (0 = hardware concurrency), resolved by
     * campaignWorkers() against the jobs left to execute. With one
     * worker no thread starts: jobs run on the calling thread.
     */
    unsigned jobs = 1;
    /**
     * Fault injection for the crash/resume tests: after this many
     * journal appends the process exits immediately with status 137
     * — no flushes, no destructors, like SIGKILL. 0 disables.
     */
    unsigned crashAfterAppends = 0;
};

/**
 * Runs campaigns: dedupe the jobs by hash, satisfy what the journal
 * and cache already hold, execute only the delta on a worker pool —
 * group by group, each group's trace enumeration built once —
 * checkpoint every completion, and emit results incrementally in
 * request order.
 */
class SweepService
{
  public:
    explicit SweepService(SweepServiceOptions service_options);

    /**
     * Called for every job, strictly in request order, as the
     * completed prefix of the campaign extends — cached prefixes
     * stream out before (and while) later jobs execute. @p run is
     * the job's entry in identity form. Calls never overlap.
     */
    using Emit = std::function<void(const SweepJobReport &report,
                                    const JsonValue &run)>;

    /**
     * Run @p jobs as one campaign; returns the document
     * `{"schema": schema, "runs": [entry per job]}`, byte-identical
     * for any cache/journal/execution mix and any worker count.
     * Jobs left to execute run grouped (CampaignJob::group), then in
     * hash order. When a group has two or more of them, they share
     * one EnumerationShare: its first job builds the group's trace
     * enumeration, the others reuse it, and it is dropped when the
     * group's last pending job completes, so no more enumerations
     * live than there are workers, and none outlives run(). With
     * one worker the jobs run on the calling thread, with emit()
     * firing between them. On failure every pending job still runs,
     * then the exception of the lowest failing job hash is rethrown;
     * completed jobs are journaled by then, so a failed campaign
     * resumes past everything that succeeded.
     */
    JsonValue run(const char *schema,
                  const std::vector<CampaignJob> &jobs,
                  const Emit &emit = Emit());

    /** Run sweep @p requests: the `pomtlb-sweep-v1` document. */
    JsonValue run(const std::vector<ExperimentRequest> &requests,
                  const Emit &emit = Emit())
    {
        return run(kSweepSchemaV1, experimentJobs(requests), emit);
    }

    /** Expand a spec and run it. */
    JsonValue run(const SweepSpec &spec, const Emit &emit = Emit())
    {
        return run(spec.expand(), emit);
    }

    /** Accounting of the most recent run(). */
    const SweepServiceStats &stats() const { return lastStats; }

  private:
    SweepServiceOptions serviceOptions;
    SweepServiceStats lastStats;
};

} // namespace pomtlb

#endif // POMTLB_SIM_SWEEP_CACHE_HH
