#include "sim/sweep_cache.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <mutex>
#include <numeric>
#include <sstream>
#include <system_error>
#include <thread>
#include <unistd.h>

#include "common/content_hash.hh"
#include "common/log.hh"
#include "trace/interleave.hh"
#include "trace/tracepack.hh"

namespace fs = std::filesystem;

namespace pomtlb
{

// ---------------------------------------------------------------
// Job identity and hashing
// ---------------------------------------------------------------

namespace
{

JsonValue
cacheConfigJson(const CacheConfig &config)
{
    JsonValue object = JsonValue::object();
    object.set("name", config.name);
    object.set("size_bytes", config.sizeBytes);
    object.set("associativity", std::uint64_t(config.associativity));
    object.set("line_bytes", std::uint64_t(config.lineBytes));
    object.set("access_latency", config.accessLatency);
    return object;
}

JsonValue
tlbConfigJson(const TlbConfig &config)
{
    JsonValue object = JsonValue::object();
    object.set("name", config.name);
    object.set("entries", std::uint64_t(config.entries));
    object.set("associativity", std::uint64_t(config.associativity));
    object.set("miss_penalty", config.missPenalty);
    object.set("access_latency", config.accessLatency);
    return object;
}

JsonValue
pscConfigJson(const PscConfig &config)
{
    JsonValue object = JsonValue::object();
    object.set("pml4_entries", std::uint64_t(config.pml4Entries));
    object.set("pdp_entries", std::uint64_t(config.pdpEntries));
    object.set("pde_entries", std::uint64_t(config.pdeEntries));
    object.set("access_latency", config.accessLatency);
    object.set("nested_tlb_entries",
               std::uint64_t(config.nestedTlbEntries));
    object.set("nested_tlb_associativity",
               std::uint64_t(config.nestedTlbAssociativity));
    object.set("nested_tlb_latency", config.nestedTlbLatency);
    return object;
}

JsonValue
dramConfigJson(const DramConfig &config)
{
    JsonValue object = JsonValue::object();
    object.set("name", config.name);
    object.set("bus_freq_ghz", config.busFreqGhz);
    object.set("bus_width_bits", std::uint64_t(config.busWidthBits));
    object.set("row_buffer_bytes", config.rowBufferBytes);
    object.set("t_cas", std::uint64_t(config.tCas));
    object.set("t_rcd", std::uint64_t(config.tRcd));
    object.set("t_rp", std::uint64_t(config.tRp));
    object.set("num_banks", std::uint64_t(config.numBanks));
    object.set("num_channels", std::uint64_t(config.numChannels));
    object.set("burst_bytes", std::uint64_t(config.burstBytes));
    object.set("core_freq_ghz", config.coreFreqGhz);
    object.set("max_queue_bus_cycles",
               std::uint64_t(config.maxQueueBusCycles));
    object.set("refresh_enabled", config.refreshEnabled);
    object.set("refresh_interval_bus_cycles",
               std::uint64_t(config.refreshIntervalBusCycles));
    object.set("refresh_bus_cycles",
               std::uint64_t(config.refreshBusCycles));
    object.set("t_faw", std::uint64_t(config.tFaw));
    return object;
}

JsonValue
pomTlbConfigJson(const PomTlbConfig &config)
{
    JsonValue object = JsonValue::object();
    object.set("capacity_bytes", config.capacityBytes);
    object.set("small_partition_fraction",
               config.smallPartitionFraction);
    object.set("entry_bytes", std::uint64_t(config.entryBytes));
    object.set("associativity", std::uint64_t(config.associativity));
    object.set("predictor_entries",
               std::uint64_t(config.predictorEntries));
    object.set("base_address", config.baseAddress);
    object.set("cacheable", config.cacheable);
    object.set("bypass_predictor", config.bypassPredictor);
    object.set("size_predictor", config.sizePredictor);
    object.set("prefetch_next_set", config.prefetchNextSet);
    object.set("unified_organization", config.unifiedOrganization);
    return object;
}

JsonValue
tsbConfigJson(const TsbConfig &config)
{
    JsonValue object = JsonValue::object();
    object.set("capacity_bytes", config.capacityBytes);
    object.set("entry_bytes", std::uint64_t(config.entryBytes));
    object.set("trap_cycles", config.trapCycles);
    object.set("accesses_per_translation",
               std::uint64_t(config.accessesPerTranslation));
    return object;
}

JsonValue
coalescedConfigJson(const CoalescedTlbConfig &config)
{
    JsonValue object = JsonValue::object();
    object.set("range_pages", std::uint64_t(config.rangePages));
    object.set("associativity", std::uint64_t(config.associativity));
    object.set("access_latency", config.accessLatency);
    return object;
}

JsonValue
victimaConfigJson(const VictimaConfig &config)
{
    JsonValue object = JsonValue::object();
    object.set("base_address", config.baseAddress);
    object.set("entries_per_block",
               std::uint64_t(config.entriesPerBlock));
    object.set("region_bytes", config.regionBytes);
    return object;
}

} // namespace

JsonValue
systemConfigJson(const SystemConfig &config)
{
    JsonValue object = JsonValue::object();
    object.set("num_cores", std::uint64_t(config.numCores));
    object.set("core_freq_ghz", config.coreFreqGhz);
    object.set("mode", execModeName(config.mode));
    object.set("l1d", cacheConfigJson(config.l1d));
    object.set("l2", cacheConfigJson(config.l2));
    object.set("l3", cacheConfigJson(config.l3));
    object.set("l1_tlb_small", tlbConfigJson(config.l1TlbSmall));
    object.set("l1_tlb_large", tlbConfigJson(config.l1TlbLarge));
    object.set("l2_tlb", tlbConfigJson(config.l2Tlb));
    object.set("psc", pscConfigJson(config.psc));
    object.set("tlb_aware_caching", config.tlbAwareCaching);
    object.set("model_writeback_traffic",
               config.modelWritebackTraffic);
    object.set("die_stacked_l4_cache", config.dieStackedL4Cache);
    object.set("l4_cache_bytes", config.l4CacheBytes);
    object.set("die_stacked", dramConfigJson(config.dieStacked));
    object.set("main_memory", dramConfigJson(config.mainMemory));
    object.set("pom_tlb", pomTlbConfigJson(config.pomTlb));
    object.set("tsb", tsbConfigJson(config.tsb));
    object.set("coalesced", coalescedConfigJson(config.coalesced));
    object.set("victima", victimaConfigJson(config.victima));
    object.set("seed", config.seed);
    return object;
}

JsonValue
engineConfigJson(const EngineConfig &config)
{
    JsonValue object = JsonValue::object();
    object.set("refs_per_core", config.refsPerCore);
    object.set("warmup_refs_per_core", config.warmupRefsPerCore);
    JsonValue core_vm = JsonValue::array();
    for (const VmId vm : config.coreVm)
        core_vm.push(std::uint64_t(vm));
    object.set("core_vm", std::move(core_vm));
    object.set("pid_base", std::uint64_t(config.pidBase));
    object.set("seed", config.seed);
    object.set("shootdown_interval_refs",
               config.shootdownIntervalRefs);
    object.set("shootdown_cycles", config.shootdownCycles);
    object.set("prepopulate", config.prepopulate);
    // Emitted only for trace-pack-driven runs so generator-driven
    // identities (and their pinned golden digests) are unchanged.
    // The identity is the pack's *content* hash, not its path: the
    // same records hash identically anywhere, and editing a record
    // in place changes — and therefore re-executes — the job.
    if (!config.tracePackPath.empty())
        object.set("trace_pack_hash",
                   tracePackContentHash(config.tracePackPath));
    return object;
}

namespace
{

/** A best-effort-unique temporary filename component. */
std::string
tmpSuffix(std::size_t counter)
{
    return std::to_string(::getpid()) + "-" +
           std::to_string(counter);
}

} // namespace

JsonValue
jobIdentityJson(const ExperimentRequest &request)
{
    JsonValue identity = JsonValue::object();
    identity.set("schema", kSweepCacheSchemaV1);
    identity.set("benchmark", request.benchmark);
    identity.set("scheme", request.scheme);
    identity.set("label", request.label);
    identity.set("component_stats", request.collectComponentStats);
    JsonValue config = JsonValue::object();
    config.set("system", systemConfigJson(request.config.system));
    config.set("engine", engineConfigJson(request.config.engine));
    identity.set("config", std::move(config));
    return identity;
}

std::string
jobHash(const ExperimentRequest &request)
{
    return ContentHash::of(jobIdentityJson(request).dump(0));
}

std::string
sweepHash(const std::vector<std::string> &job_hashes)
{
    ContentHash hash;
    for (const std::string &job : job_hashes) {
        hash.update(job);
        hash.update("\n");
    }
    return hash.hexDigest();
}

// ---------------------------------------------------------------
// SweepCache
// ---------------------------------------------------------------

SweepCache::SweepCache(std::string dir) : directory(std::move(dir))
{
    std::error_code error;
    fs::create_directories(directory, error);
    if (error) {
        warn("sweep cache: cannot create ", directory, ": ",
             error.message());
    }
}

std::string
SweepCache::entryPath(const std::string &job_hash) const
{
    return (fs::path(directory) / (job_hash + ".json")).string();
}

void
SweepCache::quarantine(const std::string &path)
{
    std::error_code error;
    const fs::path quarantine_dir =
        fs::path(directory) / "quarantine";
    fs::create_directories(quarantine_dir, error);
    fs::path target =
        quarantine_dir / fs::path(path).filename();
    // Keep every quarantined generation: suffix until unused.
    while (fs::exists(target, error))
        target += "." + tmpSuffix(++tmpCounter);
    fs::rename(path, target, error);
    if (error) {
        // Rename across the same directory tree should not fail;
        // if it somehow does, drop the corrupt entry so it cannot
        // be served again.
        fs::remove(path, error);
    }
    ++quarantineCount;
    warn("sweep cache: quarantined corrupt entry ", path);
}

std::optional<JsonValue>
SweepCache::lookup(const std::string &job_hash)
{
    const std::string path = entryPath(job_hash);
    std::ifstream in(path);
    if (!in)
        return std::nullopt; // plain miss
    std::stringstream buffer;
    buffer << in.rdbuf();
    in.close();

    try {
        JsonValue entry = JsonValue::parse(buffer.str());
        if (!entry.isObject() || !entry.has("schema") ||
            entry.at("schema").asString() != kSweepCacheSchemaV1 ||
            !entry.has("job_hash") ||
            entry.at("job_hash").asString() != job_hash ||
            !entry.has("run") || !entry.at("run").isObject()) {
            quarantine(path);
            return std::nullopt;
        }
        return entry.at("run");
    } catch (const std::exception &) {
        quarantine(path);
        return std::nullopt;
    }
}

void
SweepCache::store(const std::string &job_hash,
                  const std::string &key, const JsonValue &run)
{
    JsonValue entry = JsonValue::object();
    entry.set("schema", kSweepCacheSchemaV1);
    entry.set("job_hash", job_hash);
    entry.set("key", key);
    entry.set("run", run);

    // Write-then-rename: the entry appears atomically or not at
    // all, so concurrent sweeps sharing one cache directory never
    // read a torn blob (last writer wins, and both wrote identical
    // bytes by construction).
    const fs::path tmp =
        fs::path(directory) /
        (".tmp-" + job_hash + "-" + tmpSuffix(++tmpCounter));
    {
        std::ofstream out(tmp);
        if (!out) {
            warn("sweep cache: cannot write ", tmp.string());
            return;
        }
        entry.write(out, 0);
        out << "\n";
    }
    std::error_code error;
    fs::rename(tmp, entryPath(job_hash), error);
    if (error) {
        warn("sweep cache: cannot publish ", entryPath(job_hash),
             ": ", error.message());
        fs::remove(tmp, error);
    }
}

// ---------------------------------------------------------------
// Cache eviction
// ---------------------------------------------------------------

SweepCacheGcStats
sweepCacheGc(const std::string &dir, std::uint64_t max_bytes,
             std::uint64_t max_age_seconds, bool dry_run)
{
    SweepCacheGcStats stats;

    struct Entry
    {
        fs::path path;
        fs::file_time_type mtime;
        std::uint64_t bytes = 0;
    };
    std::vector<Entry> entries;

    std::error_code error;
    for (const fs::directory_entry &item :
         fs::directory_iterator(dir, error)) {
        if (!item.is_regular_file(error))
            continue;
        const std::string name = item.path().filename().string();
        // Only published entries: skip in-flight ".tmp-*"
        // temporaries (hidden) and anything that is not an entry
        // blob. The quarantine/ subdirectory is not iterated at
        // all (non-recursive walk).
        if (name.empty() || name.front() == '.' ||
            item.path().extension() != ".json") {
            continue;
        }
        Entry entry;
        entry.path = item.path();
        entry.mtime = fs::last_write_time(item.path(), error);
        if (error)
            continue;
        entry.bytes = item.file_size(error);
        if (error)
            continue;
        entries.push_back(std::move(entry));
    }
    stats.scanned = entries.size();

    // Oldest first; name breaks mtime ties so a pass is
    // deterministic on coarse-granularity filesystems.
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  if (a.mtime != b.mtime)
                      return a.mtime < b.mtime;
                  return a.path.filename() < b.path.filename();
              });

    std::uint64_t total = 0;
    for (const Entry &entry : entries)
        total += entry.bytes;

    const fs::file_time_type now = fs::file_time_type::clock::now();
    const auto evict = [&](const Entry &entry) {
        if (!dry_run) {
            std::error_code remove_error;
            if (!fs::remove(entry.path, remove_error)) {
                warn("cache-gc: cannot remove ",
                     entry.path.string(), ": ",
                     remove_error.message());
                return false;
            }
        }
        ++stats.evicted;
        stats.bytesFreed += entry.bytes;
        total -= entry.bytes;
        return true;
    };

    std::vector<char> gone(entries.size(), 0);
    if (max_age_seconds > 0) {
        const auto horizon =
            now - std::chrono::seconds(max_age_seconds);
        for (std::size_t i = 0; i < entries.size(); ++i) {
            if (entries[i].mtime < horizon && evict(entries[i]))
                gone[i] = 1;
        }
    }
    if (max_bytes > 0) {
        for (std::size_t i = 0;
             i < entries.size() && total > max_bytes; ++i) {
            if (!gone[i] && evict(entries[i]))
                gone[i] = 1;
        }
    }
    stats.bytesKept = total;
    return stats;
}

// ---------------------------------------------------------------
// SweepJournal
// ---------------------------------------------------------------

SweepJournal::SweepJournal(std::string journal_path)
    : journalPath(std::move(journal_path))
{
}

std::map<std::string, JsonValue>
SweepJournal::open(const std::string &sweep_hash_value,
                   std::size_t jobs)
{
    std::map<std::string, JsonValue> completed;

    std::string text;
    {
        std::ifstream in(journalPath);
        if (in) {
            std::stringstream buffer;
            buffer << in.rdbuf();
            text = buffer.str();
        }
    }

    bool header_ok = false;
    std::size_t valid_bytes = 0;
    std::size_t pos = 0;
    bool first = true;
    while (true) {
        const std::size_t newline = text.find('\n', pos);
        if (newline == std::string::npos)
            break; // no terminator: a torn tail (or empty file)
        const std::string line = text.substr(pos, newline - pos);
        try {
            const JsonValue record = JsonValue::parse(line);
            if (first) {
                if (!record.isObject() || !record.has("schema") ||
                    record.at("schema").asString() !=
                        kSweepJournalSchemaV1 ||
                    record.at("sweep_hash").asString() !=
                        sweep_hash_value ||
                    record.at("jobs").asUint() != jobs) {
                    break; // different campaign: restart below
                }
                header_ok = true;
            } else {
                // A later record of a job supersedes an earlier
                // one (a stale entry that was re-executed).
                completed.insert_or_assign(
                    record.at("job_hash").asString(),
                    record.at("run"));
            }
        } catch (const std::exception &) {
            break; // torn or corrupt: drop this line and the rest
        }
        valid_bytes = newline + 1;
        pos = newline + 1;
        first = false;
    }

    std::error_code error;
    if (!header_ok) {
        // A different campaign (or a corrupt header) owns the
        // file: restart it. Durable results live in the cache, so
        // nothing is lost beyond this journal's replay shortcut.
        completed.clear();
        out.open(journalPath, std::ios::trunc);
        JsonValue header = JsonValue::object();
        header.set("schema", kSweepJournalSchemaV1);
        header.set("sweep_hash", sweep_hash_value);
        header.set("jobs", std::uint64_t(jobs));
        header.write(out, 0);
        out << "\n";
        out.flush();
        return completed;
    }

    // Truncate the torn tail (if any) so appends keep the file
    // valid JSONL, then position at the end.
    if (valid_bytes < text.size())
        fs::resize_file(journalPath, valid_bytes, error);
    out.open(journalPath, std::ios::app);
    return completed;
}

void
SweepJournal::append(const std::string &job_hash,
                     const std::string &key,
                     const std::string &source, double wall_seconds,
                     const JsonValue &run)
{
    if (!out.is_open())
        out.open(journalPath, std::ios::app);
    JsonValue record = JsonValue::object();
    record.set("job_hash", job_hash);
    record.set("key", key);
    record.set("source", source);
    record.set("wall_seconds", wall_seconds);
    record.set("run", run);
    record.write(out, 0);
    out << "\n";
    out.flush();
    ++appendCount;
}

// ---------------------------------------------------------------
// SweepService
// ---------------------------------------------------------------

const char *
jobSourceName(JobSource source)
{
    switch (source) {
      case JobSource::Executed: return "executed";
      case JobSource::Cache: return "cache";
      case JobSource::Journal: return "journal";
    }
    return "unknown";
}

std::vector<CampaignJob>
experimentJobs(const std::vector<ExperimentRequest> &requests)
{
    std::vector<CampaignJob> jobs;
    jobs.reserve(requests.size());
    for (const ExperimentRequest &request : requests) {
        CampaignJob job;
        JsonValue identity = jobIdentityJson(request);
        job.hash = ContentHash::of(identity.dump(0));
        // Requests that differ only in scheme and label compile the
        // same streams.
        identity.set("scheme", "");
        identity.set("label", "");
        job.group = ContentHash::of(identity.dump(0));
        job.key = request.key();
        job.produce = [request](EnumerationShare *share) {
            return SweepResultWriter::entryToJson(
                runExperiment(request, share));
        };
        // An entry the current reader rejects, such as one written
        // before a summary field became required, is stale.
        job.servable = [](const JsonValue &entry) {
            try {
                SweepResultWriter::entryFromJson(entry);
                return true;
            } catch (const std::exception &) {
                return false;
            }
        };
        jobs.push_back(std::move(job));
    }
    return jobs;
}

unsigned
campaignWorkers(unsigned requested, std::size_t pending)
{
    const unsigned wanted =
        requested != 0 ? requested : std::thread::hardware_concurrency();
    return static_cast<unsigned>(
        std::max<std::size_t>(1, std::min<std::size_t>(wanted, pending)));
}

SweepService::SweepService(SweepServiceOptions service_options)
    : serviceOptions(std::move(service_options))
{
}

JsonValue
SweepService::run(const char *schema,
                  const std::vector<CampaignJob> &jobs,
                  const Emit &emit)
{
    const std::size_t count = jobs.size();
    lastStats = SweepServiceStats{};
    lastStats.jobs = count;

    // Owner = the first index of each distinct hash; duplicates
    // reuse the owner's entry (identical identity implies an
    // identical result).
    std::vector<std::string> hashes(count);
    std::map<std::string, std::vector<std::size_t>> by_hash;
    for (std::size_t i = 0; i < count; ++i) {
        hashes[i] = jobs[i].hash;
        by_hash[hashes[i]].push_back(i);
    }

    std::unique_ptr<SweepCache> cache;
    if (!serviceOptions.cacheDir.empty())
        cache = std::make_unique<SweepCache>(
            serviceOptions.cacheDir);

    std::unique_ptr<SweepJournal> journal;
    std::map<std::string, JsonValue> replayed;
    if (!serviceOptions.journalPath.empty()) {
        journal = std::make_unique<SweepJournal>(
            serviceOptions.journalPath);
        replayed = journal->open(sweepHash(hashes), count);
    }

    std::vector<JsonValue> entries(count);
    std::vector<char> ready(count, 0);
    std::vector<JobSource> sources(count, JobSource::Executed);
    std::vector<double> walls(count, 0.0);

    // Emission frontier: emit() fires for index i only once every
    // j <= i is ready, so consumers see a strictly growing prefix.
    std::size_t frontier = 0;
    const auto drain = [&] {
        while (frontier < count && ready[frontier]) {
            if (emit) {
                SweepJobReport report;
                report.index = frontier;
                report.key = jobs[frontier].key;
                report.hash = hashes[frontier];
                report.source = sources[frontier];
                report.wallSeconds = walls[frontier];
                emit(report, entries[frontier]);
            }
            ++frontier;
        }
    };

    const auto resolve = [&](const std::string &hash, JsonValue entry,
                             JobSource source, double wall) {
        const std::vector<std::size_t> &indices = by_hash[hash];
        for (const std::size_t index : indices) {
            entries[index] = entry;
            sources[index] = source;
            walls[index] = index == indices.front() ? wall : 0.0;
            ready[index] = 1;
        }
        lastStats.deduplicated += indices.size() - 1;
        drain();
    };

    // Pass 1: satisfy whatever the journal and cache already hold.
    // An entry the job does not accept is a miss: it re-executes
    // and is overwritten instead of being served.
    std::vector<std::size_t> pending;
    for (const auto &[hash, indices] : by_hash) {
        const CampaignJob &job = jobs[indices.front()];
        if (const auto hit = replayed.find(hash);
            hit != replayed.end() && job.servable(hit->second)) {
            lastStats.journalHits += indices.size();
            resolve(hash, hit->second, JobSource::Journal, 0.0);
            continue;
        }
        if (cache) {
            if (std::optional<JsonValue> entry = cache->lookup(hash);
                entry && job.servable(*entry)) {
                lastStats.cacheHits += indices.size();
                if (journal)
                    journal->append(hash, job.key, "cache", 0.0,
                                    *entry);
                resolve(hash, std::move(*entry), JobSource::Cache,
                        0.0);
                continue;
            }
        }
        pending.push_back(indices.front());
    }

    // Pass 2: execute only the delta, group by group, in hash order
    // within a group (pending is in hash order and the sort is
    // stable). The pending jobs of a group of two or more share one
    // EnumerationShare, released when the group's last one
    // completes; with each group contiguous in the claim order, a
    // worker keeps at most one group's enumeration alive.
    std::map<std::string, std::size_t> group_sizes;
    for (const std::size_t index : pending) {
        if (!jobs[index].group.empty())
            ++group_sizes[jobs[index].group];
    }
    struct Group
    {
        explicit Group(std::size_t size) : left(size) {}
        EnumerationShare share;
        std::size_t left;
    };
    std::map<std::string, Group> groups;
    std::vector<Group *> group_of(pending.size(), nullptr);
    for (std::size_t slot = 0; slot < pending.size(); ++slot) {
        const std::string &group = jobs[pending[slot]].group;
        if (!group.empty() && group_sizes[group] > 1) {
            group_of[slot] =
                &groups.try_emplace(group, group_sizes[group])
                     .first->second;
        }
    }
    std::vector<std::size_t> order(pending.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return jobs[pending[a]].group <
                                jobs[pending[b]].group;
                     });

    // Each worker claims the next job of that order; completions
    // serialise on one mutex, so cache, journal, frontier and group
    // state need no other lock. emit() runs under it too, which
    // keeps reports in request order and never concurrent.
    std::atomic<std::size_t> next{0};
    std::mutex completion;
    std::vector<std::exception_ptr> errors(pending.size());
    const auto worker = [&] {
        for (;;) {
            const std::size_t claimed =
                next.fetch_add(1, std::memory_order_relaxed);
            if (claimed >= order.size())
                return;
            const std::size_t slot = order[claimed];
            const CampaignJob &job = jobs[pending[slot]];
            Group *group = group_of[slot];
            try {
                const auto start = std::chrono::steady_clock::now();
                JsonValue entry =
                    job.produce(group ? &group->share : nullptr);
                const double wall =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();

                const std::lock_guard<std::mutex> lock(completion);
                if (cache)
                    cache->store(job.hash, job.key, entry);
                if (journal)
                    journal->append(job.hash, job.key, "executed",
                                    wall, entry);
                ++lastStats.executed;
                resolve(job.hash, std::move(entry),
                        JobSource::Executed, wall);
                if (serviceOptions.crashAfterAppends != 0 && journal &&
                    journal->appended() >=
                        serviceOptions.crashAfterAppends) {
                    // Fault injection: vanish mid-campaign with no
                    // cleanup, exactly like a SIGKILL would.
                    std::_Exit(137);
                }
            } catch (...) {
                // Kept for the rethrow below: an exception must not
                // leave a worker thread.
                errors[slot] = std::current_exception();
            }
            if (group != nullptr) {
                const std::lock_guard<std::mutex> lock(completion);
                if (--group->left == 0)
                    group->share.release();
            }
        }
    };
    const unsigned workers =
        campaignWorkers(serviceOptions.jobs, pending.size());
    if (workers == 1) {
        worker();
    } else {
        // A jthread joins when destroyed, on the exception path too.
        std::vector<std::jthread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w)
            pool.emplace_back(worker);
    }

    if (cache)
        lastStats.quarantined = cache->quarantined();
    for (const auto &[key, group] : groups) {
        lastStats.enumerations += group.share.builds();
        lastStats.enumerationReuses += group.share.reuses();
    }

    // Deterministic failure: the lowest failing hash wins, whatever
    // order the workers finished in.
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }

    JsonValue runs = JsonValue::array();
    for (std::size_t i = 0; i < count; ++i)
        runs.push(std::move(entries[i]));
    JsonValue document = JsonValue::object();
    document.set("schema", schema);
    document.set("runs", std::move(runs));
    return document;
}

} // namespace pomtlb
