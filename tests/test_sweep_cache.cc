/**
 * @file
 * Tests for the sweep-at-scale layer (sim/sweep_cache.hh +
 * sim/sweep_serve.hh): content hashing, the on-disk result cache,
 * the checkpoint journal, crash/resume byte-identity, the serve
 * protocol, and docs/sweep-service.md coverage.
 */

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "campaign_fixtures.hh"
#include "common/content_hash.hh"
#include "sim/scheme_registry.hh"
#include "sim/sweep_serve.hh"
#include "trace/profile.hh"
#include "trace/tracepack.hh"

namespace fs = std::filesystem;

namespace pomtlb
{
namespace
{

/** A deliberately tiny configuration so service tests stay fast. */
ExperimentConfig
quickConfig()
{
    ExperimentConfig config;
    config.system.numCores = 2;
    config.engine.refsPerCore = 400;
    config.engine.warmupRefsPerCore = 200;
    return config;
}

std::vector<ExperimentRequest>
quickRequests()
{
    const ExperimentConfig config = quickConfig();
    return {ExperimentRequest::of("mcf", "POM-TLB", config),
            ExperimentRequest::of("mcf", "Baseline", config)};
}

// ----------------------------------------------------------------
// Content hashing
// ----------------------------------------------------------------

TEST(ContentHash, EmptyInputIsTheOffsetBasis)
{
    EXPECT_EQ(ContentHash::of(""),
              "6c62272e07bb014262b821756295c58d");
}

TEST(ContentHash, IncrementalMatchesOneShot)
{
    ContentHash hash;
    hash.update("hello ").update("world");
    EXPECT_EQ(hash.hexDigest(), ContentHash::of("hello world"));
    EXPECT_NE(ContentHash::of("hello world"),
              ContentHash::of("hello worlD"));
}

TEST(JobHash, StableAcrossProcesses)
{
    // Golden digest of the all-defaults mcf/POM-TLB job. A change
    // here means the identity recipe changed: bump
    // kSweepCacheSchemaV1 (old caches must not be served) and
    // update docs/sweep-service.md.
    const ExperimentRequest request =
        ExperimentRequest::of("mcf", "POM-TLB");
    EXPECT_EQ(jobHash(request),
              "fb56d45d06d159354b6e733d8edde6bc");
}

TEST(JobHash, AliasesCanonicaliseToTheSameHash)
{
    EXPECT_EQ(jobHash(ExperimentRequest::of("mcf", "pom")),
              jobHash(ExperimentRequest::of("mcf", "POM-TLB")));
}

TEST(JobHash, EveryRelevantKnobChangesTheHash)
{
    const ExperimentRequest base =
        ExperimentRequest::of("mcf", "pom");
    const std::string digest = jobHash(base);

    EXPECT_NE(digest, jobHash(ExperimentRequest::of("gups", "pom")));
    EXPECT_NE(digest, jobHash(ExperimentRequest::of("mcf", "tsb")));
    EXPECT_NE(digest,
              jobHash(ExperimentRequest(base).withLabel("v2")));
    EXPECT_NE(digest, jobHash(ExperimentRequest(base).withSeed(9)));
    EXPECT_NE(digest, jobHash(ExperimentRequest(base).withCores(4)));
    EXPECT_NE(digest,
              jobHash(ExperimentRequest(base).withPomCapacityMb(64)));
    EXPECT_NE(digest,
              jobHash(ExperimentRequest(base).withComponentStats()));
    EXPECT_NE(digest,
              jobHash(ExperimentRequest(base).withMode(
                  ExecMode::Native)));
}

TEST(JobHash, TracePackContentJoinsTheIdentity)
{
    ScratchDir scratch("jobhash-pack");
    const std::string pack = scratch.sub("t.pack");
    const auto writePack = [&](std::uint64_t first_vaddr) {
        TracePackWriter writer(pack, {"core0"});
        TraceRecord record;
        record.vaddr = first_vaddr;
        writer.append(0, record);
        record.vaddr = 0x2000;
        writer.append(0, record);
        writer.close();
    };

    // A pack-driven job hashes differently from the generator-driven
    // job with the same knobs.
    writePack(0x1000);
    ExperimentConfig config;
    config.engine.tracePackPath = pack;
    const ExperimentRequest replay =
        ExperimentRequest::of("mcf", "pom", config);
    const std::string digest = jobHash(replay);
    EXPECT_NE(digest, jobHash(ExperimentRequest::of("mcf", "pom")));

    // Same knobs, same pack content (even rewritten) -> same hash;
    // one changed record -> a different hash. The path itself is
    // not the identity, the content hash is.
    writePack(0x1000);
    EXPECT_EQ(digest, jobHash(replay));
    writePack(0x1001);
    EXPECT_NE(digest, jobHash(replay));
}

// ----------------------------------------------------------------
// SweepCache
// ----------------------------------------------------------------

JsonValue
fakeRun(const std::string &benchmark)
{
    JsonValue run = JsonValue::object();
    run.set("benchmark", benchmark);
    run.set("scheme", "POM-TLB");
    return run;
}

TEST(SweepCache, StoreThenLookupRoundTrips)
{
    ScratchDir scratch("cache-roundtrip");
    SweepCache cache(scratch.sub("cache"));
    const std::string hash = ContentHash::of("job one");

    EXPECT_FALSE(cache.lookup(hash).has_value());
    cache.store(hash, "mcf/POM-TLB", fakeRun("mcf"));
    const auto entry = cache.lookup(hash);
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(*entry, fakeRun("mcf"));
    EXPECT_EQ(cache.quarantined(), 0u);

    // The published entry is a valid self-describing document.
    std::ifstream in(cache.entryPath(hash));
    std::stringstream buffer;
    buffer << in.rdbuf();
    const JsonValue blob = JsonValue::parse(buffer.str());
    EXPECT_EQ(blob.at("schema").asString(), kSweepCacheSchemaV1);
    EXPECT_EQ(blob.at("job_hash").asString(), hash);
    EXPECT_EQ(blob.at("key").asString(), "mcf/POM-TLB");
}

TEST(SweepCache, CorruptEntriesAreQuarantinedNotServed)
{
    ScratchDir scratch("cache-corrupt");
    const std::string dir = scratch.sub("cache");
    SweepCache cache(dir);
    const std::string truncated = ContentHash::of("truncated");
    const std::string mismatched = ContentHash::of("mismatched");

    cache.store(truncated, "a/b", fakeRun("a"));
    cache.store(mismatched, "c/d", fakeRun("c"));

    // Torn blob: unparsable JSON.
    {
        std::ofstream out(cache.entryPath(truncated),
                          std::ios::trunc);
        out << "{\"schema\": \"pomtlb-swee";
    }
    // Parsable blob filed under the wrong hash.
    {
        std::ifstream in(cache.entryPath(mismatched));
        std::stringstream buffer;
        buffer << in.rdbuf();
        std::ofstream out(cache.entryPath(truncated) + ".tmp");
        out << buffer.str();
        out.close();
        fs::rename(cache.entryPath(mismatched),
                   cache.entryPath(truncated));
    }

    EXPECT_FALSE(cache.lookup(truncated).has_value());
    EXPECT_EQ(cache.quarantined(), 1u);
    // Quarantined for post-mortem, not deleted.
    EXPECT_FALSE(fs::is_empty(fs::path(dir) / "quarantine"));
    // A subsequent store repairs the slot.
    cache.store(truncated, "a/b", fakeRun("a"));
    EXPECT_TRUE(cache.lookup(truncated).has_value());
}

// ----------------------------------------------------------------
// sweepCacheGc
// ----------------------------------------------------------------

TEST(SweepCacheGc, EvictsByAgeThenOldestFirstBySize)
{
    ScratchDir scratch("cache-gc");
    const std::string dir = scratch.sub("cache");
    SweepCache cache(dir);
    const std::string a = ContentHash::of("a");
    const std::string b = ContentHash::of("b");
    const std::string c = ContentHash::of("c");
    cache.store(a, "a/x", fakeRun("a"));
    cache.store(b, "b/x", fakeRun("b"));
    cache.store(c, "c/x", fakeRun("c"));

    const auto now = fs::file_time_type::clock::now();
    fs::last_write_time(cache.entryPath(a),
                        now - std::chrono::hours(10));
    fs::last_write_time(cache.entryPath(b),
                        now - std::chrono::hours(5));

    // Age pass: only the 10-hour-old entry exceeds 8 hours.
    SweepCacheGcStats stats = sweepCacheGc(dir, 0, 8 * 3600);
    EXPECT_EQ(stats.scanned, 3u);
    EXPECT_EQ(stats.evicted, 1u);
    EXPECT_GT(stats.bytesFreed, 0u);
    EXPECT_FALSE(cache.lookup(a).has_value());
    EXPECT_TRUE(cache.lookup(b).has_value());
    EXPECT_TRUE(cache.lookup(c).has_value());

    // Size pass: room for exactly the newest entry, so the older
    // survivor goes first.
    const std::uint64_t newest = fs::file_size(cache.entryPath(c));
    stats = sweepCacheGc(dir, newest, 0);
    EXPECT_EQ(stats.scanned, 2u);
    EXPECT_EQ(stats.evicted, 1u);
    EXPECT_EQ(stats.bytesKept, newest);
    EXPECT_FALSE(cache.lookup(b).has_value());
    EXPECT_TRUE(cache.lookup(c).has_value());

    // No limits: a pure scan, nothing evicted.
    stats = sweepCacheGc(dir, 0, 0);
    EXPECT_EQ(stats.scanned, 1u);
    EXPECT_EQ(stats.evicted, 0u);
}

TEST(SweepCacheGc, DryRunReportsTheEvictionWithoutRemoving)
{
    ScratchDir scratch("cache-gc-dry");
    const std::string dir = scratch.sub("cache");
    SweepCache cache(dir);
    const std::string a = ContentHash::of("a");
    const std::string b = ContentHash::of("b");
    cache.store(a, "a/x", fakeRun("a"));
    cache.store(b, "b/x", fakeRun("b"));
    const auto now = fs::file_time_type::clock::now();
    fs::last_write_time(cache.entryPath(a),
                        now - std::chrono::hours(10));

    // The dry run reports exactly what the real pass would do...
    const SweepCacheGcStats dry =
        sweepCacheGc(dir, 0, 8 * 3600, /*dry_run=*/true);
    EXPECT_EQ(dry.scanned, 2u);
    EXPECT_EQ(dry.evicted, 1u);
    EXPECT_GT(dry.bytesFreed, 0u);
    // ...but removes nothing.
    EXPECT_TRUE(cache.lookup(a).has_value());
    EXPECT_TRUE(cache.lookup(b).has_value());

    // The real pass then matches the dry run's accounting.
    const SweepCacheGcStats wet = sweepCacheGc(dir, 0, 8 * 3600);
    EXPECT_EQ(wet.evicted, dry.evicted);
    EXPECT_EQ(wet.bytesFreed, dry.bytesFreed);
    EXPECT_EQ(wet.bytesKept, dry.bytesKept);
    EXPECT_FALSE(cache.lookup(a).has_value());
    EXPECT_TRUE(cache.lookup(b).has_value());
}

TEST(SweepCacheGc, NeverTouchesQuarantineOrInFlightTemporaries)
{
    ScratchDir scratch("cache-gc-quarantine");
    const std::string dir = scratch.sub("cache");
    SweepCache cache(dir);
    const std::string kept = ContentHash::of("kept");
    const std::string corrupt = ContentHash::of("corrupt");
    cache.store(kept, "a/b", fakeRun("a"));
    cache.store(corrupt, "c/d", fakeRun("c"));
    {
        std::ofstream out(cache.entryPath(corrupt), std::ios::trunc);
        out << "{\"schema\": \"pomtlb-swee";
    }
    // The corrupt entry moves to quarantine/ on lookup.
    EXPECT_FALSE(cache.lookup(corrupt).has_value());
    EXPECT_EQ(cache.quarantined(), 1u);
    // A hidden in-flight temporary, as an interrupted store leaves.
    {
        std::ofstream out((fs::path(dir) / ".tmp-inflight").string());
        out << "partial";
    }

    // Evict everything evictable: quarantined evidence and the
    // temporary survive, and neither is even scanned.
    const SweepCacheGcStats stats = sweepCacheGc(dir, 1, 0);
    EXPECT_EQ(stats.scanned, 1u);
    EXPECT_EQ(stats.evicted, 1u);
    EXPECT_FALSE(cache.lookup(kept).has_value());
    EXPECT_FALSE(fs::is_empty(fs::path(dir) / "quarantine"));
    EXPECT_TRUE(fs::exists(fs::path(dir) / ".tmp-inflight"));
}

// ----------------------------------------------------------------
// SweepJournal
// ----------------------------------------------------------------

TEST(SweepJournal, ReplaysCompletedJobsAndSurvivesTornTails)
{
    ScratchDir scratch("journal");
    const std::string path = scratch.sub("sweep.journal");
    const std::string campaign = ContentHash::of("campaign");

    {
        SweepJournal journal(path);
        EXPECT_TRUE(journal.open(campaign, 3).empty());
        journal.append("hash-a", "mcf/POM-TLB", "executed", 1.5,
                       fakeRun("mcf"));
        journal.append("hash-b", "mcf/Baseline", "executed", 2.5,
                       fakeRun("mcf"));
        EXPECT_EQ(journal.appended(), 2u);
    }
    // Simulate a crash mid-append: a torn trailing record.
    {
        std::ofstream out(path, std::ios::app);
        out << "{\"job_hash\": \"hash-c\", \"ru";
    }
    {
        SweepJournal journal(path);
        const auto replayed = journal.open(campaign, 3);
        EXPECT_EQ(replayed.size(), 2u);
        EXPECT_TRUE(replayed.count("hash-a"));
        EXPECT_TRUE(replayed.count("hash-b"));
        EXPECT_FALSE(replayed.count("hash-c"));
        // The torn tail was truncated: appends stay valid JSONL.
        journal.append("hash-c", "gups/POM-TLB", "executed", 0.5,
                       fakeRun("gups"));
    }
    {
        SweepJournal journal(path);
        EXPECT_EQ(journal.open(campaign, 3).size(), 3u);
    }
    // A different campaign restarts the file instead of replaying.
    {
        SweepJournal journal(path);
        EXPECT_TRUE(
            journal.open(ContentHash::of("other"), 3).empty());
    }
    {
        SweepJournal journal(path);
        EXPECT_TRUE(journal.open(campaign, 3).empty());
    }
}

TEST(SweepJournal, RecordsCarryTheRealWallTime)
{
    ScratchDir scratch("journal-wall");
    const std::string path = scratch.sub("sweep.journal");
    SweepJournal journal(path);
    journal.open(ContentHash::of("c"), 1);
    journal.append("hash-a", "mcf/POM-TLB", "executed", 3.25,
                   fakeRun("mcf"));

    std::ifstream in(path);
    std::string header, record;
    std::getline(in, header);
    std::getline(in, record);
    const JsonValue head = JsonValue::parse(header);
    EXPECT_EQ(head.at("schema").asString(), kSweepJournalSchemaV1);
    const JsonValue rec = JsonValue::parse(record);
    EXPECT_EQ(rec.at("source").asString(), "executed");
    EXPECT_DOUBLE_EQ(rec.at("wall_seconds").asNumber(), 3.25);
}

// ----------------------------------------------------------------
// SweepService
// ----------------------------------------------------------------

TEST(SweepService, ColdRunMatchesThePlainRunnerByteForByte)
{
    const std::vector<ExperimentRequest> requests = quickRequests();
    SweepService service(SweepServiceOptions{});
    const JsonValue document = service.run(requests);

    std::vector<ExperimentResult> results;
    for (const ExperimentRequest &request : requests) {
        results.push_back(runExperiment(request));
        results.back().wallSeconds = 0.0; // the document's identity form
    }
    EXPECT_EQ(document.dump(2),
              SweepResultWriter::toJson(results).dump(2));
    EXPECT_EQ(service.stats().jobs, requests.size());
    EXPECT_EQ(service.stats().executed, requests.size());
}

TEST(SweepService, WarmRunExecutesNothingAndIsByteIdentical)
{
    ScratchDir scratch("service-warm");
    const std::vector<ExperimentRequest> requests = quickRequests();

    SweepServiceOptions options;
    options.cacheDir = scratch.sub("cache");
    SweepService cold(options);
    const JsonValue first = cold.run(requests);
    EXPECT_EQ(cold.stats().executed, requests.size());

    SweepService warm(options);
    const JsonValue second = warm.run(requests);
    EXPECT_EQ(warm.stats().executed, 0u);
    EXPECT_EQ(warm.stats().cacheHits, requests.size());
    EXPECT_EQ(first.dump(2), second.dump(2));
}

TEST(SweepService, DuplicateJobsExecuteOnce)
{
    ScratchDir scratch("service-dedup");
    std::vector<ExperimentRequest> requests = quickRequests();
    requests.push_back(requests.front());

    SweepServiceOptions options;
    options.cacheDir = scratch.sub("cache");
    SweepService service(options);
    const JsonValue document = service.run(requests);
    EXPECT_EQ(service.stats().jobs, 3u);
    EXPECT_EQ(service.stats().executed, 2u);
    EXPECT_EQ(service.stats().deduplicated, 1u);
    EXPECT_EQ(document.at("runs").at(std::size_t{0}).dump(0),
              document.at("runs").at(std::size_t{2}).dump(0));
}

/** Rewrite the journal at @p path so job @p hash's records hold @p run. */
void
replaceJournalRun(const std::string &path, const std::string &hash,
                  const JsonValue &run)
{
    std::string text;
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line)) {
            JsonValue record = JsonValue::parse(line);
            if (record.has("job_hash") &&
                record.at("job_hash").asString() == hash)
                record.set("run", run);
            text += record.dump(0) + "\n";
        }
    }
    std::ofstream(path) << text;
}

TEST(SweepService, EntryWithoutRunTotalsIsReExecuted)
{
    // A cache written before summary.instructions and
    // summary.cycles existed has the same job hashes. Such an entry
    // must re-execute, never reach a reader as partial data.
    ScratchDir scratch("service-stale");
    const std::vector<ExperimentRequest> requests = quickRequests();
    SweepServiceOptions options;
    options.cacheDir = scratch.sub("cache");
    SweepService cold(options);
    const JsonValue first = cold.run(requests);

    SweepCache cache(options.cacheDir);
    const std::string hash = jobHash(requests[0]);
    const JsonValue current = *cache.lookup(hash);
    std::string text = current.dump(0);
    for (const char *key : {"\"instructions\":", "\"cycles\":"}) {
        const std::size_t at = text.find(key);
        ASSERT_NE(at, std::string::npos) << key;
        text.erase(at, text.find(',', at) + 1 - at);
    }
    const JsonValue stale = JsonValue::parse(text);
    cache.store(hash, requests[0].key(), stale);
    EXPECT_THROW(SweepResultWriter::entryFromJson(stale),
                 std::out_of_range);

    SweepService warm(options);
    const JsonValue second = warm.run(requests);
    EXPECT_EQ(warm.stats().executed, 1u);
    EXPECT_EQ(warm.stats().cacheHits, requests.size() - 1);
    EXPECT_EQ(first.dump(2), second.dump(2));
    // The re-executed result replaced the stale entry.
    EXPECT_EQ(*cache.lookup(hash), current);

    // The same for a journal record: the stale record re-executes
    // once, and the fresh record appended after it wins every later
    // replay.
    SweepServiceOptions journaled;
    journaled.journalPath = scratch.sub("sweep.journal");
    SweepService(journaled).run(requests);
    replaceJournalRun(journaled.journalPath, hash, stale);

    SweepService resumed(journaled);
    EXPECT_EQ(resumed.run(requests).dump(2), first.dump(2));
    EXPECT_EQ(resumed.stats().executed, 1u);
    EXPECT_EQ(resumed.stats().journalHits, requests.size() - 1);
    SweepService replayed(journaled);
    EXPECT_EQ(replayed.run(requests).dump(2), first.dump(2));
    EXPECT_EQ(replayed.stats().executed, 0u);
    EXPECT_EQ(replayed.stats().journalHits, requests.size());
}

TEST(SweepService, HollowScenarioEntryIsReExecuted)
{
    // A scenario document without the members its readers use (here
    // only a schema) is stale, like a sweep entry without run
    // totals: the job re-executes instead of reaching `pomtlb
    // scenario` or a serve client.
    ScratchDir scratch("service-hollow-scenario");
    const std::vector<CampaignJob> jobs = scenarioJobs(
        {campaignScenario(2), campaignScenario(4)});
    SweepServiceOptions options;
    options.cacheDir = scratch.sub("cache");
    options.journalPath = scratch.sub("scenario.journal");
    const std::string cold =
        SweepService(options).run(kScenarioSchemaV1, jobs).dump(2);

    JsonValue hollow = JsonValue::object();
    hollow.set("schema", kScenarioSchemaV1);
    const std::string &hash = jobs[1].hash;
    SweepCache(options.cacheDir).store(hash, jobs[1].key, hollow);
    replaceJournalRun(options.journalPath, hash, hollow);

    SweepService warm(options);
    EXPECT_EQ(warm.run(kScenarioSchemaV1, jobs).dump(2), cold);
    EXPECT_EQ(warm.stats().executed, 1u);
    EXPECT_EQ(warm.stats().journalHits, 1u);
}

TEST(SweepService, EmitsEveryJobInRequestOrder)
{
    ScratchDir scratch("service-emit");
    const std::vector<ExperimentRequest> requests = quickRequests();
    SweepServiceOptions options;
    options.cacheDir = scratch.sub("cache");
    options.jobs = 2;

    std::vector<std::size_t> order;
    std::vector<std::string> sources;
    SweepService service(options);
    service.run(requests, [&](const SweepJobReport &report,
                              const JsonValue &run) {
        order.push_back(report.index);
        sources.push_back(jobSourceName(report.source));
        EXPECT_EQ(report.key, requests[report.index].key());
        EXPECT_EQ(report.hash, jobHash(requests[report.index]));
        EXPECT_EQ(run.at("benchmark").asString(),
                  requests[report.index].benchmark);
    });
    ASSERT_EQ(order.size(), requests.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
    EXPECT_EQ(sources, (std::vector<std::string>{
                           "executed", "executed"}));

    SweepService warm(options);
    sources.clear();
    warm.run(requests,
             [&](const SweepJobReport &report, const JsonValue &) {
                 sources.push_back(jobSourceName(report.source));
                 EXPECT_EQ(report.wallSeconds, 0.0);
             });
    EXPECT_EQ(sources,
              (std::vector<std::string>{"cache", "cache"}));
}

TEST(SweepService, KilledCampaignResumesByteIdentical)
{
    // ScenarioCampaign.KilledCampaignResumesByteIdentical checks the
    // same guarantee for scenario jobs.
    expectKilledCampaignResumesByteIdentical(sweepCampaign());
}

// ----------------------------------------------------------------
// ServeSession
// ----------------------------------------------------------------

/** Drive one serve session over a scripted request stream. */
std::vector<JsonValue>
serve(const std::string &script, const ServeOptions &options)
{
    std::istringstream in(script);
    std::ostringstream out;
    ServeSession session(in, out, options);
    session.runToCompletion();

    std::vector<JsonValue> events;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line))
        events.push_back(JsonValue::parse(line));
    return events;
}

TEST(ServeSession, AnswersPingCatalogAndShutdown)
{
    const std::vector<JsonValue> events = serve(
        "{\"op\": \"ping\"}\n"
        "\n"
        "{\"op\": \"list\"}\n"
        "{\"op\": \"shutdown\"}\n"
        "{\"op\": \"ping\"}\n", // after shutdown: never read
        ServeOptions{});
    ASSERT_EQ(events.size(), 4u);
    for (const JsonValue &event : events)
        EXPECT_EQ(event.at("schema").asString(), kSweepServeSchemaV1);
    EXPECT_EQ(events[0].at("event").asString(), "ready");
    EXPECT_EQ(events[1].at("event").asString(), "pong");
    EXPECT_EQ(events[2].at("event").asString(), "catalog");
    EXPECT_EQ(events[2].at("benchmarks").size(),
              ProfileRegistry::names().size());
    EXPECT_EQ(events[2].at("schemes").size(),
              SchemeRegistry::global().names().size());
    EXPECT_EQ(events[3].at("event").asString(), "bye");
}

TEST(ServeSession, ReportsErrorsAndKeepsServing)
{
    const std::vector<JsonValue> events = serve(
        "this is not json\n"
        "{\"op\": \"warp\"}\n"
        "{\"op\": \"run\", \"benchmark\": \"nope\", "
        "\"scheme\": \"pom\"}\n"
        "{\"op\": \"run\", \"benchmark\": \"mcf\", "
        "\"scheme\": \"pom\", \"cores\": 0}\n"
        // Counts that do not fit the value they set: 2^32 + 2 cores
        // would run as 2, 2^44 + 16 MB of POM-TLB as 16 MB, and
        // 2^32 + 1 tenants as 1.
        "{\"op\": \"run\", \"benchmark\": \"mcf\", "
        "\"scheme\": \"pom\", \"cores\": 4294967298, "
        "\"refs_per_core\": 200, \"warmup_refs_per_core\": 100}\n"
        "{\"op\": \"run\", \"benchmark\": \"mcf\", "
        "\"scheme\": \"pom\", \"cores\": 1, "
        "\"pom_capacity_mb\": 17592186044432, "
        "\"refs_per_core\": 200, \"warmup_refs_per_core\": 100}\n"
        "{\"op\": \"scenario\", \"tenants\": [4294967297], "
        "\"cores\": 1, \"refs_per_core\": 200, "
        "\"warmup_refs_per_core\": 100}\n"
        "{\"op\": \"ping\"}\n",
        ServeOptions{});
    ASSERT_EQ(events.size(), 9u);
    EXPECT_EQ(events[1].at("event").asString(), "error");
    EXPECT_EQ(events[2].at("event").asString(), "error");
    EXPECT_NE(events[2].at("message").asString().find("warp"),
              std::string::npos);
    EXPECT_EQ(events[3].at("event").asString(), "error");
    EXPECT_NE(events[3].at("message").asString().find("nope"),
              std::string::npos);
    // A configuration that fails validation is an error event, not
    // the end of the session.
    EXPECT_EQ(events[4].at("event").asString(), "error");
    EXPECT_NE(events[4].at("message").asString().find("core"),
              std::string::npos);
    // An out-of-range count is an error event naming its field.
    const std::pair<std::size_t, std::string> named[] = {
        {5, "'cores'"}, {6, "'pom_capacity_mb'"}, {7, "'tenants'"}};
    for (const auto &[index, field] : named) {
        EXPECT_EQ(events[index].at("event").asString(), "error");
        EXPECT_NE(events[index].at("message").asString().find(field),
                  std::string::npos)
            << events[index].at("message").asString();
    }
    EXPECT_EQ(events[8].at("event").asString(), "pong");
}

TEST(ServeSession, StreamsCampaignsAndServesRepeatsFromCache)
{
    ScratchDir scratch("serve-sweep");
    ServeOptions options;
    options.cacheDir = scratch.sub("cache");
    options.journalDir = scratch.sub("journals");

    const std::string request =
        "{\"op\": \"sweep\", \"benchmarks\": [\"mcf\"], "
        "\"schemes\": [\"pom\", \"baseline\"], \"cores\": 2, "
        "\"refs_per_core\": 400, \"warmup_refs_per_core\": 200}\n";

    const std::vector<JsonValue> first =
        serve(request + "{\"op\": \"shutdown\"}\n", options);
    // ready, two jobs, sweep-end, bye.
    ASSERT_EQ(first.size(), 5u);
    EXPECT_EQ(first[1].at("event").asString(), "job");
    EXPECT_EQ(first[1].at("index").asUint(), 0u);
    EXPECT_EQ(first[1].at("key").asString(), "mcf/POM-TLB");
    EXPECT_EQ(first[1].at("source").asString(), "executed");
    EXPECT_EQ(first[1].at("run").at("scheme").asString(),
              "POM-TLB");
    EXPECT_EQ(first[2].at("index").asUint(), 1u);
    EXPECT_EQ(first[3].at("event").asString(), "sweep-end");
    EXPECT_EQ(first[3].at("stats").at("executed").asUint(), 2u);

    const std::vector<JsonValue> second =
        serve(request + "{\"op\": \"stats\"}\n"
                        "{\"op\": \"shutdown\"}\n",
              options);
    ASSERT_EQ(second.size(), 6u);
    // The completed campaign's journal replays before the cache is
    // even consulted.
    EXPECT_EQ(second[1].at("source").asString(), "journal");
    EXPECT_EQ(second[2].at("source").asString(), "journal");
    EXPECT_EQ(second[3].at("stats").at("executed").asUint(), 0u);
    EXPECT_EQ(second[3].at("stats").at("journal_hits").asUint(),
              2u);
    EXPECT_EQ(second[4].at("event").asString(), "stats");
    // The streamed runs replay the first campaign's bytes exactly.
    EXPECT_EQ(first[1].at("run").dump(0),
              second[1].at("run").dump(0));
    EXPECT_EQ(first[2].at("run").dump(0),
              second[2].at("run").dump(0));
    // Both campaigns agree on the campaign identity.
    EXPECT_EQ(first[3].at("sweep_hash").asString(),
              second[3].at("sweep_hash").asString());
}

TEST(ServeSession, ScenarioOpStreamsAndReplaysScenarioJobs)
{
    ScratchDir scratch("serve-scenario");
    ServeOptions options;
    options.cacheDir = scratch.sub("cache");
    options.journalDir = scratch.sub("journals");

    const std::string request =
        "{\"op\": \"scenario\", \"tenants\": [1, 4], \"cores\": 2, "
        "\"refs_per_core\": 1000, \"warmup_refs_per_core\": 500, "
        "\"storm_interval_refs\": 400}\n";

    const std::vector<JsonValue> first =
        serve(request + "{\"op\": \"shutdown\"}\n", options);
    // ready, two scenario jobs, scenario-end, bye.
    ASSERT_EQ(first.size(), 5u);
    EXPECT_EQ(first[1].at("event").asString(), "scenario-job");
    EXPECT_EQ(first[1].at("name").asString(), "consolidation-1t");
    EXPECT_EQ(first[1].at("source").asString(), "executed");
    EXPECT_EQ(first[1].at("run").at("schema").asString(),
              kScenarioSchemaV1);
    EXPECT_EQ(first[2].at("name").asString(), "consolidation-4t");
    EXPECT_EQ(first[2].at("run").at("tenants").size(), 4u);
    EXPECT_EQ(first[3].at("event").asString(), "scenario-end");
    EXPECT_EQ(first[3].at("stats").at("executed").asUint(), 2u);

    // A repeat campaign replays the journal byte-for-byte.
    const std::vector<JsonValue> second =
        serve(request + "{\"op\": \"shutdown\"}\n", options);
    ASSERT_EQ(second.size(), 5u);
    EXPECT_EQ(second[1].at("source").asString(), "journal");
    EXPECT_EQ(first[1].at("run").dump(0),
              second[1].at("run").dump(0));
    EXPECT_EQ(first[2].at("run").dump(0),
              second[2].at("run").dump(0));
    EXPECT_EQ(first[3].at("campaign_hash").asString(),
              second[3].at("campaign_hash").asString());
}

TEST(ServeSession, RunOpIsSingleJobSugar)
{
    const std::vector<JsonValue> events = serve(
        "{\"op\": \"run\", \"benchmark\": \"mcf\", "
        "\"scheme\": \"pom\", \"cores\": 2, "
        "\"refs_per_core\": 400, \"warmup_refs_per_core\": 200}\n"
        "{\"op\": \"shutdown\"}\n",
        ServeOptions{});
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[1].at("event").asString(), "job");
    EXPECT_EQ(events[1].at("jobs").asUint(), 1u);
    EXPECT_EQ(events[2].at("event").asString(), "sweep-end");
}

// ----------------------------------------------------------------
// docs/sweep-service.md coverage
// ----------------------------------------------------------------

/** Every backticked token in docs/sweep-service.md. */
std::set<std::string>
documentedServiceTokens()
{
    const std::string path =
        std::string(POMTLB_SOURCE_DIR) + "/docs/sweep-service.md";
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
        tokens.insert(text.substr(pos + 1, end - pos - 1));
        pos = end + 1;
    }
    return tokens;
}

/**
 * Collect every object key of @p value into @p keys, recursively —
 * except below `run` members, whose contents are `pomtlb-sweep-v1`
 * entries documented field-by-field in docs/internals.md.
 */
void
collectKeys(const JsonValue &value, std::set<std::string> &keys)
{
    if (value.isObject()) {
        for (const auto &[key, member] : value.members()) {
            keys.insert(key);
            if (key != "run")
                collectKeys(member, keys);
        }
    } else if (value.isArray()) {
        for (const JsonValue &element : value.elements())
            collectKeys(element, keys);
    }
}

/**
 * The contract docs/sweep-service.md advertises: every field the
 * service layer emits — job-identity fields (the hash recipe),
 * cache-entry fields, journal fields, and serve-protocol fields —
 * is documented, as are all event, op, and source names.
 */
TEST(SweepServiceDoc, CoversEveryEmittedField)
{
    std::set<std::string> emitted;

    // The hash recipe: every job-identity field.
    collectKeys(jobIdentityJson(ExperimentRequest::of("mcf", "pom")
                                    .withComponentStats()),
                emitted);

    // Cache entries and journal records.
    ScratchDir scratch("doc-coverage");
    SweepCache cache(scratch.sub("cache"));
    const std::string hash = ContentHash::of("doc");
    cache.store(hash, "mcf/POM-TLB", fakeRun("mcf"));
    {
        std::ifstream in(cache.entryPath(hash));
        std::stringstream buffer;
        buffer << in.rdbuf();
        collectKeys(JsonValue::parse(buffer.str()), emitted);
    }
    {
        const std::string path = scratch.sub("sweep.journal");
        SweepJournal journal(path);
        journal.open(ContentHash::of("campaign"), 1);
        journal.append(hash, "mcf/POM-TLB", "executed", 1.0,
                       fakeRun("mcf"));
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line))
            collectKeys(JsonValue::parse(line), emitted);
    }

    // Serve-protocol events, from a session exercising every op.
    ServeOptions options;
    options.cacheDir = scratch.sub("serve-cache");
    options.journalDir = scratch.sub("serve-journals");
    const std::vector<JsonValue> events = serve(
        "{\"op\": \"ping\"}\n"
        "{\"op\": \"list\"}\n"
        "{\"op\": \"run\", \"benchmark\": \"mcf\", "
        "\"scheme\": \"pom\", \"cores\": 2, "
        "\"refs_per_core\": 400, \"warmup_refs_per_core\": 200}\n"
        "{\"op\": \"scenario\", \"tenants\": 1, \"cores\": 2, "
        "\"refs_per_core\": 400, \"warmup_refs_per_core\": 200}\n"
        "{\"op\": \"stats\"}\n"
        "{\"op\": \"nonsense\"}\n"
        "{\"op\": \"shutdown\"}\n",
        options);
    std::set<std::string> eventNames;
    for (const JsonValue &event : events) {
        collectKeys(event, emitted);
        eventNames.insert(event.at("event").asString());
    }
    // The scripted session above must have produced every event
    // kind the protocol defines.
    EXPECT_EQ(eventNames,
              (std::set<std::string>{"ready", "pong", "catalog",
                                     "job", "sweep-end",
                                     "scenario-job", "scenario-end",
                                     "stats", "error", "bye"}));

    // Names that are part of the vocabulary, not JSON keys.
    for (const char *name :
         {"ping", "list", "sweep", "run", "scenario", "shutdown",
          "op", "executed", "cache", "journal", kSweepCacheSchemaV1,
          kSweepJournalSchemaV1, kSweepServeSchemaV1})
        emitted.insert(name);
    for (const std::string &name : eventNames)
        emitted.insert(name);

    ASSERT_GT(emitted.size(), 80u);
    const std::set<std::string> tokens = documentedServiceTokens();
    for (const std::string &name : emitted) {
        EXPECT_TRUE(tokens.count(name))
            << "field '" << name
            << "' is not documented in docs/sweep-service.md";
    }
}

} // namespace
} // namespace pomtlb
