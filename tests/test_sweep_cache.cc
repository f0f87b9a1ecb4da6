/**
 * @file
 * Tests for the sweep-at-scale layer (sim/sweep_cache.hh): content
 * hashing, the on-disk result cache, the checkpoint journal,
 * crash/resume byte-identity, and docs/sweep-service.md coverage.
 */

#include <cstdint>
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
#include "sim/sweep_cache.hh"
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

    JsonValue runs = JsonValue::array();
    for (const ExperimentRequest &request : requests)
        runs.push(SweepResultWriter::entryToJson(runExperiment(request)));
    EXPECT_EQ(document.at("schema").asString(), kSweepSchemaV1);
    EXPECT_EQ(document.at("runs").dump(2), runs.dump(2));
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

/**
 * Whether a cached entry and a journal record with the summary
 * fields @p dropped removed re-execute once, replaced by the fresh
 * entry, instead of reaching a reader as partial data.
 */
void
expectEntryWithoutFieldsReExecuted(const std::string &name,
                                   const std::set<std::string> &dropped)
{
    ScratchDir scratch(name);
    const std::vector<ExperimentRequest> requests = quickRequests();
    SweepServiceOptions options;
    options.cacheDir = scratch.sub("cache");
    SweepService cold(options);
    const JsonValue first = cold.run(requests);

    SweepCache cache(options.cacheDir);
    const std::string hash = jobHash(requests[0]);
    const JsonValue current = *cache.lookup(hash);
    JsonValue summary = JsonValue::object();
    for (const auto &[key, value] : current.at("summary").members()) {
        if (dropped.count(key) == 0)
            summary.set(key, value);
    }
    ASSERT_EQ(summary.size() + dropped.size(),
              current.at("summary").size());
    JsonValue stale = current;
    stale.set("summary", std::move(summary));
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

TEST(SweepService, EntryWithoutRunTotalsIsReExecuted)
{
    // A cache written before summary.instructions and
    // summary.cycles existed has the same job hashes.
    expectEntryWithoutFieldsReExecuted("service-stale",
                                       {"instructions", "cycles"});
}

TEST(SweepService, EntryWithoutCycleSplitIsReExecuted)
{
    // Served, such an entry would report a zero SRAM/scheme split
    // and an empty cycle breakdown.
    expectEntryWithoutFieldsReExecuted(
        "service-no-split",
        {"sram_cycles", "scheme_cycles", "cycle_breakdown"});
}

TEST(SweepService, HollowScenarioEntryIsReExecuted)
{
    // A scenario document without the members its readers use (here
    // only a schema) is stale, like a sweep entry without run
    // totals: the job re-executes instead of reaching `pomtlb
    // scenario`.
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
 * cache-entry fields and journal fields — is documented, as are the
 * schema and source names.
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

    // Names that are part of the vocabulary, not JSON keys.
    for (const char *name : {"executed", "cache", "journal",
                             kSweepCacheSchemaV1, kSweepJournalSchemaV1})
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
