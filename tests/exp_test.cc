/**
 * @file
 * Tests for the experiment engine (src/exp): canonical JSON round
 * trips, point hashing, spec parsing/expansion, the content-addressed
 * result cache, and the determinism contract — the same sweep produces
 * byte-identical artifacts for --jobs 1, --jobs 4, and a warm cache,
 * and a warm-cache rerun performs zero simulation work.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <unordered_set>

#include <gtest/gtest.h>

#include "driver/reports.hh"
#include "exp/artifact.hh"
#include "exp/cache.hh"
#include "exp/cli.hh"
#include "exp/engine.hh"
#include "exp/json.hh"
#include "exp/pareto.hh"
#include "exp/spec.hh"
#include "support/option_rows.hh"
#include "util/task_pool.hh"

namespace fs = std::filesystem;

namespace {

using namespace pbs;

/** Fresh per-test cache directory under the gtest temp dir. */
class ExpCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = fs::path(::testing::TempDir()) /
               (std::string("pbs-exp-test-") + info->name());
        fs::remove_all(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string cacheDir() const { return dir_.string(); }

    fs::path dir_;
};

exp::ExpPoint
tinyPoint(uint64_t seed = 12345, bool pbs = true)
{
    exp::ExpPoint pt;
    pt.workload = "pi";
    pt.predictor = "tage-sc-l";
    pt.functional = true;
    pt.pbs = pbs;
    pt.scale = 2000;
    pt.seed = seed;
    return pt;
}

// --- canonical JSON --------------------------------------------------

TEST(ExpJson, CanonicalDoubleRoundTrips)
{
    const double values[] = {0.0,     1.0,     -1.0,   0.5,
                             0.1,     1.0 / 3, 1e300,  -1e-300,
                             3.14159, 2e53,    123456.75};
    for (double v : values) {
        const std::string s = exp::canonicalDouble(v);
        EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
    }
    EXPECT_EQ(exp::canonicalDouble(2.0), "2");
    EXPECT_EQ(exp::canonicalDouble(-0.0), "-0");
    EXPECT_EQ(exp::canonicalDouble(0.5), "0.5");
}

TEST(ExpJson, WriterParserRoundTrip)
{
    exp::JsonWriter w;
    w.beginObject();
    w.key("u64").value(uint64_t(18446744073709551615ull));
    w.key("str").value(std::string("a\"b\\c\nd\te"));
    w.key("arr").beginArray().value(1).value(true).null().endArray();
    w.key("nested").beginObject().key("x").value(0.25).endObject();
    w.endObject();

    exp::JsonValue v;
    std::string err;
    ASSERT_TRUE(exp::parseJson(w.str(), v, err)) << err;
    EXPECT_EQ(v.find("u64")->asU64(), 18446744073709551615ull);
    EXPECT_EQ(v.find("str")->asString(), "a\"b\\c\nd\te");
    ASSERT_EQ(v.find("arr")->items.size(), 3u);
    EXPECT_TRUE(v.find("arr")->items[2].isNull());
    EXPECT_EQ(v.find("nested")->find("x")->asDouble(), 0.25);
}

TEST(ExpJson, RejectsMalformedInput)
{
    exp::JsonValue v;
    std::string err;
    EXPECT_FALSE(exp::parseJson("{", v, err));
    EXPECT_FALSE(exp::parseJson("{\"a\":}", v, err));
    EXPECT_FALSE(exp::parseJson("[1,2", v, err));
    EXPECT_FALSE(exp::parseJson("12 34", v, err));
    EXPECT_TRUE(exp::parseJson("  [1, 2]  ", v, err)) << err;
}

// --- points and hashing ----------------------------------------------

TEST(ExpPoint, JsonRoundTripsAndHashesDiscriminate)
{
    exp::ExpPoint pt = tinyPoint(7);
    pt.variant = "predicated";
    pt.numBranches = 8;

    exp::JsonValue v;
    std::string err;
    ASSERT_TRUE(exp::parseJson(exp::pointJson(pt), v, err)) << err;
    exp::ExpPoint back;
    ASSERT_TRUE(exp::readPoint(v, back));
    EXPECT_EQ(back, pt);

    // The cache key is stable and sensitive to every axis.
    EXPECT_EQ(exp::cacheKey(pt), exp::cacheKey(pt));
    exp::ExpPoint other = pt;
    other.seed++;
    EXPECT_NE(exp::cacheKey(pt), exp::cacheKey(other));
    other = pt;
    other.pbs = !other.pbs;
    EXPECT_NE(exp::cacheKey(pt), exp::cacheKey(other));
    other = pt;
    other.inFlightLimit = 2;
    EXPECT_NE(exp::cacheKey(pt), exp::cacheKey(other));
}

// --- sweep specs -----------------------------------------------------

TEST(ExpSpec, ParsesKeyValueTextAndExpands)
{
    auto parsed = exp::parseSpecText(
        "# comment\n"
        "workload  = pi, dop\n"
        "predictor = tournament, tage_scl\n"
        "pbs       = off, on\n"
        "mode      = mpki\n"
        "scale     = 1000\n"
        "seeds     = 2\n");
    ASSERT_TRUE(parsed.ok) << parsed.error;

    auto grid = exp::expandSpec(parsed.spec);
    ASSERT_TRUE(grid.ok) << grid.error;
    // 2 workloads x 2 predictors x 2 pbs x 1 scale x 2 seeds
    ASSERT_EQ(grid.points.size(), 16u);
    EXPECT_EQ(grid.points[0].workload, "pi");
    EXPECT_EQ(grid.points[0].predictor, "tournament");  // canonicalized
    EXPECT_EQ(grid.points[1].seed, 12346u);             // seed innermost
    EXPECT_TRUE(grid.points.back().pbs);
    EXPECT_EQ(grid.points.back().workload, "dop");
    for (const auto &pt : grid.points) {
        EXPECT_TRUE(pt.functional);       // mpki = SimMode::Functional
        EXPECT_EQ(pt.mode, "detailed");
        EXPECT_EQ(pt.scale, 1000u);
    }
}

TEST(ExpSpec, ExecutionModesExpandAndKeySeparately)
{
    auto parsed = exp::parseSpecText(
        "workload  = pi\n"
        "mode      = detailed, timing, mpki, functional, sampled\n"
        "sample-interval = 50000\n"
        "sample-warmup   = 5000\n"
        "sample-measure  = 2000\n"
        "scale     = 1000\n");
    ASSERT_TRUE(parsed.ok) << parsed.error;

    auto grid = exp::expandSpec(parsed.spec);
    ASSERT_TRUE(grid.ok) << grid.error;
    ASSERT_EQ(grid.points.size(), 5u);
    EXPECT_EQ(grid.points[0].mode, "detailed");
    EXPECT_EQ(grid.points[1].mode, "detailed");  // timing alias
    EXPECT_EQ(grid.points[2].mode, "detailed");  // mpki: detailed core,
    EXPECT_TRUE(grid.points[2].functional);      // predictor fidelity
    EXPECT_EQ(grid.points[3].mode, "functional");
    EXPECT_EQ(grid.points[4].mode, "sampled");
    for (size_t i : {0, 1, 3, 4})
        EXPECT_FALSE(grid.points[i].functional) << i;

    // Sampling parameters attach to sampled points only.
    EXPECT_EQ(grid.points[4].sampleInterval, 50000u);
    EXPECT_EQ(grid.points[4].sampleWarmup, 5000u);
    EXPECT_EQ(grid.points[4].sampleMeasure, 2000u);
    EXPECT_EQ(grid.points[0].sampleInterval, 0u);

    // The execution mode and the sampling parameters are part of the
    // canonical point JSON, so detailed, functional and sampled
    // results can never collide in the result cache.
    std::unordered_set<std::string> keys;
    for (const auto &pt : grid.points)
        keys.insert(exp::cacheKey(pt));
    EXPECT_EQ(keys.size(), 4u);  // detailed == timing, rest distinct

    exp::ExpPoint tweaked = grid.points[4];
    tweaked.sampleInterval = 60000;
    EXPECT_NE(exp::cacheKey(tweaked), exp::cacheKey(grid.points[4]));

    // Round trip through the canonical JSON preserves the new fields.
    exp::JsonValue v;
    std::string err;
    ASSERT_TRUE(exp::parseJson(exp::pointJson(grid.points[4]), v, err))
        << err;
    exp::ExpPoint back;
    ASSERT_TRUE(exp::readPoint(v, back));
    EXPECT_EQ(back, grid.points[4]);

    EXPECT_FALSE(exp::parseSpecText("mode = warp\n").ok);
    EXPECT_FALSE(exp::parseSpecText("sample-interval = 0\n").ok);
}

TEST(ExpSpec, RejectsBadAxesAndEmptySpecs)
{
    EXPECT_FALSE(exp::parseSpecText("bogus = 1\n").ok);
    EXPECT_FALSE(exp::parseSpecText("workload pi\n").ok);
    EXPECT_FALSE(exp::parseSpecText("width = 6\n").ok);
    EXPECT_FALSE(exp::parseSpecText("pbs = maybe\n").ok);

    auto parsed = exp::parseSpecText("predictor = tage-sc-l\n");
    ASSERT_TRUE(parsed.ok);
    EXPECT_FALSE(exp::expandSpec(parsed.spec).ok);  // no workloads

    auto bad = exp::parseSpecText("workload = nonesuch\n");
    ASSERT_TRUE(bad.ok);
    EXPECT_FALSE(exp::expandSpec(bad.spec).ok);
}

TEST(ExpSpec, AllKeywordSelectsEveryBenchmark)
{
    exp::SweepSpec spec;
    spec.workloads = {"all"};
    spec.scales = {100};
    auto grid = exp::expandSpec(spec);
    ASSERT_TRUE(grid.ok) << grid.error;
    EXPECT_EQ(grid.points.size(), workloads::allBenchmarks().size());
}

// --- result cache ----------------------------------------------------

TEST_F(ExpCacheTest, StoreLoadRoundTripsBitExactly)
{
    exp::ResultCache cache(cacheDir());
    exp::ExpPoint pt = tinyPoint();
    exp::Measurement m = exp::Engine::computePoint(pt);
    const std::string key = exp::cacheKey(pt);

    ASSERT_TRUE(cache.store(key, pt, m));
    exp::Measurement loaded;
    ASSERT_TRUE(cache.load(key, pt.kind, loaded));
    EXPECT_EQ(loaded, m);

    // Unknown keys and corrupt entries miss instead of failing.
    EXPECT_FALSE(cache.load("0000", pt.kind, loaded));
    std::ofstream(fs::path(cacheDir()) / (key + ".json"))
        << "{not json";
    EXPECT_FALSE(cache.load(key, pt.kind, loaded));
}

TEST_F(ExpCacheTest, GcPrunesStaleGenerations)
{
    exp::ResultCache cache(cacheDir());
    exp::ExpPoint pt = tinyPoint();
    exp::Measurement m = exp::Engine::computePoint(pt);
    ASSERT_TRUE(cache.store(exp::cacheKey(pt), pt, m));

    // A foreign-salt entry and a stray temp file are both stale.
    std::ofstream(fs::path(cacheDir()) / "deadbeef.json")
        << "{\"salt\":\"other-version/r0/s0\",\"result\":{}}";
    std::ofstream(fs::path(cacheDir()) / "stray.json.tmp") << "x";

    auto r = cache.gc();
    EXPECT_EQ(r.kept, 1u);
    EXPECT_EQ(r.removed, 2u);

    auto all = cache.gc(/*all=*/true);
    EXPECT_EQ(all.removed, 1u);
    EXPECT_EQ(all.kept, 0u);
}

// --- engine ----------------------------------------------------------

TEST_F(ExpCacheTest, WarmCacheIsBitIdenticalAndComputesNothing)
{
    exp::ExpPoint pt = tinyPoint();

    exp::EngineConfig cfg;
    cfg.cacheDir = cacheDir();
    exp::Engine cold(cfg);
    const auto coldResult = cold.measure(pt);
    EXPECT_EQ(cold.counters().computed, 1u);
    EXPECT_EQ(cold.counters().stored, 1u);

    exp::Engine warm(cfg);
    const auto &warmResult = warm.measure(pt);
    EXPECT_EQ(warm.counters().computed, 0u);
    EXPECT_EQ(warm.counters().diskHits, 1u);

    // Bit-identical: counters and every output double.
    EXPECT_EQ(warmResult, coldResult);
    ASSERT_EQ(warmResult.outputs.size(), coldResult.outputs.size());
    for (size_t i = 0; i < coldResult.outputs.size(); i++)
        EXPECT_EQ(warmResult.outputs[i], coldResult.outputs[i]);
}

TEST_F(ExpCacheTest, SweepArtifactsAreByteIdenticalAcrossJobsAndCache)
{
    auto parsed = exp::parseSpecText(
        "workload  = pi, mc-integ\n"
        "predictor = tournament, tage-sc-l\n"
        "pbs       = off, on\n"
        "mode      = functional\n"
        "div       = 100\n"
        "seeds     = 2\n");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    auto grid = exp::expandSpec(parsed.spec);
    ASSERT_TRUE(grid.ok) << grid.error;
    const std::string echo = exp::specJson(parsed.spec);

    auto renderWith = [&](unsigned jobs, exp::EngineCounters *out) {
        exp::EngineConfig cfg;
        cfg.cacheDir = cacheDir();
        cfg.jobs = jobs;
        exp::Engine engine(cfg);
        engine.runAll(grid.points);
        auto json = exp::sweepJson(grid.points, engine, echo);
        auto csv = exp::sweepCsv(grid.points, engine);
        if (out)
            *out = engine.counters();
        return std::make_pair(json, csv);
    };

    fs::remove_all(cacheDir());
    exp::EngineCounters coldCounters;
    auto serial = renderWith(1, &coldCounters);
    EXPECT_EQ(coldCounters.computed, grid.points.size());

    fs::remove_all(cacheDir());
    auto parallel = renderWith(4, nullptr);

    exp::EngineCounters warmCounters;
    auto warm = renderWith(4, &warmCounters);
    EXPECT_EQ(warmCounters.computed, 0u)
        << "warm rerun must do zero simulation work";
    EXPECT_EQ(warmCounters.diskHits, grid.points.size());

    // The determinism contract: byte-identical artifacts.
    EXPECT_EQ(serial.first, parallel.first);
    EXPECT_EQ(serial.first, warm.first);
    EXPECT_EQ(serial.second, parallel.second);
    EXPECT_EQ(serial.second, warm.second);

    // And the artifact parses back.
    exp::JsonValue v;
    std::string err;
    ASSERT_TRUE(exp::parseJson(serial.first, v, err)) << err;
    EXPECT_EQ(v.find("schema")->asString(), "pbs-sweep-v1");
    EXPECT_EQ(v.find("points")->items.size(), grid.points.size());
}

TEST_F(ExpCacheTest, ReportRendersIdenticallyColdAndWarm)
{
    auto render = [&]() {
        exp::EngineConfig cfg;
        cfg.cacheDir = cacheDir();
        cfg.jobs = 2;
        exp::Engine engine(cfg);
        driver::ReportContext ctx{engine, 200};
        ::testing::internal::CaptureStdout();
        EXPECT_EQ(driver::runReport("fig01", ctx), 0);
        return ::testing::internal::GetCapturedStdout();
    };
    const std::string cold = render();
    const std::string warm = render();
    EXPECT_FALSE(cold.empty());
    EXPECT_EQ(cold, warm);
}

// --- batch JSON ------------------------------------------------------

TEST(ExpArtifact, BatchJsonCarriesConfigAndPerSeedMetrics)
{
    auto parsed = driver::parseArgs(
        {"--workload", "pi", "--mode", "mpki", "--pbs", "--scale", "2000",
         "--seeds", "3", "--format", "json"});
    ASSERT_TRUE(parsed.ok) << parsed.error;
    auto results = driver::runBatch(parsed.opts);
    const std::string json = exp::batchJson(parsed.opts, results);

    exp::JsonValue v;
    std::string err;
    ASSERT_TRUE(exp::parseJson(json, v, err)) << err;
    EXPECT_EQ(v.find("schema")->asString(), "pbs-batch-v2");
    EXPECT_EQ(v.find("config")->find("workload")->asString(), "pi");
    EXPECT_TRUE(v.find("config")->find("pbs")->asBool());
    // Non-sampled runs carry no checkpoint-set identity.
    EXPECT_EQ(v.find("config")->find("ckpt_set"), nullptr);
    const auto *runs = v.find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->items.size(), 3u);
    EXPECT_EQ(runs->items[0].find("seed")->asU64(), 12345u);
    const auto *stats =
        runs->items[0].find("result")->find("stats");
    ASSERT_NE(stats, nullptr);
    EXPECT_GT(stats->find("instructions")->asU64(), 0u);
}

// --- sample-grid axis ------------------------------------------------

TEST(ExpSpec, SampleGridMultipliesSampledPointsOnly)
{
    auto parsed = exp::parseSpecText(
        "workload = pi\n"
        "mode = detailed, sampled\n"
        "sample-grid = 100000/10000/5000, 200000/20000/10000\n"
        "scale = 1000\n");
    ASSERT_TRUE(parsed.ok) << parsed.error;

    auto grid = exp::expandSpec(parsed.spec);
    ASSERT_TRUE(grid.ok) << grid.error;
    ASSERT_EQ(grid.points.size(), 3u);  // 1 detailed + 2 sampled
    EXPECT_EQ(grid.points[0].mode, "detailed");
    EXPECT_EQ(grid.points[0].sampleInterval, 0u);
    EXPECT_EQ(grid.points[1].mode, "sampled");
    EXPECT_EQ(grid.points[1].sampleInterval, 100000u);
    EXPECT_EQ(grid.points[1].sampleWarmup, 10000u);
    EXPECT_EQ(grid.points[1].sampleMeasure, 5000u);
    EXPECT_EQ(grid.points[2].sampleInterval, 200000u);

    // Distinct triples key distinct cache entries.
    EXPECT_NE(exp::cacheKey(grid.points[1]),
              exp::cacheKey(grid.points[2]));

    // Malformed and inconsistent triples are rejected at parse time.
    EXPECT_FALSE(exp::parseSpecText("sample-grid = 1000\n").ok);
    EXPECT_FALSE(exp::parseSpecText("sample-grid = 0/0/0\n").ok);
    EXPECT_FALSE(
        exp::parseSpecText("sample-grid = 1000/900/200\n").ok);
}

// --- campaign mode ---------------------------------------------------

/** A fig07-style predictor x PBS grid over one sampled workload. */
class CampaignTest : public ExpCacheTest
{
  protected:
    std::vector<exp::ExpPoint>
    grid() const
    {
        auto parsed = exp::parseSpecText(
            "workload = pi\n"
            "predictor = tournament, tage-sc-l\n"
            "pbs = off, on\n"
            "mode = sampled\n"
            "sample-grid = 40000/10000/5000\n"
            "div = 20\n");
        EXPECT_TRUE(parsed.ok) << parsed.error;
        auto expanded = exp::expandSpec(parsed.spec);
        EXPECT_TRUE(expanded.ok) << expanded.error;
        return expanded.points;
    }

    /** Run the grid; return (sweep JSON, counters). */
    std::pair<std::string, exp::EngineCounters>
    run(const std::vector<exp::ExpPoint> &points, bool campaign,
        const std::string &dir, unsigned jobs = 2)
    {
        exp::EngineConfig cfg;
        cfg.cacheDir = dir;
        cfg.jobs = jobs;
        cfg.campaign = campaign;
        exp::Engine engine(cfg);
        engine.runAll(points);
        return {exp::sweepJson(points, engine, ""),
                engine.counters()};
    }

    /** Run campaign slice k/n of the grid against the test cache. */
    exp::EngineCounters
    runSlice(const std::vector<exp::ExpPoint> &points, unsigned k,
             unsigned n)
    {
        exp::EngineConfig cfg;
        cfg.cacheDir = cacheDir();
        cfg.jobs = 2;
        cfg.campaign = true;
        cfg.shardIndex = k;
        cfg.shardCount = n;
        exp::Engine engine(cfg);
        engine.runAll(points);
        return engine.counters();
    }

    /** Intervals x configs: what an unsliced campaign measures. */
    uint64_t
    totalIntervals(const std::vector<exp::ExpPoint> &points)
    {
        return run(points, true, "").second.partialComputed;
    }
};

TEST_F(CampaignTest, CapturesOncePerStoreKeyAndMatchesPerPointPath)
{
    const auto points = grid();
    ASSERT_EQ(points.size(), 4u);

    // All four configs share one checkpoint StoreKey by construction.
    std::unordered_set<std::string> storeKeys;
    for (const auto &pt : points)
        storeKeys.insert(sampling::storeSetHash(
            exp::checkpointStoreKey(pt, exp::versionSalt())));
    ASSERT_EQ(storeKeys.size(), 1u);

    // Reference: the per-point path, cache disabled.
    const auto [reference, refCounters] = run(points, false, "");
    EXPECT_EQ(refCounters.computed, 4u);
    EXPECT_EQ(refCounters.captures, 0u);

    // Campaign: one capture serves the whole grid, every interval is
    // measured exactly once per config and persisted as a partial.
    const auto [artifact, c] = run(points, true, cacheDir());
    EXPECT_EQ(artifact, reference)
        << "campaign scheduling must not change results";
    EXPECT_EQ(c.campaignGroups, storeKeys.size());
    EXPECT_EQ(c.captures, storeKeys.size())
        << "exactly one capture per distinct StoreKey";
    EXPECT_EQ(c.ckptSetLoads, 0u);
    EXPECT_EQ(c.computed, 4u);
    EXPECT_EQ(c.partialHits, 0u);
    EXPECT_GT(c.partialComputed, 0u);
    EXPECT_EQ(c.partialComputed % 4u, 0u)
        << "every config measures the same shared interval set";
    EXPECT_EQ(c.partialStored, c.partialComputed);

    // Warm rerun: everything is a disk hit, nothing is re-simulated
    // and nothing is re-captured.
    const auto [warm, w] = run(points, true, cacheDir());
    EXPECT_EQ(warm, reference);
    EXPECT_EQ(w.computed, 0u);
    EXPECT_EQ(w.captures, 0u);
    EXPECT_EQ(w.partialComputed, 0u);
    EXPECT_EQ(w.diskHits, 4u);
}

TEST_F(CampaignTest, ResumesInterruptedRunWithZeroResimulation)
{
    const auto points = grid();

    // Single-shot cold campaign: the document to reproduce.
    const auto [reference, cold] = run(points, true, cacheDir());
    ASSERT_GT(cold.partialStored, 4u);

    // "Kill" the campaign partway: final results never landed and
    // only some partials survived (delete every other one).
    for (const auto &e : fs::directory_iterator(cacheDir()))
        if (e.is_regular_file())
            fs::remove(e.path());
    size_t kept = 0, dropped = 0;
    {
        std::vector<fs::path> partials;
        for (const auto &e :
             fs::directory_iterator(fs::path(cacheDir()) / "partials"))
            partials.push_back(e.path());
        std::sort(partials.begin(), partials.end());
        for (size_t i = 0; i < partials.size(); i++) {
            if (i % 2) {
                fs::remove(partials[i]);
                dropped++;
            } else {
                kept++;
            }
        }
    }
    ASSERT_GT(kept, 0u);
    ASSERT_GT(dropped, 0u);

    // Resume: byte-identical document, zero re-captures, full reuse
    // of every surviving partial.
    const auto [resumed, c] = run(points, true, cacheDir());
    EXPECT_EQ(resumed, reference)
        << "an interrupted-then-resumed campaign must reproduce the "
           "single-shot document byte-identically";
    EXPECT_EQ(c.captures, 0u) << "zero re-captures on resume";
    EXPECT_EQ(c.ckptSetLoads, 1u);
    EXPECT_EQ(c.partialHits, kept) << "100% reuse of kept partials";
    EXPECT_EQ(c.partialComputed, dropped);
    EXPECT_EQ(c.computed, 4u);
}

TEST_F(CampaignTest, InvariantsHoldUnderStealingAndJitter)
{
    // pointCost is now only a placement hint for the work-stealing
    // scheduler — under heavy steal-order perturbation at --jobs 8
    // the campaign contract must hold unchanged: byte-identical
    // artifact, one capture per distinct StoreKey, every partial
    // stored.
    const auto points = grid();
    std::unordered_set<std::string> storeKeys;
    for (const auto &pt : points)
        storeKeys.insert(sampling::storeSetHash(
            exp::checkpointStoreKey(pt, exp::versionSalt())));

    const auto [reference, refC] = run(points, true, cacheDir(), 1);

    pool::TaskPool::instance().setStealJitter(99, 100);
    fs::remove_all(cacheDir());
    const auto [jittered, c] = run(points, true, cacheDir(), 8);
    pool::TaskPool::instance().setStealJitter(0, 0);
    pool::TaskPool::instance().configure(1);

    EXPECT_EQ(jittered, reference);
    EXPECT_EQ(c.captures, storeKeys.size())
        << "capture-once must survive steal scheduling";
    EXPECT_EQ(c.campaignGroups, storeKeys.size());
    EXPECT_EQ(c.computed, refC.computed);
    EXPECT_EQ(c.partialComputed, refC.partialComputed);
    EXPECT_EQ(c.partialStored, c.partialComputed);
}

TEST_F(CampaignTest, ResumeSurvivesStealJitter)
{
    // The interrupted-resume path, re-run with the steal order
    // perturbed: surviving partials must still be reused 1:1 and the
    // resumed document must reproduce the cold one byte-for-byte.
    const auto points = grid();
    const auto [reference, cold] = run(points, true, cacheDir(), 8);
    ASSERT_GT(cold.partialStored, 4u);

    for (const auto &e : fs::directory_iterator(cacheDir()))
        if (e.is_regular_file())
            fs::remove(e.path());
    size_t kept = 0, dropped = 0;
    {
        std::vector<fs::path> partials;
        for (const auto &e :
             fs::directory_iterator(fs::path(cacheDir()) / "partials"))
            partials.push_back(e.path());
        std::sort(partials.begin(), partials.end());
        for (size_t i = 0; i < partials.size(); i++) {
            if (i % 2) {
                fs::remove(partials[i]);
                dropped++;
            } else {
                kept++;
            }
        }
    }
    ASSERT_GT(kept, 0u);
    ASSERT_GT(dropped, 0u);

    pool::TaskPool::instance().setStealJitter(7, 150);
    const auto [resumed, c] = run(points, true, cacheDir(), 8);
    pool::TaskPool::instance().setStealJitter(0, 0);
    pool::TaskPool::instance().configure(1);

    EXPECT_EQ(resumed, reference);
    EXPECT_EQ(c.captures, 0u);
    EXPECT_EQ(c.partialHits, kept);
    EXPECT_EQ(c.partialComputed, dropped);
}

// --- campaign slices: the cross-process fan-out ---------------------

TEST_F(CampaignTest, SlicesAreDisjointAndTheRerunResumesEverything)
{
    const auto points = grid();
    const auto [reference, refCounters] = run(points, false, "");
    const uint64_t total = totalIntervals(points);
    ASSERT_GT(total, points.size());

    // Three "processes" each measure one slice against one cache. A
    // slice overlapping an earlier one would see its partials as hits.
    uint64_t sliced = 0;
    for (unsigned k = 1; k <= 3; k++) {
        const exp::EngineCounters c = runSlice(points, k, 3);
        EXPECT_EQ(c.partialHits, 0u) << "slice " << k << " overlaps";
        EXPECT_GT(c.partialComputed, 0u);
        EXPECT_EQ(c.partialStored, c.partialComputed);
        EXPECT_EQ(c.computed, 0u) << "a slice computes no results";
        EXPECT_EQ(c.stored, 0u) << "a slice writes no result entries";
        EXPECT_EQ(c.captures, k == 1 ? 1u : 0u)
            << "later slices load the set the first one persisted";
        sliced += c.partialComputed;
    }
    EXPECT_EQ(sliced, total) << "the slices cover every interval";

    // The unsliced rerun resumes every interval from the partials and
    // writes the same artifact as the per-point, cache-less path.
    const auto [artifact, c] = run(points, true, cacheDir());
    EXPECT_EQ(artifact, reference);
    EXPECT_EQ(c.partialComputed, 0u);
    EXPECT_EQ(c.captures, 0u);
    EXPECT_EQ(c.partialHits, total);
    EXPECT_EQ(c.computed, points.size());
}

TEST_F(CampaignTest, RerunAfterOneSliceComputesTheComplement)
{
    const auto points = grid();
    const auto [reference, refCounters] = run(points, false, "");
    const uint64_t total = totalIntervals(points);

    const exp::EngineCounters half = runSlice(points, 1, 2);
    ASSERT_GT(half.partialComputed, 0u);
    ASSERT_LT(half.partialComputed, total);

    const auto [artifact, c] = run(points, true, cacheDir());
    EXPECT_EQ(artifact, reference);
    EXPECT_EQ(c.partialHits, half.partialComputed);
    EXPECT_EQ(c.partialComputed, total - half.partialComputed);
    EXPECT_EQ(c.captures, 0u);
}

TEST_F(CampaignTest, BatchCkptSetNamesTheCampaignSetDirectory)
{
    // pbs_sim's pbs-batch-v2 document and a campaign over the same
    // point must agree on the checkpoint set's identity.
    auto parsed = driver::parseArgs(
        {"--workload", "pi", "--mode", "sampled", "--div", "20",
         "--sample-interval", "40000", "--sample-warmup", "10000",
         "--sample-measure", "5000", "--format", "json"});
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const std::string batch =
        exp::batchJson(parsed.opts, driver::runBatch(parsed.opts));
    exp::JsonValue v;
    std::string err;
    ASSERT_TRUE(exp::parseJson(batch, v, err)) << err;
    const exp::JsonValue *ckptSet = v.find("config")->find("ckpt_set");
    ASSERT_NE(ckptSet, nullptr);

    run(grid(), true, cacheDir());
    std::vector<std::string> sets;
    for (const auto &e :
         fs::directory_iterator(fs::path(cacheDir()) / "ckpt"))
        sets.push_back(e.path().filename().string());
    ASSERT_EQ(sets.size(), 1u);
    EXPECT_EQ(sets[0], ckptSet->asString());
}

TEST(ExpCli, ShardFlagValidation)
{
    auto parse = [](std::vector<std::string> extra,
                    exp::CliOptions &o) {
        std::vector<std::string> args = {"--workloads", "pi",
                                         "--modes", "sampled"};
        args.insert(args.end(), extra.begin(), extra.end());
        return exp::parseCli(args, o);
    };

    exp::CliOptions ok;
    ASSERT_EQ(parse({"--campaign", "--shard", "2/4"}, ok), "");
    EXPECT_EQ(ok.shardIndex, 2u);
    EXPECT_EQ(ok.shardCount, 4u);

    // Out-of-range and malformed slice specs.
    for (const char *bad : {"0/2", "3/2", "2", "a/b", "1/0"}) {
        exp::CliOptions o;
        EXPECT_NE(parse({"--campaign", "--shard", bad}, o), "") << bad;
    }

    // A slice needs a campaign and the cache, and writes no artifact.
    const std::vector<std::vector<std::string>> conflicts = {
        {"--shard", "1/2"},
        {"--campaign", "--shard", "1/2", "--no-cache"},
        {"--campaign", "--shard", "1/2", "--out", "r.json"},
        {"--campaign", "--shard", "1/2", "--csv", "r.csv"},
    };
    for (const auto &extra : conflicts) {
        exp::CliOptions o;
        EXPECT_NE(parse(extra, o), "") << extra.back();
    }
}

TEST(ExpCli, EveryRowParsesAndIsInTheHelp)
{
    exp::CliOptions o;
    testsupport::expectEveryRowParses(
        exp::cliOptions(o), exp::usageText(),
        {{"--spec", "bench/standard.spec"},
         {"--workloads", "pi,dop"},
         {"--predictors", "tournament"},
         {"--variants", "marked,cfd"},
         {"--widths", "4,8"},
         {"--modes", "timing,mpki,sampled"},
         {"--pbs", "off,on"},
         {"--scales", "1000"},
         {"--sample-grid", "40000/10000/5000"},
         {"--out", "r.json"},
         {"--csv", "r.csv"},
         {"--cache-dir", "cache"},
         {"--shard", "1/2"},
         {"--report", "fig07"},
         {"--trace", "t.json"},
         {"--metrics", "m.json"},
         {"--manifest", "run.json"},
         {"--telemetry", "ts.jsonl"}});

    // Axis flags reach the spec in command-line order.
    exp::CliOptions axes;
    ASSERT_EQ(exp::parseCli({"--seed", "7", "--div=3", "--workload", "pi",
                             "--sample-interval", "9000"},
                            axes),
              "");
    const std::vector<std::pair<std::string, std::string>> want = {
        {"seed", "7"}, {"div", "3"}, {"workload", "pi"},
        {"sample-interval", "9000"}};
    EXPECT_EQ(axes.axes, want);
    EXPECT_EQ(axes.divisor, 3u);
}

TEST_F(ExpCacheTest, PointCostReflectsSampleParameters)
{
    exp::ExpPoint detailed;
    detailed.workload = "pi";
    detailed.mode = "detailed";
    detailed.scale = 1'000'000;

    exp::ExpPoint dense = detailed;
    dense.mode = "sampled";  // defaults: 500k interval, 160k detailed

    exp::ExpPoint sparse = dense;
    sparse.sampleInterval = 2'000'000;
    sparse.sampleWarmup = 100'000;
    sparse.sampleMeasure = 60'000;

    // A sparse-interval Pareto point simulates far fewer detailed
    // instructions than the default config and must cost less, and
    // both must undercut full detailed timing.
    EXPECT_LT(exp::pointCost(sparse), exp::pointCost(dense));
    EXPECT_LT(exp::pointCost(dense), exp::pointCost(detailed));

    // More measured instructions per interval -> more cost.
    exp::ExpPoint heavy = dense;
    heavy.sampleMeasure = 300'000;
    EXPECT_GT(exp::pointCost(heavy), exp::pointCost(dense));
}

TEST_F(ExpCacheTest, StoreFailureWarnsOnceAndCounts)
{
    // Occupy the cache path with a regular file: every store fails.
    std::ofstream(dir_) << "not a directory";

    exp::EngineConfig cfg;
    cfg.cacheDir = cacheDir();
    exp::Engine engine(cfg);

    ::testing::internal::CaptureStderr();
    engine.measure(tinyPoint(1));
    engine.measure(tinyPoint(2));
    const std::string err = ::testing::internal::GetCapturedStderr();

    EXPECT_EQ(engine.counters().computed, 2u);
    EXPECT_EQ(engine.counters().stored, 0u);
    EXPECT_EQ(engine.counters().storeFailed, 2u);

    // Warn once, not per failure.
    const std::string needle = "failed to write";
    size_t first = err.find(needle);
    ASSERT_NE(first, std::string::npos) << err;
    EXPECT_EQ(err.find(needle, first + 1), std::string::npos) << err;
}

TEST_F(ExpCacheTest, GcGraceSparesFreshEntriesOfEveryKind)
{
    exp::ResultCache cache(cacheDir());
    exp::ExpPoint pt = tinyPoint();
    ASSERT_TRUE(
        cache.store(exp::cacheKey(pt), pt, exp::Measurement{}));

    // Freshly-written stale-salt state of all three kinds, as an
    // in-flight campaign under older code would leave behind.
    fs::create_directories(fs::path(cacheDir()) / "partials");
    std::ofstream(fs::path(cacheDir()) / "deadbeef.json")
        << "{\"salt\":\"other-version/r0/s0\"}";
    std::ofstream(fs::path(cacheDir()) / "partials" / "cafe.json")
        << "{\"salt\":\"other-version/r0/s0\"}";
    fs::create_directories(fs::path(cacheDir()) / "ckpt" / "ffff");
    std::ofstream(fs::path(cacheDir()) / "ckpt" / "ffff" /
                  "manifest.json")
        << "{\"key\":{\"salt\":\"other-version/r0/s0\"}}";

    // Within the grace window nothing may be deleted — a concurrent
    // writer could still be mid-campaign.
    auto graced = cache.gc(false, /*graceSeconds=*/3600);
    EXPECT_EQ(graced.removed, 0u);
    EXPECT_EQ(graced.kept, 4u);
    // Even --all respects the grace window.
    EXPECT_EQ(cache.gc(true, 3600).removed, 0u);

    // Without grace the stale generations go and the live entry stays.
    auto r = cache.gc(false, 0);
    EXPECT_EQ(r.removed, 3u);
    EXPECT_EQ(r.kept, 1u);
    exp::Measurement m;
    EXPECT_TRUE(cache.load(exp::cacheKey(pt), pt.kind, m));
}

// A concurrent writer of the same key holds a temp under the entry's
// old shared temp name, hard-linked to the entry it just renamed into
// place. Publishing must go through a temp of its own: the foreign
// file keeps its bytes and the published entry is complete. Once the
// foreign temp is older than the grace window, gc sweeps it.
TEST_F(ExpCacheTest, PublishNeverWritesThroughAForeignTemp)
{
    exp::ResultCache cache(cacheDir());
    exp::ExpPoint pt = tinyPoint();
    const std::string key = exp::cacheKey(pt);
    ASSERT_TRUE(cache.store(key, pt, exp::Measurement{}));
    const fs::path entry = fs::path(cacheDir()) / (key + ".json");
    const fs::path foreign = entry.string() + ".tmp";
    fs::create_hard_link(entry, foreign);
    auto slurp = [](const fs::path &path) {
        std::ifstream in(path, std::ios::binary);
        return std::string((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    };
    const std::string before = slurp(foreign);

    const exp::Measurement m = exp::Engine::computePoint(pt);
    ASSERT_TRUE(cache.store(key, pt, m));
    EXPECT_EQ(slurp(foreign), before);
    exp::Measurement loaded;
    ASSERT_TRUE(cache.load(key, pt.kind, loaded));
    EXPECT_EQ(loaded, m);

    // Orphaned temps: a fresh one is spared, an old one is swept, in
    // the results dir and inside a live checkpoint set alike.
    const auto old = fs::file_time_type::clock::now() -
                     std::chrono::hours(2);
    fs::last_write_time(foreign, old);
    std::ofstream(entry.string() + ".4242.0.tmp") << "{\"salt\":";
    const fs::path set = fs::path(cacheDir()) / "ckpt" / "abcd";
    fs::create_directories(set);
    std::ofstream(set / "manifest.json")
        << "{\"key\":{\"salt\":\"" << exp::versionSalt() << "\"}}";
    std::ofstream(set / "manifest.json.4242.1.tmp") << "{";
    fs::last_write_time(set / "manifest.json.4242.1.tmp", old);
    fs::last_write_time(set, old);

    const auto r = cache.gc(false, /*graceSeconds=*/3600);
    EXPECT_EQ(r.removed, 2u);
    EXPECT_EQ(r.kept, 3u);  // entry, fresh temp, live set
    EXPECT_FALSE(fs::exists(foreign));
    EXPECT_FALSE(fs::exists(set / "manifest.json.4242.1.tmp"));
    EXPECT_TRUE(fs::exists(set / "manifest.json"));
    EXPECT_TRUE(cache.load(key, pt.kind, loaded));
}

}  // namespace
