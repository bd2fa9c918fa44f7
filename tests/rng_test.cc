/**
 * @file
 * Property tests for the splittable counter-based RNG (util/random.h):
 * the split/seek stream contract the SoA engine's sharded demand
 * refresh relies on, the equivalence of the workload jitter stream
 * with its historical file-local hash, and the BasicRng seam over
 * each sequential engine.
 */

#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "trace/workload.h"
#include "util/random.h"

using namespace pad;

namespace {

// ---------------------------------------------------------------------
// CounterRng: seek / split / layout independence
// ---------------------------------------------------------------------

TEST(CounterRng, SeekEqualsSequential)
{
    // A stream seeked to position n continues bit-identically to a
    // stream that drew n values sequentially: there is no hidden
    // state beyond the counter.
    for (const std::uint64_t key : {0ULL, 42ULL, 0xdeadbeefULL}) {
        CounterRng sequential(key);
        std::vector<std::uint64_t> drawn;
        for (int i = 0; i < 100; ++i)
            drawn.push_back(sequential.next());

        for (const std::uint64_t n : {0ULL, 1ULL, 17ULL, 99ULL}) {
            CounterRng seeked(key);
            seeked.seek(n);
            EXPECT_EQ(seeked.position(), n);
            for (std::uint64_t i = n; i < 100; ++i)
                EXPECT_EQ(seeked.next(), drawn[i])
                    << "key " << key << " draw " << i;
        }
    }
}

TEST(CounterRng, AtIsPositionIndependent)
{
    // at(n) is a pure function of (key, n): query order, interleaved
    // sequential draws and the current position never change it.
    CounterRng a(7);
    const std::uint64_t probe = a.at(12345);
    a.next();
    a.next();
    a.seek(999);
    EXPECT_EQ(a.at(12345), probe);
    const CounterRng b(7, 555);
    EXPECT_EQ(b.at(12345), probe);
}

TEST(CounterRng, SplitProducesIndependentStreams)
{
    const CounterRng parent(42);

    // split() never advances the parent and derives distinct keys
    // per lane (including vs the parent itself).
    std::set<std::uint64_t> keys{parent.key()};
    for (std::uint64_t lane = 0; lane < 64; ++lane) {
        const CounterRng child = parent.split(lane);
        EXPECT_TRUE(keys.insert(child.key()).second)
            << "lane " << lane << " collided";
    }
    EXPECT_EQ(parent.position(), 0u);

    // Statistical independence across sibling lanes: the mean of
    // each lane's unit outputs is near 1/2 and the average product
    // of paired lanes is near 1/4 (uncorrelated).
    const int draws = 4096;
    const CounterRng left = parent.split(1);
    const CounterRng right = parent.split(2);
    double meanL = 0.0, meanR = 0.0, cross = 0.0;
    for (int i = 0; i < draws; ++i) {
        const double l = left.unitAt(static_cast<std::uint64_t>(i));
        const double r = right.unitAt(static_cast<std::uint64_t>(i));
        meanL += l;
        meanR += r;
        cross += l * r;
    }
    meanL /= draws;
    meanR /= draws;
    cross /= draws;
    EXPECT_NEAR(meanL, 0.5, 0.02);
    EXPECT_NEAR(meanR, 0.5, 0.02);
    EXPECT_NEAR(cross, 0.25, 0.02);
}

TEST(CounterRng, ShardedWalkMatchesSerialWalk)
{
    // Layout independence, the property the SoA engine's sharded
    // demand refresh is built on: partitioning the index space across
    // shards draws exactly the bytes of a serial walk.
    const CounterRng stream(0x5eedULL);
    const int total = 1000;
    std::vector<std::uint64_t> serial;
    serial.reserve(total);
    for (int i = 0; i < total; ++i)
        serial.push_back(stream.at(static_cast<std::uint64_t>(i)));

    for (const int shards : {2, 3, 7}) {
        std::vector<std::uint64_t> sharded(total);
        for (int s = 0; s < shards; ++s) {
            const int lo = total * s / shards;
            const int hi = total * (s + 1) / shards;
            CounterRng worker(stream.key());
            worker.seek(static_cast<std::uint64_t>(lo)); // O(1)
            for (int i = lo; i < hi; ++i)
                sharded[static_cast<std::size_t>(i)] = worker.next();
        }
        EXPECT_EQ(sharded, serial) << shards << " shards";
    }
}

TEST(CounterRng, UnitMappingsStayInRange)
{
    const CounterRng rng(123);
    for (std::uint64_t n = 0; n < 2000; ++n) {
        const double u = rng.unitAt(n);
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        const double s = rng.signedUnitAt(n);
        EXPECT_GE(s, -1.0);
        EXPECT_LE(s, 1.0);
    }
}

// ---------------------------------------------------------------------
// Workload jitter: the counter-based stream is the historical hash
// ---------------------------------------------------------------------

TEST(CounterRng, WorkloadJitterMatchesHistoricalHash)
{
    // Workload::jitterAt has always been
    // splitmix64((machine << 40) ^ second) mapped to [-1, 1]; the
    // CounterRng delegation must keep that output bit for bit.
    for (const int machine : {0, 1, 17, 219}) {
        const CounterRng stream(static_cast<std::uint64_t>(machine)
                                << 40);
        for (const std::uint64_t second :
             {0ULL, 1ULL, 3600ULL, 86399ULL}) {
            const double direct = toSignedUnitDouble(splitmix64(
                (static_cast<std::uint64_t>(machine) << 40) ^ second));
            EXPECT_EQ(trace::Workload::jitterAt(machine, second),
                      direct);
            EXPECT_EQ(stream.signedUnitAt(second), direct);
        }
    }
}

// ---------------------------------------------------------------------
// BasicRng: the distribution mixin works over every engine
// ---------------------------------------------------------------------

template <typename Engine>
void
exerciseBasicRng()
{
    BasicRng<Engine> rng(42);
    BasicRng<Engine> same(42);
    for (int i = 0; i < 100; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        EXPECT_EQ(u, same.uniform()) << "determinism broke at " << i;
    }
    const std::int64_t k = rng.uniformInt(3, 9);
    EXPECT_GE(k, 3);
    EXPECT_LE(k, 9);
    // fork() derives a stream that does not mirror the parent.
    BasicRng<Engine> child = rng.fork();
    bool diverged = false;
    for (int i = 0; i < 10 && !diverged; ++i)
        diverged = child.uniform() != rng.uniform();
    EXPECT_TRUE(diverged);
}

TEST(BasicRng, WorksOverEveryEngine)
{
    exerciseBasicRng<std::mt19937_64>();
    exerciseBasicRng<SplitMix64>();
    exerciseBasicRng<Xoshiro256pp>();
    exerciseBasicRng<CounterRng>();
}

TEST(BasicRng, SplitMixHashMatchesEngineStep)
{
    // Hashing x equals advancing a SplitMix64 engine seeded with x by
    // one step — the documented relationship between the stateless
    // hash and the sequential engine.
    for (const std::uint64_t x : {0ULL, 1ULL, 42ULL, ~0ULL}) {
        SplitMix64 engine(x);
        EXPECT_EQ(engine(), splitmix64(x));
    }
    // The reference sequence for seed 0, and the remote-write
    // shipper's backoff jitter stream at its default seed
    // (jitterSeed 1 ^ 0x5851f42d4c957f2d): pinned so the shipper's
    // reconnect delays stay bit-identical.
    SplitMix64 zero(0);
    EXPECT_EQ(zero(), 0xe220a8397b1dcdafULL);
    EXPECT_EQ(zero(), 0x6e789e6aa1b965f4ULL);
    SplitMix64 jitter(1ULL ^ 0x5851f42d4c957f2dULL);
    for (const std::uint64_t want :
         {0xc1b4bb728dd96dc3ULL, 0xfc94d6cba1d4622cULL,
          0xe3a8c9088ca4fd45ULL, 0xe71034030f5597c4ULL})
        EXPECT_EQ(jitter(), want);
}

} // namespace
