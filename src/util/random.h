/**
 * @file
 * Deterministic random number generation for reproducible simulation.
 *
 * Every stochastic component takes an explicit generator (or a seed)
 * so that experiments are bit-for-bit repeatable and property tests
 * can sweep seeds. Three engines are provided behind one seam:
 *
 *  - std::mt19937_64 — the historical engine; `pad::Rng` remains a
 *    mixin over it and is byte-identical to the pre-seam wrapper.
 *  - SplitMix64 / Xoshiro256pp — small fast sequential engines
 *    (Blackman & Vigna), used to seed and to cheaply fork streams.
 *  - CounterRng — a splittable *counter-based* engine: output n is a
 *    pure hash of (key, n), so any shard or time slice can seek its
 *    stream in O(1) instead of drawing sequentially.
 *
 * ## Split/seek stream contract (CounterRng)
 *
 * A CounterRng is the pair (key, counter). Draw n of stream `key` is
 *
 *     out(key, n) = splitmix64(key ^ n)
 *
 * which gives three properties the engine backends rely on:
 *
 *  1. **O(1) seek**: `seek(n)` just sets the counter; a stream
 *     positioned at n and a stream that drew n values sequentially
 *     produce identical output from there on (bit-identical — there
 *     is no hidden state beyond the counter).
 *  2. **Splitting**: `split(lane)` derives a child stream whose key
 *     is re-randomized through the same avalanche hash, so sibling
 *     lanes are statistically independent of each other and of the
 *     parent. Splitting never advances the parent's counter.
 *  3. **Layout independence**: because output depends only on
 *     (key, n), work sharded across threads draws the same values as
 *     a serial walk — the foundation of the SoA backend's
 *     sharded-vs-serial bit-identity guarantee.
 *
 * The per-(machine, second) workload jitter has always been the hash
 * splitmix64((machine << 40) ^ second); Workload::jitterAt now
 * delegates to CounterRng with key = machine << 40 and counter =
 * second, bit-identical to the historical file-local hash.
 */

#ifndef PAD_UTIL_RANDOM_H
#define PAD_UTIL_RANDOM_H

#include <cstdint>
#include <limits>
#include <random>

namespace pad {

/** The golden-ratio increment used by splitmix64. */
inline constexpr std::uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ULL;

/**
 * Stateless splitmix64 hash (Steele, Lea & Flood): one increment and
 * one avalanche round. Hashing x equals advancing a SplitMix64
 * engine whose state is x by one step.
 */
inline std::uint64_t
splitmix64(std::uint64_t x)
{
    x += kSplitMix64Gamma;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Map a 64-bit word to a double in [0, 1) (53-bit mantissa). */
inline double
toUnitDouble(std::uint64_t h)
{
    return static_cast<double>(h >> 11) /
           static_cast<double>(1ULL << 53);
}

/** Map a 64-bit word to a double in [-1, 1]. */
inline double
toSignedUnitDouble(std::uint64_t h)
{
    return toUnitDouble(h) * 2.0 - 1.0;
}

/**
 * SplitMix64 sequential engine (UniformRandomBitGenerator). Mostly a
 * seeding/forking helper: tiny state, full-period, fast.
 */
class SplitMix64
{
  public:
    using result_type = std::uint64_t;

    explicit SplitMix64(std::uint64_t seed = 0) : state_(seed) {}

    result_type
    operator()()
    {
        const result_type out = splitmix64(state_);
        state_ += kSplitMix64Gamma;
        return out;
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type
    max()
    {
        return std::numeric_limits<result_type>::max();
    }

  private:
    std::uint64_t state_;
};

/**
 * xoshiro256++ sequential engine (Blackman & Vigna 2019), seeded via
 * SplitMix64 as the authors recommend. General-purpose 64-bit
 * generator: faster than mt19937_64 with far smaller state.
 */
class Xoshiro256pp
{
  public:
    using result_type = std::uint64_t;

    explicit Xoshiro256pp(std::uint64_t seed = 0)
    {
        SplitMix64 sm(seed);
        for (auto &word : s_)
            word = sm();
    }

    result_type
    operator()()
    {
        const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type
    max()
    {
        return std::numeric_limits<result_type>::max();
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

/**
 * Splittable counter-based engine: out(n) = splitmix64(key ^ n).
 * See the stream contract in the file header. Also a conforming
 * UniformRandomBitGenerator, so std distributions work on it.
 */
class CounterRng
{
  public:
    using result_type = std::uint64_t;

    /**
     * Open stream @p key at position @p counter. The key is used
     * verbatim (no pre-mixing) so callers with an established hash
     * layout — e.g. the workload's (machine << 40) jitter keys —
     * keep their exact historical output; derive decorrelated keys
     * from small integers with split().
     */
    explicit CounterRng(std::uint64_t key = 0,
                        std::uint64_t counter = 0)
        : key_(key), counter_(counter)
    {}

    /** Draw @p n of this stream without touching the position. */
    std::uint64_t
    at(std::uint64_t n) const
    {
        return splitmix64(key_ ^ n);
    }

    /** Sequential draw: at(counter), then advance the counter. */
    std::uint64_t
    next()
    {
        return at(counter_++);
    }

    result_type operator()() { return next(); }

    /** O(1) jump to position @p n: next() then returns at(n). */
    void seek(std::uint64_t n) { counter_ = n; }

    /** Current stream position. */
    std::uint64_t position() const { return counter_; }

    /** Stream key. */
    std::uint64_t key() const { return key_; }

    /**
     * Derive child stream @p lane. The child key passes through the
     * avalanche hash with a lane-salted gamma so siblings (and the
     * parent) are decorrelated; the parent's position is unchanged.
     */
    CounterRng
    split(std::uint64_t lane) const
    {
        return CounterRng(
            splitmix64(key_ + (lane + 1) * kSplitMix64Gamma));
    }

    /** Draw @p n mapped to [0, 1). */
    double unitAt(std::uint64_t n) const { return toUnitDouble(at(n)); }

    /** Draw @p n mapped to [-1, 1]. */
    double
    signedUnitAt(std::uint64_t n) const
    {
        return toSignedUnitDouble(at(n));
    }

    /** Sequential draw mapped to [0, 1). */
    double nextUnit() { return toUnitDouble(next()); }

    static constexpr result_type min() { return 0; }
    static constexpr result_type
    max()
    {
        return std::numeric_limits<result_type>::max();
    }

  private:
    std::uint64_t key_;
    std::uint64_t counter_;
};

/**
 * Convenience-distribution mixin over any UniformRandomBitGenerator.
 * `pad::Rng` (the mt19937_64 instantiation) keeps the historical
 * wrapper's exact behaviour: same default seed, same fork(), same
 * per-call std distributions.
 */
template <typename Engine>
class BasicRng
{
  public:
    /** Construct with an explicit seed (default fixed for repro). */
    explicit BasicRng(std::uint64_t seed = kSplitMix64Gamma)
        : engine_(seed)
    {}

    /** Derive an independent child stream (for per-component RNGs). */
    BasicRng
    fork()
    {
        return BasicRng(engine_());
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return std::uniform_real_distribution<double>(lo, hi)(engine_);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    uniformInt(std::int64_t lo, std::int64_t hi)
    {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
    }

    /** Normal deviate with the given mean and standard deviation. */
    double
    normal(double mean, double stddev)
    {
        return std::normal_distribution<double>(mean, stddev)(engine_);
    }

    /** Exponential deviate with the given rate (1/mean). */
    double
    exponential(double rate)
    {
        return std::exponential_distribution<double>(rate)(engine_);
    }

    /**
     * Bounded Pareto deviate in [lo, hi] with tail index alpha.
     * Used for heavy-tailed task durations and CPU demands.
     */
    double boundedPareto(double alpha, double lo, double hi);

    /** Bernoulli trial with success probability p. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /** Access the raw engine (for std::shuffle etc.). */
    Engine &engine() { return engine_; }

  private:
    Engine engine_;
};

extern template class BasicRng<std::mt19937_64>;
extern template class BasicRng<SplitMix64>;
extern template class BasicRng<Xoshiro256pp>;
extern template class BasicRng<CounterRng>;

/** The historical simulation RNG: distributions over mt19937_64. */
using Rng = BasicRng<std::mt19937_64>;

} // namespace pad

#endif // PAD_UTIL_RANDOM_H
