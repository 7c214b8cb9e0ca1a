/**
 * @file
 * The benchmark's own arithmetic: clocks, nearest-rank percentiles
 * and the ten-beyond rule, seeded exact-share request schedules,
 * and the in-memory span tracer with self time.
 *
 * Nothing here knows about Marionette; perfbench/src/main.cc drives
 * the library through its public entry points and uses these
 * helpers to time and summarise what it sees.  selftest.cc checks
 * every function in this header.
 */

#ifndef PERFBENCH_LEDGER_H
#define PERFBENCH_LEDGER_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

/** CPU seconds of this process, all threads
 *  (CLOCK_PROCESS_CPUTIME_ID; 0 at process start).  Host cost is
 *  measured in these: the scheduler's share of a noisy host does
 *  not show in them. */
double cpuSeconds();

/** Wall seconds on the monotonic clock (arbitrary epoch). */
double wallSeconds();

/** Peak resident set of this process image in MiB (VmHWM of
 *  /proc/self/status; 0 when unreadable).  Not ru_maxrss: that
 *  keeps the peak of the image before execve, so a benchmark
 *  started from a larger parent would report the parent's. */
double peakRssMb();

/** 1-based nearest rank of the @p p quantile of @p n samples:
 *  ceil(p * n), clamped to [1, n].  0 when @p n is 0. */
std::size_t nearestRank(std::size_t n, double p);

/** Nearest-rank @p p quantile: the smallest sample with at least
 *  p * n samples at or below it.  0 for no samples. */
double percentile(std::vector<double> samples, double p);

/** Samples strictly above the nearest rank of the @p p quantile. */
std::size_t samplesBeyond(std::size_t n, double p);

/** A percentile is reported only with this many samples beyond
 *  it (so p90 needs at least 100 samples). */
constexpr std::size_t kMinSamplesBeyond = 10;

/** True when the @p p quantile of @p n samples has at least
 *  kMinSamplesBeyond samples beyond it. */
bool percentileSupported(std::size_t n, double p);

/** The @p p quantile of each group's samples: @p groups[i] names
 *  the group of @p values[i]. */
std::map<std::string, double>
groupPercentile(const std::vector<std::string> &groups,
                const std::vector<double> &values, double p);

/** Geometric mean of positive values; 0 for none. */
double geomean(const std::vector<double> &values);

/** Sum of @p values. */
double sum(const std::vector<double> &values);

/** splitmix64: the schedule's own generator, so the benchmark's
 *  inputs do not move when the library's RNG changes. */
class SplitMix
{
  public:
    explicit SplitMix(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /** Uniform double in [0, 1). */
    double uniform();
    /** Uniform integer in [0, bound), bound > 0. */
    std::uint64_t below(std::uint64_t bound);

  private:
    std::uint64_t state_;
};

/** One kernel's exact share of a schedule round. */
struct Share
{
    std::string kernel;
    int count = 0;
};

/** One request of a schedule. */
struct Request
{
    std::string kernel;
    int tenant = 0;
};

/**
 * Seeded source of exact-share rounds.  Every round holds each
 * kernel exactly its share's count of times, in an order the seed
 * shuffles, and each request's tenant is drawn Zipf(@p zipf) over
 * @p tenants.  A run measures whole rounds, so each kernel's share
 * of the samples is exact and a percentile's rank lands in the same
 * latency class for every seed.
 */
class Schedule
{
  public:
    Schedule(std::vector<Share> shares, std::uint64_t seed,
             int tenants = 8, double zipf = 1.1);

    std::vector<Request> nextRound();
    int roundSize() const { return roundSize_; }

  private:
    std::vector<Share> shares_;
    SplitMix rng_;
    std::vector<double> tenantCdf_;
    int roundSize_ = 0;
};

/** One timed call of a layer's public function. */
struct Span
{
    std::string name;
    double start = 0;
    double end = 0;
    /** Index of the enclosing span; -1 for a root. */
    int parent = -1;
    /** Request the span belongs to; -1 for set-up work. */
    long request = -1;

    double seconds() const { return end - start; }
};

/** In-memory span store, written out once at exit. */
class Tracer
{
  public:
    /** Open a span under the innermost open one. */
    int open(const std::string &name, long request);
    /** Close span @p id (stamps its end time). */
    void close(int id);
    /** Record an already-timed span (e.g. a compile pass read back
     *  from the compiler's report). */
    int add(const std::string &name, double start, double end,
            int parent, long request);

    const std::vector<Span> &spans() const { return spans_; }

    /** Span @p id's duration minus the part of it its children
     *  cover (overlapping children count once). */
    double selfSeconds(int id) const;

    /** Chrome trace-event JSON ("X" events, microseconds). */
    void writeChromeTrace(std::ostream &out) const;

  private:
    std::vector<Span> spans_;
    std::vector<std::vector<int>> children_;
    std::vector<int> openStack_;
};

/** RAII span: opens on construction, closes on destruction. */
class SpanScope
{
  public:
    SpanScope(Tracer &tracer, const std::string &name, long request)
        : tracer_(tracer), id_(tracer.open(name, request))
    {}
    ~SpanScope() { tracer_.close(id_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int id() const { return id_; }

  private:
    Tracer &tracer_;
    int id_;
};

/**
 * Parse the compiler's "timings" report note ("analyze 12us,
 * predicate 3us, ...") into (pass, seconds) pairs, in pass order.
 * Unparsable entries are skipped.
 */
std::vector<std::pair<std::string, double>>
parsePassTimings(const std::string &note);

} // namespace perfbench

#endif // PERFBENCH_LEDGER_H
