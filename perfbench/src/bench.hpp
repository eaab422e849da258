/**
 * @file
 * Shared pieces of the cheriperf benchmark harness: the metric sheet
 * a run prints, the attempted/failed tally, order statistics, and the
 * in-memory span recorder used by traced runs.
 *
 * The harness drives the library only through the public functions
 * of each layer; every span is recorded here, around those calls,
 * never inside the library.
 */

#ifndef CHERI_PERFBENCH_BENCH_HPP
#define CHERI_PERFBENCH_BENCH_HPP

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "analysis/metrics.hpp"
#include "pmu/counts.hpp"
#include "runner/runner.hpp"
#include "support/stats.hpp"
#include "support/telemetry.hpp"
#include "support/types.hpp"

namespace cheri::perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** What one invocation was asked to do (see main.cpp for flags). */
struct RunArgs
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string workDir;  //!< Scratch space (result caches).
    std::string traceOut; //!< Traced run: where the span file goes.
};

/** One named metric with its unit, in print order. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

class Sheet
{
  public:
    void
    set(const std::string &name, double value, const std::string &unit)
    {
        for (Metric &m : metrics_)
            if (m.name == name) {
                m.value = value;
                m.unit = unit;
                return;
            }
        metrics_.push_back({name, value, unit});
    }

    const std::vector<Metric> &metrics() const { return metrics_; }

  private:
    std::vector<Metric> metrics_;
};

/**
 * Operations attempted and failed. One operation is one timed unit
 * (a cell execution or a served job) or one set-up cell; it fails
 * when any check on it fails. Expected NA cells are correct outcomes.
 */
class Tally
{
  public:
    /** Count one operation; @p problems empty means it passed. */
    void
    record(const std::string &unit,
           const std::vector<std::string> &problems)
    {
        ++attempted_;
        if (problems.empty())
            return;
        ++failed_;
        // The first few reasons are enough to debug a failing run.
        if (failed_ <= 5)
            for (const auto &p : problems)
                std::fprintf(stderr, "perfbench: FAIL %s: %s\n",
                             unit.c_str(), p.c_str());
    }

    u64 attempted() const { return attempted_; }
    u64 failed() const { return failed_; }

  private:
    u64 attempted_ = 0;
    u64 failed_ = 0;
};

/** Linear-interpolated order statistic, @p q in [0, 1]. */
double percentile(std::vector<double> values, double q);

/** Host seconds of each unit in each round: samples[unit][round]. */
struct UnitTimes
{
    std::vector<std::vector<double>> samples;

    explicit UnitTimes(std::size_t units = 0) : samples(units) {}

    void
    add(std::size_t unit, double s)
    {
        if (unit >= samples.size())
            samples.resize(unit + 1);
        samples[unit].push_back(s);
    }

    /** One pass: each unit at its median across rounds, summed. */
    double passSeconds() const;

    /** Per-unit medians (the estimator behind passSeconds). */
    std::vector<double> unitMedians() const;

    /** Every sample of every round, pooled. */
    std::vector<double> pooled() const;
};

/**
 * Set-up is done this many times per run. The first time is before
 * the first round; the others are spread over the run between rounds
 * (see setupDue), so that they see the same host as the rounds do.
 * setup_s sums each set-up step at its median across the times, the
 * estimator pass_s uses.
 */
constexpr int kSetupReps = 5;

/** Worker threads for runner.parallel_eff; the process stays <= 3. */
constexpr u32 kParallelJobs = 3;

/**
 * Whether to start another round after @p done rounds: at least three
 * (a median needs three; traced runs four, two untraced and two
 * traced), then only while one more average round fits in --seconds.
 */
bool anotherRound(Clock::time_point start, int done, const RunArgs &args);

/**
 * Whether set-up repetition number @p done is due after a round: the
 * repetitions after the first fall at even shares of --seconds, at
 * most one between two rounds. A run that ends before they are all
 * due makes the rest after its last round.
 */
bool setupDue(Clock::time_point start, int done, const RunArgs &args);

/** runner.parallel_eff: @p plan on kParallelJobs workers against one. */
double parallelEfficiency(const runner::ExperimentPlan &plan);

/**
 * Host-speed probe. The benchmark runs on shared hosts whose speed
 * swings by a quarter and more in phases longer than a run, so that
 * every unit of a run is slow together: no estimator inside the run
 * can remove it. The probe is a fixed kernel of the harness's own,
 * never of the library: random read-modify-writes with data-dependent
 * branches over a table larger than a core's L2, so the host's cache
 * and memory contention slows it as it slows the simulator. It is
 * timed between units whenever kProbeEverySeconds have passed since
 * the last sample, over the whole run, set-up included. Every
 * end-to-end time is host seconds times scale(): seconds at the
 * speed the probe's median sample reads kProbeRefSeconds.
 */
class HostProbe
{
  public:
    HostProbe();

    /** After a unit: take a sample if one is due. */
    void tick();

    /** kProbeRefSeconds over the median sample (times multiply by
     *  it, rates divide); takes a sample if there is none yet. */
    double scale();

    /** Median sample in seconds. */
    double medianSeconds();

    std::size_t samples() const { return samples_.size(); }

  private:
    void sample();

    std::vector<u64> table_;
    std::vector<double> samples_;
    Clock::time_point last_;
};

/** Time between probe samples, and the speed times are scaled to:
 *  about the probe's median on the 4-vCPU Xeon (Sapphire Rapids) KVM
 *  guest the bounds were tuned on, where one sample takes 4.5-6 ms. */
constexpr double kProbeEverySeconds = 0.1;
constexpr double kProbeRefSeconds = 0.005;

/** Span round of everything recorded during set-up. */
constexpr u32 kSetupRound = 0xffffffffu;

/** One recorded span. Times are ns since the recorder was made. */
struct Span
{
    const char *name = nullptr;
    u32 round = 0;
    u64 unit = 0;     //!< Cell or job index within the pass.
    s64 parent = -1;  //!< Index of the enclosing span, -1 at the top.
    s64 startNs = 0;
    s64 endNs = 0;
};

/**
 * Span recorder. Single-threaded by design: only the harness thread
 * that calls into the library records, so no locking. Disabled, a
 * scope costs one branch and no clock read.
 */
class Tracer
{
  public:
    class Scope
    {
      public:
        Scope(Tracer *tracer, const char *name, u64 unit);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_;
        std::size_t index_ = 0;
    };

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }
    void setRound(u32 round) { round_ = round; }

    /** RAII span around one call; inert while disabled. */
    Scope
    scope(const char *name, u64 unit = 0)
    {
        return Scope(enabled_ ? this : nullptr, name, unit);
    }

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Self time of every span, in recording order: its duration minus
     * the part its direct children cover (children never overlap: one
     * thread, nested scopes).
     */
    std::vector<double> selfNs() const;

    /** Median duration in microseconds of the spans named @p name. */
    double medianMicros(const char *name) const;

    /** Summed duration in seconds of the direct children of span
     *  @p parent (an index into spans()). */
    double childSeconds(std::size_t parent) const;

  private:
    s64 nowNs() const;

    bool enabled_ = false;
    u32 round_ = 0;
    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<std::size_t> stack_;
};

/** What a workload hands back to main(). */
struct Outcome
{
    Sheet endToEnd;
    Sheet perLayer;
    Tally tally;
    HostProbe probe;
    std::size_t rounds = 0;       //!< Timed rounds, traced ones included.
    std::size_t samples = 0;      //!< Untraced unit timings behind job_p*.
    std::size_t tracedRounds = 0;
    double overhead = 0; //!< Traced over untraced pass seconds.
    /** Layer self time of the traced rounds over the untraced pass. */
    double coverage = 0;
};

/**
 * Problems when analysis::DerivedMetrics::compute of @p counts does
 * not reproduce @p metrics field for field (span "analysis.derive").
 */
std::vector<std::string> checkDerived(const pmu::EventCounts &counts,
                                      const analysis::DerivedMetrics &metrics,
                                      Tracer &tracer, u64 unit);

/** Peak resident set of this process, MiB. */
double peakRssMib();

/** Write the traced-run file: spans, self times and counters. */
bool writeTraceFile(const std::string &path, const RunArgs &args,
                    const Outcome &outcome, const Tracer &tracer,
                    const std::map<std::string, double> &selfPerPass,
                    double tolerance);

/**
 * Per-layer metrics every traced run prints, name and unit; a layer
 * that does no work on a workload reads 0. BENCHMARK.json lists the
 * same names and units, and run.py refuses a run whose output differs
 * from it.
 */
const std::vector<std::pair<std::string, std::string>> &
perLayerCatalogue();

/** PMU counts per kilo-instruction plus the mem-layer telemetry. */
void countMetrics(Sheet &sheet, const pmu::EventCounts &counts,
                  const telemetry::HotPathStats &tel);

/**
 * Mean absolute error of the simulated purecap/hybrid and
 * benchmark/hybrid time ratios against WorkloadInfo::paperTime*.
 * @p cells are completed default-allocator cells with their simulated
 * seconds; ratios pair cells of one workload and seed. NA cells and
 * unreported paper times drop out.
 */
double paperRatioMae(
    const std::vector<std::pair<runner::RunRequest, double>> &cells);

Outcome runEngine(const RunArgs &args, Tracer &tracer);
Outcome runServeMix(const RunArgs &args, Tracer &tracer);

} // namespace cheri::perfbench

#endif // CHERI_PERFBENCH_BENCH_HPP
