#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>

#include "bench.hpp"
#include "workloads/registry.hpp"

namespace cheri::perfbench {

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

std::vector<double>
UnitTimes::unitMedians() const
{
    std::vector<double> out;
    for (const auto &s : samples)
        if (!s.empty())
            out.push_back(median(s));
    return out;
}

double
UnitTimes::passSeconds() const
{
    double sum = 0;
    for (double m : unitMedians())
        sum += m;
    return sum;
}

std::vector<double>
UnitTimes::pooled() const
{
    std::vector<double> out;
    for (const auto &s : samples)
        out.insert(out.end(), s.begin(), s.end());
    return out;
}

bool
anotherRound(Clock::time_point start, int done, const RunArgs &args)
{
    const double elapsed = secondsBetween(start, Clock::now());
    return done < (args.trace ? 4 : 3) ||
           elapsed + elapsed / done <= args.seconds;
}

bool
setupDue(Clock::time_point start, int done, const RunArgs &args)
{
    return done < kSetupReps &&
           secondsBetween(start, Clock::now()) >=
               done * args.seconds / kSetupReps;
}

HostProbe::HostProbe() : table_(std::size_t{1} << 19), last_(Clock::now())
{
}

void
HostProbe::tick()
{
    if (secondsBetween(last_, Clock::now()) >= kProbeEverySeconds)
        sample();
}

void
HostProbe::sample()
{
    const u64 mask = table_.size() - 1;
    u64 x = 0x9e3779b97f4a7c15ull, acc = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < 400'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        u64 &slot = table_[x & mask];
        slot += x;
        if (slot & 1)
            acc += slot >> 3;
        else
            acc ^= x;
    }
    last_ = Clock::now();
    samples_.push_back(secondsBetween(t0, last_));
    // Keeps the branch results live; the table stores already are.
    table_[0] ^= acc;
}

double
HostProbe::medianSeconds()
{
    if (samples_.empty())
        sample();
    return median(samples_);
}

double
HostProbe::scale()
{
    return kProbeRefSeconds / medianSeconds();
}

double
parallelEfficiency(const runner::ExperimentPlan &plan)
{
    runner::RunnerOptions opts;
    opts.cache = false;
    opts.jobs = 1;
    const auto t0 = Clock::now();
    runner::runPlan(plan, opts);
    const auto t1 = Clock::now();
    opts.jobs = kParallelJobs;
    runner::runPlan(plan, opts);
    const auto t2 = Clock::now();
    return secondsBetween(t0, t1) /
           (kParallelJobs * secondsBetween(t1, t2));
}

Tracer::Scope::Scope(Tracer *tracer, const char *name, u64 unit)
    : tracer_(tracer)
{
    if (!tracer_)
        return;
    Span span;
    span.name = name;
    span.round = tracer_->round_;
    span.unit = unit;
    span.parent = tracer_->stack_.empty()
                      ? -1
                      : static_cast<s64>(tracer_->stack_.back());
    index_ = tracer_->spans_.size();
    tracer_->spans_.push_back(span);
    tracer_->stack_.push_back(index_);
    tracer_->spans_[index_].startNs = tracer_->nowNs();
}

Tracer::Scope::~Scope()
{
    if (!tracer_)
        return;
    tracer_->spans_[index_].endNs = tracer_->nowNs();
    tracer_->stack_.pop_back();
}

s64
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

std::vector<double>
Tracer::selfNs() const
{
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] += static_cast<double>(spans_[i].endNs - spans_[i].startNs);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -=
                static_cast<double>(s.endNs - s.startNs);
    return self;
}

double
Tracer::medianMicros(const char *name) const
{
    std::vector<double> us;
    for (const Span &s : spans_)
        if (std::string_view(s.name) == name)
            us.push_back(1e-3 * static_cast<double>(s.endNs - s.startNs));
    return median(us);
}

double
Tracer::childSeconds(std::size_t parent) const
{
    double ns = 0;
    for (std::size_t i = parent + 1; i < spans_.size(); ++i)
        if (spans_[i].parent == static_cast<s64>(parent))
            ns += static_cast<double>(spans_[i].endNs - spans_[i].startNs);
    return 1e-9 * ns;
}

std::vector<std::string>
checkDerived(const pmu::EventCounts &counts,
             const analysis::DerivedMetrics &metrics, Tracer &tracer,
             u64 unit)
{
    analysis::DerivedMetrics derived;
    {
        auto span = tracer.scope("analysis.derive", unit);
        derived = analysis::DerivedMetrics::compute(counts);
    }
    std::vector<std::string> problems;
    for (const auto &field : analysis::allMetricFields()) {
        const double a = derived.*(field.member);
        const double b = metrics.*(field.member);
        if (!(a == b || (std::isnan(a) && std::isnan(b))))
            problems.push_back("derived metric " + field.name +
                               " is not reproduced");
    }
    return problems;
}

double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

const std::vector<std::pair<std::string, std::string>> &
perLayerCatalogue()
{
    static const std::vector<std::pair<std::string, std::string>> k = {
        {"mem.data_full_pki", "per_ki"},
        {"mem.data_fast_share", "share"},
        {"mem.fetch_full_pki", "per_ki"},
        {"mem.uncore_full_pki", "per_ki"},
        {"mem.l1d_refill_pki", "per_ki"},
        {"mem.l2_refill_pki", "per_ki"},
        {"mem.llc_miss_pki", "per_ki"},
        {"mem.dtlb_walk_pki", "per_ki"},
        {"mem.tag_rd_pki", "per_ki"},
        {"mem.tag_wr_pki", "per_ki"},
        {"uarch.spec_per_retired", "ratio"},
        {"uarch.br_mispred_pki", "per_ki"},
        {"engine.functional_share", "share"},
        {"trace.approx_sampled_share", "share"},
        {"alloc.revoke_tag_wr_pki", "per_ki"},
        {"runner.cell_ms_p50", "ms"},
        {"runner.cell_ms_max", "ms"},
        {"runner.cache_load_us", "us"},
        {"runner.cache_store_us", "us"},
        {"runner.fingerprint_us", "us"},
        {"runner.parallel_eff", "share"},
        {"analysis.derive_us", "us"},
        {"serve.parse_us", "us"},
        {"serve.submit_us", "us"},
        {"serve.replay_p50_ms", "ms"},
        {"serve.repeat_p50_ms", "ms"},
        {"serve.fresh_p50_ms", "ms"},
        {"serve.queue_p99_ms", "ms"},
        {"serve.simulated", "count"},
        {"serve.disk_hits", "count"},
        {"serve.memo_hits", "count"},
        {"serve.inflight_dedup", "count"},
        {"serve.dedup_ratio", "share"},
        {"self_s.runner.run", "s"},
        {"self_s.serve.parse", "s"},
        {"self_s.serve.submit", "s"},
        {"self_s.serve.wait", "s"},
        {"self_s.bench.unit", "s"},
        {"bench.trace_overhead", "ratio"},
        {"bench.self_time_coverage", "ratio"},
        {"bench.host_probe_ms", "ms"},
    };
    return k;
}

void
countMetrics(Sheet &sheet, const pmu::EventCounts &c,
             const telemetry::HotPathStats &t)
{
    using E = pmu::Event;
    const double ki = c.getF(E::InstRetired) / 1e3;
    const auto pki = [&](double v) { return ki > 0 ? v / ki : 0; };
    sheet.set("mem.data_full_pki", pki(static_cast<double>(t.data_full)),
              "per_ki");
    sheet.set("mem.data_fast_share", t.dataCoverage(), "share");
    sheet.set("mem.fetch_full_pki", pki(static_cast<double>(t.fetch_full)),
              "per_ki");
    sheet.set("mem.uncore_full_pki",
              pki(static_cast<double>(t.uncore_full)), "per_ki");
    sheet.set("mem.l1d_refill_pki", pki(c.getF(E::L1dCacheRefill)),
              "per_ki");
    sheet.set("mem.l2_refill_pki", pki(c.getF(E::L2dCacheRefill)),
              "per_ki");
    sheet.set("mem.llc_miss_pki", pki(c.getF(E::LlCacheMissRd)), "per_ki");
    sheet.set("mem.dtlb_walk_pki", pki(c.getF(E::DtlbWalk)), "per_ki");
    sheet.set("mem.tag_rd_pki", pki(c.getF(E::MemAccessRdCtag)), "per_ki");
    sheet.set("mem.tag_wr_pki", pki(c.getF(E::MemAccessWrCtag)), "per_ki");
    sheet.set("uarch.spec_per_retired",
              ki > 0 ? c.getF(E::InstSpec) / c.getF(E::InstRetired) : 0,
              "ratio");
    sheet.set("uarch.br_mispred_pki", pki(c.getF(E::BrMisPredRetired)),
              "per_ki");
}

double
paperRatioMae(const std::vector<std::pair<runner::RunRequest, double>> &cells)
{
    const auto pool = workloads::allWorkloads();
    const auto seconds = [&](const runner::RunRequest &like, abi::Abi abi) {
        for (const auto &[req, s] : cells)
            if (req.workload == like.workload && req.seed == like.seed &&
                req.abi == abi)
                return s;
        return 0.0;
    };
    double sum = 0;
    int n = 0;
    for (const auto &[req, hybrid] : cells) {
        if (req.abi != abi::Abi::Hybrid || hybrid <= 0)
            continue;
        const auto *w = workloads::findWorkload(pool, req.workload);
        const auto &info = w->info();
        if (info.paperTimeHybrid <= 0)
            continue;
        const std::pair<abi::Abi, double> others[] = {
            {abi::Abi::Purecap, info.paperTimePurecap},
            {abi::Abi::Benchmark, info.paperTimeBenchmark}};
        for (const auto &[abi, paper] : others) {
            const double s = seconds(req, abi);
            if (s <= 0 || paper <= 0)
                continue;
            sum += std::fabs(s / hybrid - paper / info.paperTimeHybrid);
            ++n;
        }
    }
    return n ? sum / n : 0;
}

namespace {

void
jsonString(std::ostream &os, std::string_view s)
{
    os << '"';
    for (char c : s) {
        if (c == '"' || c == '\\')
            os << '\\';
        os << c;
    }
    os << '"';
}

} // namespace

bool
writeTraceFile(const std::string &path, const RunArgs &args,
               const Outcome &outcome, const Tracer &tracer,
               const std::map<std::string, double> &selfPerPass,
               double tolerance)
{
    std::ofstream os(path);
    if (!os)
        return false;
    os.precision(17);
    os << "{\"workload\":";
    jsonString(os, args.workload);
    os << ",\"seed\":" << args.seed << ",\"seconds\":" << args.seconds
       << ",\"traced_rounds\":" << outcome.tracedRounds
       << ",\"trace_overhead\":" << outcome.overhead
       << ",\"self_time_coverage\":" << outcome.coverage
       << ",\"coverage_tolerance\":" << tolerance;
    os << ",\"self_s_per_pass\":{";
    bool first = true;
    for (const auto &[name, s] : selfPerPass) {
        os << (first ? "" : ",");
        first = false;
        jsonString(os, name);
        os << ':' << s;
    }
    os << "},\"per_layer\":{";
    first = true;
    for (const Metric &m : outcome.perLayer.metrics()) {
        os << (first ? "" : ",");
        first = false;
        jsonString(os, m.name);
        os << ":{\"value\":" << m.value << ",\"unit\":";
        jsonString(os, m.unit);
        os << '}';
    }
    os << "},\"span_fields\":[\"name\",\"round\",\"unit\",\"parent\","
          "\"start_ns\",\"end_ns\",\"self_ns\"],\"spans\":[";
    const auto self = tracer.selfNs();
    const auto &spans = tracer.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << (i ? ",\n[" : "\n[");
        jsonString(os, s.name);
        os << ',';
        if (s.round == kSetupRound)
            os << "\"setup\"";
        else
            os << s.round;
        os << ',' << s.unit << ',' << s.parent << ',' << s.startNs << ','
           << s.endNs << ',' << static_cast<s64>(self[i]) << ']';
    }
    os << "]}\n";
    return static_cast<bool>(os);
}

} // namespace cheri::perfbench
