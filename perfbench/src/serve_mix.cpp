/**
 * @file
 * The serve-mix workload: an in-process ExperimentService with two
 * workers over a result cache warmed in set-up, driven by one client
 * thread in a closed loop (the next job is sent when the previous one
 * is answered) with a seeded stream of JobSpec JSON lines. No TCP:
 * loopback socket cost is out of scope.
 *
 * Three job classes, sized so the median job is a replay and the p99
 * job is a fresh one:
 *   replay  first submission of a single cell that is on disk; the
 *           service reads its .cpr file;
 *   repeat  a job already answered this round; in-memory dedup plus
 *           the CSV render;
 *   fresh   one workload x all ABIs at a seed never seen; simulates
 *           and writes .cpr files next to the replays' reads.
 *
 * Every round runs the same stream against a new service over the
 * same warm directory, so each job counts at its median across
 * rounds; fresh jobs draw new seeds every round and stay fresh.
 */

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "bench.hpp"
#include "runner/runner.hpp"
#include "serve/protocol.hpp"
#include "serve/render.hpp"
#include "serve/service.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"
#include "verify/invariants.hpp"
#include "workloads/registry.hpp"

namespace cheri::perfbench {

namespace {

constexpr u32 kWorkers = 2;
constexpr int kWarmSeeds = 2;       //!< Warm cells: 2 seeds x 62 cells.
/** With 124 replays and 21 fresh jobs this adds 65 repeats: shares of
 *  59/31/10%, so the median job is a replay and the p99 one fresh. */
constexpr double kRepeatShare = 0.31;
/** Round 0 re-runs every fresh job and this share of the others
 *  through runner::run for the byte comparison. */
constexpr double kCheckShare = 0.10;

enum class JobClass { Replay, Repeat, Fresh };

const char *
className(JobClass c)
{
    switch (c) {
      case JobClass::Replay: return "replay";
      case JobClass::Repeat: return "repeat";
      case JobClass::Fresh: return "fresh";
    }
    return "?";
}

/** Seeds travel as JSON numbers; keep them exact in a double. */
u64
derivedSeed(u64 seed, std::string_view what, u64 a, u64 b = 0)
{
    return Fnv1a().add(std::string_view("perfbench.serve"))
               .add(seed)
               .add(what)
               .add(a)
               .add(b)
               .value() &
           0x7fffffffULL;
}

struct StreamJob
{
    JobClass cls = JobClass::Replay;
    std::size_t warmCell = 0; //!< Replay: index into the warm cells.
    std::string workload;     //!< Fresh: the workload swept.
    std::size_t repeatOf = 0; //!< Repeat: earlier stream position.
};

struct WarmCell
{
    runner::RunRequest request;
    std::string label;
};

std::vector<WarmCell>
warmCells(u64 seed)
{
    std::vector<WarmCell> out;
    const auto pool = workloads::allWorkloads();
    for (int k = 0; k < kWarmSeeds; ++k)
        for (const auto &w : pool)
            for (abi::Abi abi : abi::kAllAbis) {
                if (!w->supports(abi))
                    continue;
                WarmCell c;
                c.request.workload = w->info().name;
                c.request.abi = abi;
                c.request.scale = workloads::Scale::Tiny;
                c.request.seed = derivedSeed(seed, "warm", k);
                c.label = c.request.workload + "/" + abi::abiName(abi);
                out.push_back(std::move(c));
            }
    return out;
}

/**
 * The job stream: every warm cell replayed once, one fresh job per
 * workload, and repeats of earlier jobs, in a seeded order. Its
 * composition does not depend on the seed; only order and seeds do.
 */
std::vector<StreamJob>
makeStream(u64 seed, std::size_t warm)
{
    const auto pool = workloads::allWorkloads();
    std::vector<StreamJob> firsts;
    for (std::size_t i = 0; i < warm; ++i)
        firsts.push_back({JobClass::Replay, i, {}, 0});
    for (const auto &w : pool)
        firsts.push_back({JobClass::Fresh, 0, w->info().name, 0});
    const auto repeats = static_cast<std::size_t>(
        kRepeatShare / (1 - kRepeatShare) *
        static_cast<double>(firsts.size()));

    Xoshiro256StarStar rng(derivedSeed(seed, "stream", 0));
    std::shuffle(firsts.begin(), firsts.end(), rng);
    std::vector<JobClass> order(firsts.size(), JobClass::Replay);
    order.insert(order.end(), repeats, JobClass::Repeat);
    std::shuffle(order.begin() + 1, order.end(), rng);

    std::vector<StreamJob> stream;
    std::vector<std::size_t> done;
    std::size_t next = 0;
    for (JobClass c : order) {
        if (c == JobClass::Repeat) {
            StreamJob j;
            j.cls = JobClass::Repeat;
            j.repeatOf = done[rng.nextBelow(done.size())];
            stream.push_back(j);
        } else {
            done.push_back(stream.size());
            stream.push_back(firsts[next++]);
        }
    }
    return stream;
}

serve::JobSpec
specFor(const StreamJob &job, const std::vector<WarmCell> &warm, u64 seed,
        u32 round, std::size_t position)
{
    serve::JobSpec spec;
    spec.scale = "tiny";
    if (job.cls == JobClass::Replay) {
        const auto &r = warm[job.warmCell].request;
        spec.workload = r.workload;
        spec.abi = abi::abiName(r.abi);
        spec.seed = r.seed;
    } else {
        spec.workload = job.workload;
        spec.seed = derivedSeed(seed, "fresh", round, position);
    }
    return spec;
}

/** Data rows of a sweep CSV (header dropped). */
std::vector<std::vector<std::string>>
csvRows(const std::string &csv)
{
    std::vector<std::vector<std::string>> rows;
    std::istringstream in(csv);
    std::string line;
    bool header = true;
    while (std::getline(in, line)) {
        if (header) {
            header = false;
            continue;
        }
        std::vector<std::string> fields;
        std::string field;
        std::istringstream ls(line);
        while (std::getline(ls, field, ','))
            fields.push_back(field);
        rows.push_back(std::move(fields));
    }
    return rows;
}

/** What one round of the stream answered. */
struct RoundRecord
{
    std::vector<std::string> csv;   //!< Per stream position.
    std::vector<std::string> lines; //!< The JobSpec lines sent.
    serve::ServiceStats stats;
};

std::vector<std::string>
checkJob(const StreamJob &job, const serve::JobSpec &spec,
         const std::string &csv, const RoundRecord &now,
         const RoundRecord *first, std::size_t position)
{
    std::vector<std::string> problems;
    const auto rows = csvRows(csv);
    const std::size_t want =
        spec.abi == "all" ? abi::kAllAbis.size() : 1;
    if (rows.size() != want) {
        problems.push_back("CSV has " + std::to_string(rows.size()) +
                           " rows, expected " + std::to_string(want));
        return problems;
    }
    for (const auto &row : rows)
        if (row.size() < 3 || row[0] != spec.workload ||
            (want == 1 && row[1] != spec.abi))
            problems.push_back("CSV row does not answer the job");
    if (job.cls == JobClass::Repeat && csv != now.csv[job.repeatOf])
        problems.push_back("repeat differs from its first answer");
    if (job.cls == JobClass::Replay && first &&
        csv != first->csv[position])
        problems.push_back("replay differs from round 0");
    return problems;
}

/** The job's cells through runner::run, rendered like the daemon. */
std::vector<std::string>
referenceCheck(const std::string &line, const std::string &csv,
               Tracer &tracer)
{
    std::vector<std::string> problems;
    serve::JobSpec spec;
    std::string error;
    if (!serve::parseJobSpec(line, &spec, &error))
        return {"reference parse: " + error};
    const auto cells = serve::expandJobSpec(spec, &error);
    if (cells.empty())
        return {"reference expand: " + error};
    std::vector<runner::RunResult> results;
    for (const auto &cell : cells) {
        {
            auto span = tracer.scope("runner.run");
            results.push_back(runner::run(cell));
        }
        auto span = tracer.scope("verify.invariants");
        for (const auto &v : verify::checkRunInvariants(results.back()))
            problems.push_back("invariant " + v.name + ": " + v.detail);
    }
    std::string expect;
    {
        auto span = tracer.scope("serve.render");
        expect = serve::sweepCsv(results, spec.approxColumns(),
                                 spec.allocColumns());
    }
    if (expect != csv)
        problems.push_back("served CSV differs from runner::run + "
                           "sweepCsv");
    return problems;
}

} // namespace

Outcome
runServeMix(const RunArgs &args, Tracer &tracer)
{
    Outcome out;
    namespace fs = std::filesystem;
    const fs::path warmDir = fs::path(args.workDir) / "serve-cache";

    // Set-up: warm a fresh result cache through the cache layer's own
    // calls (run, fingerprint, store) and read every entry back. Done
    // kSetupReps times over the run, each into an emptied directory
    // (rounds leave their fresh entries in it). Steps: the cell list
    // (unit 0), then each cell. The per-layer figures come from the
    // first time.
    std::vector<WarmCell> warm;
    UnitTimes setup;
    int setupReps = 0;
    std::vector<double> cellTimes;
    pmu::EventCounts totals{};
    telemetry::HotPathStats tel{};
    std::vector<std::pair<runner::RunRequest, double>> simSeconds;
    const auto warmCell = [&](const runner::ResultCache &cache,
                              std::size_t i) {
        const auto &req = warm[i].request;
        runner::RunResult result;
        const auto c0 = Clock::now();
        {
            auto span = tracer.scope("runner.run", i);
            result = runner::run(req);
        }
        if (setupReps == 0)
            cellTimes.push_back(secondsBetween(c0, Clock::now()));
        if (!result.ok())
            return std::vector<std::string>{"no result"};
        std::vector<std::string> problems;
        for (const auto &v : verify::checkRunInvariants(result))
            problems.push_back("invariant " + v.name + ": " + v.detail);
        u64 key = 0;
        {
            auto span = tracer.scope("runner.fingerprint", i);
            key = runner::cellFingerprint(req);
        }
        {
            auto span = tracer.scope("runner.cache_store", i);
            cache.store(req, key, *result.sim);
        }
        std::optional<sim::SimResult> loaded;
        {
            auto span = tracer.scope("runner.cache_load", i);
            loaded = cache.load(req, key);
        }
        if (!loaded || !(loaded->counts == result.sim->counts) ||
            loaded->instructions != result.sim->instructions ||
            loaded->cycles != result.sim->cycles) {
            problems.push_back("cache entry does not replay the run");
        } else {
            for (auto &p :
                 checkDerived(loaded->counts, result.metrics, tracer, i))
                problems.push_back(std::move(p));
        }
        if (setupReps == 0) {
            totals += result.sim->counts;
            simSeconds.emplace_back(req, result.sim->seconds);
        }
        return problems;
    };
    const auto setUp = [&] {
        std::error_code ec;
        fs::remove_all(warmDir, ec);
        telemetry::reset();
        const auto t0 = Clock::now();
        warm = warmCells(args.seed);
        const runner::ResultCache cache(warmDir.string());
        setup.add(0, secondsBetween(t0, Clock::now()));
        for (std::size_t i = 0; i < warm.size(); ++i) {
            const auto c0 = Clock::now();
            const auto problems = warmCell(cache, i);
            setup.add(i + 1, secondsBetween(c0, Clock::now()));
            out.tally.record("setup " + warm[i].label, problems);
            out.probe.tick();
        }
        if (setupReps == 0)
            tel = telemetry::snapshot();
        ++setupReps;
    };
    tracer.setRound(kSetupRound);
    setUp();

    const auto stream = makeStream(args.seed, warm.size());
    const std::size_t n = stream.size();
    UnitTimes plain(n), traced(n), layer(n);
    std::vector<double> byClass[3];
    std::vector<double> queueP99, freshInsts;
    RoundRecord first;
    serve::ServiceStats firstStats;
    u64 wantSimulated = 0, wantDisk = 0, wantMemo = 0;
    for (const auto &job : stream) {
        if (job.cls == JobClass::Replay)
            ++wantDisk;
        else if (job.cls == JobClass::Fresh)
            wantSimulated += abi::kAllAbis.size();
        else
            wantMemo += stream[job.repeatOf].cls == JobClass::Fresh
                            ? abi::kAllAbis.size()
                            : 1;
    }

    const auto start = Clock::now();
    for (u32 round = 0;; ++round) {
        const bool on = args.trace && round % 2 == 0;
        tracer.setEnabled(on);
        tracer.setRound(round);

        RoundRecord rec;
        std::vector<serve::JobSpec> specs;
        for (std::size_t i = 0; i < n; ++i) {
            specs.push_back(specFor(
                stream[i].cls == JobClass::Repeat ? stream[stream[i].repeatOf]
                                                  : stream[i],
                warm, args.seed, round,
                stream[i].cls == JobClass::Repeat ? stream[i].repeatOf : i));
            rec.lines.push_back(serve::jobSpecJsonl(specs.back()));
        }
        rec.csv.resize(n);
        std::vector<std::vector<std::string>> problems(n);
        {
            serve::ServiceConfig config;
            config.workers = kWorkers;
            config.cache_dir = warmDir.string();
            serve::ExperimentService service(config);
            for (std::size_t i = 0; i < n; ++i) {
                const std::size_t firstSpan = tracer.spans().size();
                const auto t0 = Clock::now();
                {
                    auto unit = tracer.scope("bench.unit", i);
                    serve::JobSpec spec;
                    std::string error, id;
                    bool parsed = false;
                    {
                        auto span = tracer.scope("serve.parse", i);
                        parsed =
                            serve::parseJobSpec(rec.lines[i], &spec, &error);
                    }
                    auto status = serve::SubmitStatus::BadRequest;
                    if (parsed) {
                        auto span = tracer.scope("serve.submit", i);
                        status = service.submit(spec, &id, &error);
                    }
                    if (status == serve::SubmitStatus::Accepted) {
                        auto span = tracer.scope("serve.wait", i);
                        if (auto csv = service.waitResult(id))
                            rec.csv[i] = std::move(*csv);
                    } else {
                        problems[i].push_back("submission refused: " +
                                              error);
                    }
                }
                const double dt = secondsBetween(t0, Clock::now());
                (on ? traced : plain).add(i, dt);
                if (!on)
                    byClass[static_cast<int>(stream[i].cls)].push_back(dt);
                if (on)
                    layer.add(i, tracer.childSeconds(firstSpan));
                out.probe.tick();
            }
            rec.stats = service.stats();
        }

        // Checks run after the round, outside every timed window.
        Xoshiro256StarStar pick(derivedSeed(args.seed, "check", round));
        double insts = 0;
        for (std::size_t i = 0; i < n; ++i) {
            auto &p = problems[i];
            if (p.empty())
                for (auto &q : checkJob(stream[i], specs[i], rec.csv[i], rec,
                                        round ? &first : nullptr, i))
                    p.push_back(std::move(q));
            if (p.empty() && round == 0 &&
                (stream[i].cls == JobClass::Fresh ||
                 pick.nextDouble() < kCheckShare))
                for (auto &q :
                     referenceCheck(rec.lines[i], rec.csv[i], tracer))
                    p.push_back(std::move(q));
            if (stream[i].cls == JobClass::Fresh)
                for (const auto &row : csvRows(rec.csv[i]))
                    if (row.size() > 2 && row[2] != "NA")
                        insts += std::stod(row[2]);
            out.tally.record(std::string(className(stream[i].cls)) +
                                 " job " + std::to_string(i) + " round " +
                                 std::to_string(round),
                             p);
        }
        freshInsts.push_back(insts);
        const auto &st = rec.stats;
        std::vector<std::string> statProblems;
        if (st.simulated != wantSimulated || st.cacheHits != wantDisk ||
            st.memoHits != wantMemo || st.inflightDedup != 0 ||
            st.rejectedFull + st.rejectedDraining != 0)
            statProblems.push_back("service counters: " + st.summary());
        out.tally.record("service round " + std::to_string(round),
                         statProblems);
        queueP99.push_back(st.queueLatencyP99);
        if (round == 0) {
            first = std::move(rec);
            firstStats = first.stats;
        }

        tracer.setEnabled(false);
        tracer.setRound(kSetupRound);
        if (setupDue(start, setupReps, args))
            setUp();
        if (!anotherRound(start, static_cast<int>(round) + 1, args))
            break;
    }
    while (setupReps < kSetupReps)
        setUp();
    const double setupS = setup.passSeconds();

    // End-to-end times are at the probe's reference speed.
    const double passS = plain.passSeconds();
    const auto pooled = plain.pooled();
    const double host = out.probe.scale();
    Sheet &e2e = out.endToEnd;
    e2e.set("pass_s", host * passS, "s");
    e2e.set("sim_mips", median(freshInsts) / (host * passS) / 1e6, "MIPS");
    e2e.set("jobs_per_s", static_cast<double>(n) / (host * passS), "1/s");
    e2e.set("job_p50_ms", host * 1e3 * percentile(pooled, 0.50), "ms");
    e2e.set("job_p99_ms", host * 1e3 * percentile(pooled, 0.99), "ms");
    e2e.set("setup_s", host * setupS, "s");
    e2e.set("paper_ratio_mae", paperRatioMae(simSeconds), "ratio");
    out.samples = pooled.size();
    out.tracedRounds = traced.samples[0].size();
    out.rounds = plain.samples[0].size() + out.tracedRounds;

    if (args.trace) {
        Sheet &pl = out.perLayer;
        countMetrics(pl, totals, tel);
        pl.set("runner.cell_ms_p50", 1e3 * median(cellTimes), "ms");
        pl.set("runner.cell_ms_max",
               1e3 * *std::max_element(cellTimes.begin(), cellTimes.end()),
               "ms");
        pl.set("runner.cache_load_us", tracer.medianMicros("runner.cache_load"),
               "us");
        pl.set("runner.cache_store_us",
               tracer.medianMicros("runner.cache_store"), "us");
        pl.set("runner.fingerprint_us",
               tracer.medianMicros("runner.fingerprint"), "us");
        pl.set("analysis.derive_us", tracer.medianMicros("analysis.derive"),
               "us");
        pl.set("serve.parse_us", tracer.medianMicros("serve.parse"), "us");
        pl.set("serve.submit_us", tracer.medianMicros("serve.submit"), "us");
        pl.set("serve.replay_p50_ms", 1e3 * median(byClass[0]), "ms");
        pl.set("serve.repeat_p50_ms", 1e3 * median(byClass[1]), "ms");
        pl.set("serve.fresh_p50_ms", 1e3 * median(byClass[2]), "ms");
        pl.set("serve.queue_p99_ms", 1e3 * median(queueP99), "ms");
        const auto &st = firstStats;
        pl.set("serve.simulated", static_cast<double>(st.simulated), "count");
        pl.set("serve.disk_hits", static_cast<double>(st.cacheHits), "count");
        pl.set("serve.memo_hits", static_cast<double>(st.memoHits), "count");
        pl.set("serve.inflight_dedup", static_cast<double>(st.inflightDedup),
               "count");
        pl.set("serve.dedup_ratio",
               st.cellsSubmitted
                   ? static_cast<double>(st.cacheHits + st.memoHits +
                                         st.inflightDedup) /
                         static_cast<double>(st.cellsSubmitted)
                   : 0,
               "share");

        runner::ExperimentPlan plan;
        for (const auto &c : warm)
            plan.add(c.request);
        pl.set("runner.parallel_eff", parallelEfficiency(plan), "share");

        out.overhead = traced.passSeconds() / passS;
        out.coverage = layer.passSeconds() / passS;
    }
    e2e.set("peak_rss_mib", peakRssMib(), "MiB");

    std::error_code ec;
    fs::remove_all(warmDir, ec);
    return out;
}

} // namespace cheri::perfbench
