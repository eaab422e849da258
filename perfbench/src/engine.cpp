/**
 * @file
 * The engine workloads, paper-exact and approx-ref: fixed cell lists
 * run cold (no result cache) one at a time through runner::run, in
 * interleaved rounds. Each cell counts at its median across rounds.
 *
 * paper-exact is every cell make_report needs for Figure 1 and
 * Tables 3/4 (21 workloads x 3 ABIs, Small) plus the 21 allocator-
 * interference cells. The full hierarchy walk, the inline caches, the
 * pipeline, the tag table and the revoker carry it. approx-ref is the
 * same registry at Ref scale with 1-in-1000 epoch sampling, where
 * the kernels, DynLowering and the skip path carry the time and the
 * memory walk barely runs.
 */

#include <algorithm>
#include <optional>

#include "bench.hpp"
#include "runner/runner.hpp"
#include "support/hash.hpp"
#include "verify/invariants.hpp"
#include "workloads/registry.hpp"

namespace cheri::perfbench {

namespace {

/** Sampling of approx-ref: `cheriperf sweep --approx=1000`. */
trace::ApproxConfig
refApprox()
{
    trace::ApproxConfig a;
    a.enabled = true;
    a.rate = 1000;
    a.epoch_insts = 100'000;
    return a;
}

/**
 * The functional leg of the traced paper-exact run: short epochs so
 * that almost every instruction skips the timing model, leaving the
 * kernels, lowering and skip path.
 */
trace::ApproxConfig
functionalApprox()
{
    trace::ApproxConfig a;
    a.enabled = true;
    a.rate = 1000;
    a.epoch_insts = 10'000;
    return a;
}

/** Every ABI of a workload shares one seed, so ABI ratios compare
 *  identical instruction streams. */
u64
cellSeed(u64 seed, const std::string &workload)
{
    return Fnv1a().add(std::string_view("perfbench.cell"))
        .add(seed)
        .add(std::string_view(workload))
        .value();
}

struct Cell
{
    runner::RunRequest request;
    bool expectNa = false;
    std::string label;
};

std::vector<Cell>
engineCells(const std::string &workload, u64 seed, workloads::Scale scale)
{
    const bool approx = workload == "approx-ref";
    std::vector<Cell> cells;
    const auto pool = workloads::allWorkloads();
    for (const auto &w : pool) {
        const auto &info = w->info();
        for (abi::Abi abi : abi::kAllAbis) {
            Cell c;
            c.request.workload = info.name;
            c.request.abi = abi;
            c.request.scale = scale;
            c.request.seed = cellSeed(seed, info.name);
            if (approx)
                c.request.approx = refApprox();
            c.expectNa = !w->supports(abi);
            c.label = info.name + "/" + abi::abiName(abi);
            cells.push_back(std::move(c));
        }
    }
    if (approx)
        return cells;

    // make_report's allocator-interference table: the Table 4 set
    // plus the box-churning interpreter, purecap, each non-default
    // allocator, revocation with a 64 KiB quarantine so sweeps fire.
    // QuickJS is left out: its revoking cell retires 10.8M-16M
    // instructions (2.8-5.3 s of host time) depending on the seed, a
    // third of the pass, so it alone would move pass_s by about 9%
    // between seeds. The revoker still sweeps on the other six.
    std::vector<std::string> names;
    for (const auto &name : workloads::table4Names())
        if (name != "QuickJS")
            names.push_back(name);
    names.push_back("Interp.boxvm");
    for (const auto &name : names) {
        for (const char *alloc_name :
             {"bump", "sizeclass", "freelist+revoke"}) {
            Cell c;
            c.request.workload = name;
            c.request.abi = abi::Abi::Purecap;
            c.request.scale = scale;
            c.request.seed = cellSeed(seed, name);
            c.request.allocator = *alloc::parseAllocator(alloc_name);
            if (c.request.allocator.revoke)
                c.request.allocator.quarantine_kib = 64;
            c.request.config =
                sim::MachineConfig::forAbi(abi::Abi::Purecap);
            c.label = name + "/purecap/" + alloc_name;
            cells.push_back(std::move(c));
        }
    }
    return cells;
}

/** What round 0 saw of a cell; later rounds must match it exactly. */
struct Reference
{
    bool ok = false;
    pmu::EventCounts counts{};
    u64 instructions = 0;
    Cycles cycles = 0;
    double simSeconds = 0;
};

/**
 * The run invariants. An approx cell's counts are a stratified
 * estimate: each event is extrapolated on its own, so exact laws such
 * as SLOTS_TOTAL == CPU_CYCLES x width can miss by rounding. There the
 * count laws are checked on the intervals that were simulated in full
 * (ApproxReport::simulatedTotals), and the whole-run estimate only on
 * the identities the runner makes exact.
 */
std::vector<std::string>
invariantProblems(const runner::RunResult &result)
{
    std::vector<std::string> out;
    if (!result.approx) {
        for (const auto &v : verify::checkRunInvariants(result))
            out.push_back("invariant " + v.name + ": " + v.detail);
        return out;
    }
    // simulatedTotals sums per-epoch deltas whose stall and cycle
    // counts are each rounded from float accumulators on their own, so
    // the rounding slack scales with the epochs summed, as it does with
    // the lanes of a co-run aggregate.
    const auto &report = result.approx->report;
    const u32 width = result.request.resolvedConfig().pipe.width;
    const auto epochs =
        static_cast<u32>(std::max<u64>(report.epochsSimulated, 1));
    for (const auto &v : verify::checkCountInvariants(
             report.simulatedTotals, width, epochs))
        out.push_back("simulated-interval invariant " + v.name + ": " +
                      v.detail);
    const auto &sim = *result.sim;
    if (sim.instructions != sim.counts.get(pmu::Event::InstRetired) ||
        sim.cycles != sim.counts.get(pmu::Event::CpuCycles) ||
        report.totalInsts != sim.instructions ||
        report.sampledInsts > report.totalInsts ||
        report.epochsSampled > report.epochsSimulated ||
        report.epochsSimulated > report.epochsTotal)
        out.push_back("approx accounting is inconsistent");
    return out;
}

std::vector<std::string>
checkCell(const Cell &cell, const runner::RunResult &result,
          const std::optional<Reference> &ref, Tracer &tracer, u64 unit)
{
    std::vector<std::string> problems;
    if (result.ok() == cell.expectNa) {
        problems.push_back(cell.expectNa ? "expected NA, got a result"
                                         : "unexpected NA");
        return problems;
    }
    if (!result.ok())
        return problems;
    if (result.sim->fault)
        problems.push_back("capability fault");
    {
        auto span = tracer.scope("verify.invariants", unit);
        for (const auto &v : invariantProblems(result))
            problems.push_back(v);
    }
    for (auto &p : checkDerived(result.sim->counts, result.metrics, tracer,
                                unit))
        problems.push_back(std::move(p));
    if (cell.request.approx.enabled != result.approx.has_value())
        problems.push_back("approx report missing or unexpected");
    if (ref && (!(ref->counts == result.sim->counts) ||
                ref->instructions != result.sim->instructions ||
                ref->cycles != result.sim->cycles))
        problems.push_back("counts differ from round 0");
    return problems;
}

/** The cell list at Tiny scale, the cells set-up runs. */
runner::ExperimentPlan
warmupPlan(const std::vector<Cell> &cells)
{
    runner::ExperimentPlan plan;
    for (const auto &c : cells) {
        runner::RunRequest r = c.request;
        r.scale = workloads::Scale::Tiny;
        plan.add(std::move(r));
    }
    return plan;
}

} // namespace

Outcome
runEngine(const RunArgs &args, Tracer &tracer)
{
    Outcome out;
    tracer.setRound(kSetupRound);

    // Set-up: build the cell list and run it once at Tiny scale, so
    // code, allocator arenas and lazily built tables are warm before
    // the first timed cell. Done kSetupReps times over the run; its
    // steps are the list (unit 0), then each cell.
    std::vector<Cell> cells;
    UnitTimes setup;
    int setupReps = 0;
    const auto setUp = [&] {
        const auto t0 = Clock::now();
        cells = engineCells(args.workload, args.seed,
                            args.workload == "approx-ref"
                                ? workloads::Scale::Ref
                                : workloads::Scale::Small);
        setup.add(0, secondsBetween(t0, Clock::now()));
        for (std::size_t i = 0; i < cells.size(); ++i) {
            Cell tiny = cells[i];
            tiny.request.scale = workloads::Scale::Tiny;
            runner::RunResult result;
            const auto c0 = Clock::now();
            {
                auto span = tracer.scope("runner.run", i);
                result = runner::run(tiny.request);
            }
            setup.add(i + 1, secondsBetween(c0, Clock::now()));
            out.tally.record("setup " + tiny.label,
                             checkCell(tiny, result, std::nullopt, tracer,
                                       i));
            out.probe.tick();
        }
        ++setupReps;
    };
    setUp();

    const std::size_t n = cells.size();
    UnitTimes plain(n), traced(n), layer(n);
    std::vector<Reference> refs(n);
    pmu::EventCounts totals{};
    u64 instructions = 0;
    telemetry::HotPathStats tel{};
    u64 sampledInsts = 0, approxInsts = 0;

    const auto start = Clock::now();
    for (int round = 0;; ++round) {
        // Traced runs alternate untraced and traced rounds so the
        // tracing overhead is measured in one process.
        const bool on = args.trace && round % 2 == 0;
        tracer.setEnabled(on);
        tracer.setRound(static_cast<u32>(round));
        telemetry::reset();
        for (std::size_t i = 0; i < n; ++i) {
            runner::RunResult result;
            const std::size_t first = tracer.spans().size();
            const auto t0 = Clock::now();
            {
                auto unit = tracer.scope("bench.unit", i);
                auto span = tracer.scope("runner.run", i);
                result = runner::run(cells[i].request);
            }
            const double dt = secondsBetween(t0, Clock::now());
            (on ? traced : plain).add(i, dt);
            if (on)
                layer.add(i, tracer.childSeconds(first));
            std::optional<Reference> ref;
            if (round > 0)
                ref = refs[i];
            out.tally.record(cells[i].label,
                             checkCell(cells[i], result, ref, tracer, i));
            out.probe.tick();
            if (round == 0 && result.ok()) {
                Reference &r = refs[i];
                r.ok = true;
                r.counts = result.sim->counts;
                r.instructions = result.sim->instructions;
                r.cycles = result.sim->cycles;
                r.simSeconds = result.sim->seconds;
                totals += result.sim->counts;
                instructions += result.sim->instructions;
                if (result.approx) {
                    sampledInsts += result.approx->report.sampledInsts;
                    approxInsts += result.approx->report.totalInsts;
                }
            }
        }
        if (round == 0)
            tel = telemetry::snapshot();

        tracer.setEnabled(false);
        tracer.setRound(kSetupRound);
        if (setupDue(start, setupReps, args))
            setUp();
        if (!anotherRound(start, round + 1, args))
            break;
    }
    while (setupReps < kSetupReps)
        setUp();
    const double setupS = setup.passSeconds();

    // A cell is a job here. With under 100 cells no percentile above
    // p90 has ten samples beyond it, so the percentiles are taken over
    // the per-cell medians, like pass_s: p99 is the slowest cells.
    // End-to-end times are at the probe's reference speed.
    const double passS = plain.passSeconds();
    const auto cellMedians = plain.unitMedians();
    const double host = out.probe.scale();
    Sheet &e2e = out.endToEnd;
    e2e.set("pass_s", host * passS, "s");
    e2e.set("sim_mips",
            static_cast<double>(instructions) / (host * passS) / 1e6,
            "MIPS");
    e2e.set("jobs_per_s", static_cast<double>(n) / (host * passS), "1/s");
    e2e.set("job_p50_ms", host * 1e3 * percentile(cellMedians, 0.50),
            "ms");
    e2e.set("job_p99_ms", host * 1e3 * percentile(cellMedians, 0.99),
            "ms");
    e2e.set("setup_s", host * setupS, "s");
    std::vector<std::pair<runner::RunRequest, double>> simSeconds;
    for (std::size_t i = 0; i < n; ++i)
        if (refs[i].ok &&
            cells[i].request.allocator == alloc::AllocatorConfig{})
            simSeconds.emplace_back(cells[i].request, refs[i].simSeconds);
    e2e.set("paper_ratio_mae", paperRatioMae(simSeconds), "ratio");
    out.samples = plain.pooled().size();
    out.tracedRounds = traced.samples[0].size();
    out.rounds = plain.samples[0].size() + out.tracedRounds;
    e2e.set("peak_rss_mib", peakRssMib(), "MiB");
    if (!args.trace)
        return out;

    // ---- Traced run only: per-layer numbers. -----------------------
    Sheet &pl = out.perLayer;
    countMetrics(pl, totals, tel);

    // alloc: tag writes the revoker adds over the default allocator.
    using E = pmu::Event;
    double revokeWr = 0, revokeKi = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const auto &req = cells[i].request;
        if (!req.allocator.revoke || !refs[i].ok)
            continue;
        for (std::size_t j = 0; j < n; ++j) {
            const auto &base = cells[j].request;
            if (!refs[j].ok || base.workload != req.workload ||
                base.abi != req.abi ||
                base.allocator != alloc::AllocatorConfig{})
                continue;
            revokeWr += refs[i].counts.getF(E::MemAccessWrCtag) -
                        refs[j].counts.getF(E::MemAccessWrCtag);
            revokeKi += refs[i].counts.getF(E::InstRetired) / 1e3;
        }
    }
    pl.set("alloc.revoke_tag_wr_pki",
           revokeKi > 0 ? revokeWr / revokeKi : 0, "per_ki");

    // engine: the functional leg, the same cells with the timing model
    // skipped for almost every epoch, over the exact pass.
    double functional = 0;
    if (args.workload == "paper-exact") {
        UnitTimes leg(n);
        sampledInsts = approxInsts = 0;
        for (std::size_t i = 0; i < n; ++i) {
            runner::RunRequest r = cells[i].request;
            r.approx = functionalApprox();
            const auto t0 = Clock::now();
            const auto result = runner::run(r);
            leg.add(i, secondsBetween(t0, Clock::now()));
            if (result.approx) {
                sampledInsts += result.approx->report.sampledInsts;
                approxInsts += result.approx->report.totalInsts;
            }
        }
        functional = leg.passSeconds() / passS;
    }
    pl.set("engine.functional_share", functional, "share");
    pl.set("trace.approx_sampled_share",
           approxInsts ? static_cast<double>(sampledInsts) /
                             static_cast<double>(approxInsts)
                       : 0,
           "share");

    pl.set("runner.cell_ms_p50", 1e3 * median(cellMedians), "ms");
    pl.set("runner.cell_ms_max",
           1e3 * *std::max_element(cellMedians.begin(), cellMedians.end()),
           "ms");
    pl.set("analysis.derive_us", tracer.medianMicros("analysis.derive"),
           "us");

    pl.set("runner.parallel_eff", parallelEfficiency(warmupPlan(cells)),
           "share");

    out.overhead = traced.passSeconds() / passS;
    out.coverage = layer.passSeconds() / passS;
    return out;
}

} // namespace cheri::perfbench
