/**
 * @file
 * perfbench — the cheriperf benchmark harness.
 *
 *   perfbench --workload paper-exact|approx-ref|serve-mix --seed N
 *             --seconds S --trace 0|1 --work-dir DIR [--trace-out FILE]
 *
 * Prints a metric table, then as its last stdout line one JSON object
 * {"correct", "attempted", "failed", "metrics"}: the end-to-end
 * metrics untraced, the per-layer metrics traced (see README.md).
 * perfbench/run.py builds this binary and is the command to use.
 */

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.hpp"

namespace cheri::perfbench {
namespace {

/**
 * The layer spans inside each timed unit of the traced rounds, at
 * each unit's median, must add up to the untraced pass_s within this
 * share; a layer call left outside every span shows as a shortfall.
 * Traced and untraced rounds alternate in one process, so the share
 * has to hold the tracing overhead plus the host's drift between
 * rounds.
 */
constexpr double kCoverageTolerance = 0.25;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "paper-exact|approx-ref|serve-mix --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--trace-out FILE]\n",
                 why);
    std::exit(2);
}

RunArgs
parseArgs(int argc, char **argv)
{
    RunArgs args;
    bool seed = false, seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            seed = *end == '\0' && !value.empty();
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            seconds = *end == '\0' && args.seconds > 0;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            args.trace = value == "1";
        } else if (flag == "--work-dir") {
            args.workDir = value;
        } else if (flag == "--trace-out") {
            args.traceOut = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (args.workload != "paper-exact" && args.workload != "approx-ref" &&
        args.workload != "serve-mix")
        usage("unknown workload");
    if (!seed || !seconds || args.workDir.empty())
        usage("--seed, --seconds and --work-dir are required");
    return args;
}

void
printJson(const Outcome &out, const Sheet &sheet)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                out.tally.failed() == 0 ? "true" : "false",
                static_cast<unsigned long long>(out.tally.attempted()),
                static_cast<unsigned long long>(out.tally.failed()));
    bool first = true;
    for (const Metric &m : sheet.metrics()) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", m.name.c_str(), m.value,
                    m.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
}

/**
 * Traced run: self time per span name for one pass (traced rounds
 * only), the tracing overhead and the coverage check.
 */
std::map<std::string, double>
finishTrace(Outcome &out, const Tracer &tracer)
{
    std::map<std::string, double> perPass;
    const auto self = tracer.selfNs();
    const auto &spans = tracer.spans();
    const double rounds =
        static_cast<double>(std::max<std::size_t>(out.tracedRounds, 1));
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].round != kSetupRound)
            perPass[spans[i].name] += 1e-9 * self[i] / rounds;

    Sheet &pl = out.perLayer;
    for (const char *name : {"runner.run", "serve.parse", "serve.submit",
                             "serve.wait", "bench.unit"})
        pl.set(std::string("self_s.") + name,
               perPass.count(name) ? perPass[name] : 0, "s");
    pl.set("bench.trace_overhead", out.overhead, "ratio");
    pl.set("bench.self_time_coverage", out.coverage, "ratio");
    pl.set("bench.host_probe_ms", 1e3 * out.probe.medianSeconds(), "ms");
    std::vector<std::string> problems;
    if (std::abs(out.coverage - 1) > kCoverageTolerance)
        problems.push_back("layer self time covers " +
                           std::to_string(out.coverage) +
                           " of the untraced pass");
    out.tally.record("trace coverage", problems);

    // A layer that does no work on this workload reads 0.
    Sheet full;
    for (const auto &[name, unit] : perLayerCatalogue()) {
        double v = 0;
        for (const Metric &m : pl.metrics())
            if (m.name == name)
                v = m.value;
        full.set(name, v, unit);
    }
    pl = full;
    return perPass;
}

} // namespace
} // namespace cheri::perfbench

int
main(int argc, char **argv)
{
    using namespace cheri::perfbench;
    const RunArgs args = parseArgs(argc, argv);
    std::filesystem::create_directories(args.workDir);

    Tracer tracer;
    tracer.setEnabled(args.trace);
    Outcome out = args.workload == "serve-mix" ? runServeMix(args, tracer)
                                               : runEngine(args, tracer);

    const Sheet *sheet = &out.endToEnd;
    if (args.trace) {
        const auto perPass = finishTrace(out, tracer);
        sheet = &out.perLayer;
        if (!args.traceOut.empty()) {
            if (writeTraceFile(args.traceOut, args, out, tracer, perPass,
                               kCoverageTolerance))
                std::fprintf(stderr, "perfbench: trace written to %s\n",
                             args.traceOut.c_str());
            else
                out.tally.record("trace file", {"cannot write " +
                                                args.traceOut});
        }
    }

    std::printf("%-28s %16s  %s\n", "metric", "value", "unit");
    for (const Metric &m : sheet->metrics())
        std::printf("%-28s %16.6g  %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("%zu timed rounds, %zu untraced unit samples; "
                "attempted %llu, failed %llu\n",
                out.rounds, out.samples,
                static_cast<unsigned long long>(out.tally.attempted()),
                static_cast<unsigned long long>(out.tally.failed()));
    std::printf("host probe: median %.4f ms over %zu samples; end-to-end "
                "times are host times x %.4f\n",
                1e3 * out.probe.medianSeconds(), out.probe.samples(),
                out.probe.scale());
    printJson(out, *sheet);
    return 0;
}
