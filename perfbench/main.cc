/**
 * @file
 * Host wall-clock benchmark of the DBT (see perfbench/README.md).
 *
 *   perfbench --workload suite|cold|serve --seed N --seconds S
 *             --trace 0|1 [--tiny] [--corrupt-oracle] [--out-dir DIR]
 *
 * Prints the shape of the workload's inputs, the configuration keys and,
 * with --trace 1, every per-layer metric as `metric <name> = <value>
 * <unit>`. Writes the raw samples (per op: wall time, speed-probe time,
 * set-up part, pass, retired guest instructions; serve's prepare times;
 * peak RSS) and the deterministic counters to
 * <out-dir>/<workload>_s<seed>_t<trace>.report.json; perfbench/run.py
 * computes the end-to-end metrics from them. Exits 1 when any op failed
 * its output or determinism check, 2 on a usage error.
 */

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench/common.hh"
#include "perfbench/bench.hh"
#include "perfbench/trace.hh"

using namespace risotto::perfbench;

namespace
{

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload suite|cold|serve --seed N "
                 "--seconds S --trace 0|1 [--tiny] [--corrupt-oracle] "
                 "[--out-dir DIR]\n";
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text)
{
    std::size_t used = 0;
    unsigned long long value = 0;
    try {
        value = std::stoull(text, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used != text.size() || text.empty() || text[0] == '-')
        usage("bad value for " + flag + ": " + text);
    return value;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--workload") {
            o.workload = value();
            haveWorkload = true;
        } else if (arg == "--seed") {
            o.seed = parseUnsigned(arg, value());
        } else if (arg == "--seconds") {
            const std::string text = value();
            std::size_t used = 0;
            try {
                o.seconds = std::stod(text, &used);
            } catch (const std::exception &) {
                used = 0;
            }
            if (used != text.size() || !(o.seconds > 0.0) ||
                o.seconds > 3600.0)
                usage("--seconds must be a number in (0, 3600]");
        } else if (arg == "--trace") {
            const std::uint64_t t = parseUnsigned(arg, value());
            if (t > 1)
                usage("--trace must be 0 or 1");
            o.trace = t == 1;
        } else if (arg == "--tiny") {
            o.tiny = true;
        } else if (arg == "--corrupt-oracle") {
            o.corruptOracle = true;
        } else if (arg == "--out-dir") {
            o.outDir = value();
        } else {
            usage("unknown argument " + arg);
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    if (o.workload != "suite" && o.workload != "cold" &&
        o.workload != "serve")
        usage("unknown workload " + o.workload);
    return o;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

std::string
number(double value)
{
    if (!std::isfinite(value))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

/** Raw samples, in the order they ran. */
std::string
samplesJson(const std::vector<OpSample> &samples)
{
    std::ostringstream out;
    out << "[";
    for (std::size_t k = 0; k < samples.size(); ++k) {
        const OpSample &s = samples[k];
        out << (k ? ", " : "") << "{\"key\": \"" << s.key
            << "\", \"ms\": " << number(s.ms)
            << ", \"probe_ms\": " << number(s.probeMs)
            << ", \"setup_ms\": " << number(s.setupMs)
            << ", \"pass\": " << s.pass
            << ", \"guest_insns\": " << s.guestInsns
            << ", \"ok\": " << (s.ok ? "true" : "false") << "}";
    }
    out << "]";
    return out.str();
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::ostringstream out;
    out << "{";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        out << (i ? ", " : "") << "\"" << metrics[i].name
            << "\": {\"value\": " << number(metrics[i].value)
            << ", \"unit\": \"" << metrics[i].unit << "\"}";
    out << "}";
    return out.str();
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parseArgs(argc, argv);
    RunReport report;
    try {
        if (options.workload == "suite")
            report = runSuite(options);
        else if (options.workload == "cold")
            report = runCold(options);
        else
            report = runServe(options);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << options.workload
                  << " aborted: " << e.what() << "\n";
        return 1;
    }

    const std::size_t attempted = report.ops.size() + report.tracedOps.size();
    std::size_t failed = 0;
    for (const auto *ops : {&report.ops, &report.tracedOps})
        for (const OpSample &s : *ops)
            failed += s.ok ? 0 : 1;
    const bool correct = report.failures.empty() && attempted > 0;

    std::vector<Metric> layers = report.layers;
    if (options.trace)
        layers.push_back({"error_rate",
                          attempted ? static_cast<double>(failed) /
                                          static_cast<double>(attempted)
                                    : 0.0,
                          "ratio"});

    // The known undercount of Dbt::guestInsnEstimate() under chaining,
    // shown in every run beside guest_mips (which uses the exact count).
    report.info.push_back(
        {"guest_insns_reported_ratio",
         number(report.exactGuestInsns
                    ? static_cast<double>(report.reportedGuestInsns) /
                          static_cast<double>(report.exactGuestInsns)
                    : 0.0)});
    for (const auto &[key, value] : report.info)
        std::cout << "info " << options.workload << "." << key << " = "
                  << value << "\n";
    char fingerprint[19];
    std::snprintf(fingerprint, sizeof fingerprint, "0x%016llx",
                  static_cast<unsigned long long>(report.configFingerprint));
    const std::string keys = std::string("{\"git_sha\": \"") +
                             RISOTTO_GIT_SHA +
                             "\", \"config_fingerprint\": \"" + fingerprint +
                             "\", \"host\": \"" + report.host + "\"}";
    std::cout << "keys " << keys << "\n";
    for (const Metric &m : layers)
        std::cout << "metric " << m.name << " = " << number(m.value) << " "
                  << m.unit << "\n";
    for (const std::string &f : report.failures)
        std::cerr << "FAILED " << f << "\n";

    const std::string stem = options.outDir + "/" + options.workload +
                             "_s" + std::to_string(options.seed) + "_t" +
                             (options.trace ? "1" : "0");
    {
        std::ofstream out(stem + ".report.json");
        out << "{\"workload\": \"" << options.workload
            << "\", \"seed\": " << options.seed << ", \"keys\": " << keys
            << ", \"layers\": " << metricsJson(layers)
            << ", \"deterministic\": {";
        std::size_t i = 0;
        for (const auto &[name, value] : report.deterministic)
            out << (i++ ? ", " : "") << "\"" << name << "\": " << value;
        out << "}, \"ops\": " << samplesJson(report.ops)
            << ", \"prepares\": " << samplesJson(report.prepares)
            << ", \"sim_mcycles_per_op\": "
            << number(report.simMcyclesPerOp)
            << ", \"peak_rss_mb\": " << number(peakRssMb())
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"correct\": " << (correct ? "true" : "false") << "}\n";
    }
    if (options.trace && !Tracer::instance().write(stem + ".spans.json"))
        std::cerr << "perfbench: cannot write " << stem << ".spans.json\n";

    return correct ? 0 : 1;
}
