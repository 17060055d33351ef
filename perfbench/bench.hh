/**
 * @file
 * Types shared by the host wall-clock benchmark's workloads and main.
 *
 * One run executes one workload for a fixed wall-clock window:
 *
 *  - suite: the 16 PARSEC/Phoenix proxies on both host backends, each op
 *           the parse + Dbt construction + run that risotto-run does;
 *  - cold:  one seeded image of ~2,000 distinct blocks, same op, hosts
 *           alternating;
 *  - serve: the cold image served warm to a closed loop of 4 clients,
 *           each op one runSession.
 *
 * Every op's guest results are checked against the reference
 * gx86::Interpreter, outside the timed part of the op.
 */

#ifndef RISOTTO_PERFBENCH_BENCH_HH
#define RISOTTO_PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace risotto::perfbench
{

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Self-test size: a few programs, few iterations, small image. */
    bool tiny = false;
    /** Self-test: perturb the oracle's expectation, so every op must
     * fail the output check. */
    bool corruptOracle = false;
    /** Directory for the span trace, report and snapshot files. */
    std::string outDir = ".";
};

/** One named measurement. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Wall time, speed-probe time and verdict of one op. */
struct OpSample
{
    double ms = 0.0;
    /** speedProbeMs() run on the op's thread right before the op. */
    double probeMs = 0.0;
    /** The parse + construction part of ms (suite, cold). */
    double setupMs = 0.0;
    /** Pass of the window the op belongs to (suite, cold). */
    std::uint64_t pass = 0;
    /** Exact guest instructions the op retires (oracle count). */
    std::uint64_t guestInsns = 0;
    bool ok = false;
    /** What ran: "<program>.<host>" or "session". */
    std::string key;
};

/** Everything one workload run measured. */
struct RunReport
{
    /** `serve` only: each artifact prepare repetition, in ms and
     * probeMs (suite and cold time set-up inside their ops). */
    std::vector<OpSample> prepares;
    /** Ops of the untraced window, in the order they ran. */
    std::vector<OpSample> ops;
    /** Ops of the traced window (trace runs only). */
    std::vector<OpSample> tracedOps;
    /** Dbt::guestInsnEstimate() and the exact count, summed over the
     * first op of every case (the profiling run on `serve`). */
    std::uint64_t reportedGuestInsns = 0;
    std::uint64_t exactGuestInsns = 0;
    /** Mean simulated makespan per op over one full pass, in Mcycles. */
    double simMcyclesPerOp = 0.0;
    /** One line per failed op or failed check. */
    std::vector<std::string> failures;
    /** Per-layer metrics (trace runs only). */
    std::vector<Metric> layers;
    /** Counters that must repeat exactly, run after run. */
    std::map<std::string, std::uint64_t> deterministic;
    /** Shape of the workload's inputs, printed as `info` lines. */
    std::vector<std::pair<std::string, std::string>> info;
    /** Keys of the measured configuration (bench/common.hh fields). */
    std::uint64_t configFingerprint = 0;
    std::string host;
};

RunReport runSuite(const Options &options);
RunReport runCold(const Options &options);
RunReport runServe(const Options &options);

} // namespace risotto::perfbench

#endif // RISOTTO_PERFBENCH_BENCH_HH
