#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>

#include "dbt/dbt.hh"
#include "gx86/imagefile.hh"
#include "gx86/interp.hh"
#include "perfbench/bench.hh"
#include "perfbench/coldgen.hh"
#include "perfbench/speedprobe.hh"
#include "perfbench/trace.hh"
#include "persist/fingerprint.hh"
#include "persist/snapshot.hh"
#include "serve/artifact.hh"
#include "serve/session.hh"
#include "support/error.hh"
#include "support/hostisa.hh"
#include "support/rng.hh"
#include "tcg/optimizer.hh"
#include "verify/verifier.hh"
#include "workloads/workloads.hh"

namespace risotto::perfbench
{

namespace
{

using dbt::Dbt;
using dbt::DbtConfig;
using support::HostIsa;

constexpr std::size_t SuiteThreads = 4;
constexpr std::size_t ServeClients = 4;
/** `serve` prepares its artifact at least this often and for at least
 * this long per process; setup_s is the median repetition. */
constexpr std::size_t MinSetupReps = 3;
constexpr double SetupBudgetSeconds = 1.0;
/** Repetitions of each single-call layer probe in the traced run. */
constexpr std::size_t ProbeReps = 5;
/** Sessions per program in the traced run's serving probe. */
constexpr std::size_t ProbeSessions = 3;
constexpr HostIsa Hosts[] = {HostIsa::Aarch, HostIsa::Rv64};

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool
moreSetupReps(std::size_t done, Clock::time_point start)
{
    return done < MinSetupReps || msSince(start) / 1e3 < SetupBudgetSeconds;
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

std::string
hostName(HostIsa host)
{
    return support::hostIsaName(host);
}

/** What the reference interpreter computes for one image. */
struct Expected
{
    std::vector<std::int64_t> exitCodes;
    std::vector<std::string> outputs;
    /** Guest instructions retired, summed over threads. */
    std::uint64_t guestInsns = 0;
    /** Host time the interpreter took, summed over threads. */
    double interpNs = 0.0;
};

/** Run every thread of @p image alone in gx86::Interpreter with
 * r0 = tid: the oracle every op is checked against. */
Expected
runOracle(const gx86::GuestImage &image, std::size_t threads,
          bool corrupt)
{
    const auto segment = gx86::DecodedSegment::build(image);
    Expected out;
    for (std::size_t t = 0; t < threads; ++t) {
        gx86::Interpreter interp(image, segment);
        interp.setReg(0, t);
        const auto start = Clock::now();
        const gx86::InterpResult r = interp.run();
        out.interpNs += msSince(start) * 1e6;
        out.exitCodes.push_back(r.exitCode);
        out.outputs.push_back(r.output);
        out.guestInsns += r.instructions;
    }
    if (corrupt)
        out.exitCodes.front() ^= 1;
    return out;
}

/** Empty when the run's guest results equal the oracle's. */
std::string
compareResults(const Expected &expected,
               const std::vector<std::int64_t> &exitCodes,
               const std::vector<std::string> &outputs)
{
    if (exitCodes.size() != expected.exitCodes.size())
        return "thread count differs from the oracle";
    for (std::size_t t = 0; t < exitCodes.size(); ++t) {
        if (exitCodes[t] != expected.exitCodes[t])
            return "thread " + std::to_string(t) + " exit code " +
                   std::to_string(exitCodes[t]) + ", oracle " +
                   std::to_string(expected.exitCodes[t]);
        if (outputs[t] != expected.outputs[t])
            return "thread " + std::to_string(t) + " output \"" +
                   outputs[t] + "\", oracle \"" + expected.outputs[t] +
                   "\"";
    }
    return {};
}

/** Fences the machine executed, every DMB / FENCE flavour. */
std::uint64_t
fenceCount(const StatSet &stats)
{
    return stats.get("machine.dmb_full") + stats.get("machine.dmb_st") +
           stats.get("machine.dmb_ld");
}

using Counters = std::map<std::string, std::uint64_t>;

/** The counters of one op that must repeat exactly. */
Counters
deterministicCounters(const StatSet &stats, std::uint64_t makespan)
{
    Counters c;
    c["sim.makespan"] = makespan;
    c["machine.instructions"] = stats.get("machine.instructions");
    c["machine.fences"] = fenceCount(stats);
    c["machine.drains"] = stats.get("machine.drains");
    for (const auto &[name, value] : stats.all())
        if (name.rfind("opt.", 0) == 0 || name == "dbt.host_words" ||
            name == "dbt.tbs_translated")
            c[name] = value;
    return c;
}

/** Holds the first value of every op key's deterministic counters and
 * reports any later op that disagrees. Thread-safe. */
class DeterminismCheck
{
  public:
    /** Empty when @p counters match the first op of @p key. */
    std::string
    check(const std::string &key, const Counters &counters)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto [it, inserted] = first_.emplace(key, counters);
        if (inserted || it->second == counters)
            return {};
        for (const auto &[name, value] : counters)
            if (it->second[name] != value)
                return "nondeterminism bug: " + key + " " + name + " = " +
                       std::to_string(value) + ", first op had " +
                       std::to_string(it->second[name]);
        return "nondeterminism bug: " + key + " counter set changed";
    }

    /** The first op of @p key's counters (empty when never seen). */
    Counters
    first(const std::string &key) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = first_.find(key);
        return it == first_.end() ? Counters{} : it->second;
    }

    /** Flatten into "key/counter" entries. */
    void
    exportTo(Counters &out) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &[key, counters] : first_)
            for (const auto &[name, value] : counters)
                out[key + "/" + name] = value;
    }

  private:
    mutable std::mutex mutex_;
    std::map<std::string, Counters> first_; // guarded by mutex_
};

/** One guest program as a user hands it to the DBT. */
struct Program
{
    std::string name;
    std::vector<std::uint8_t> riso;
    gx86::GuestImage image;
    std::size_t threads = 1;
    Expected expected;
    /** Suite only: the per-thread atomic counters at SharedCounterAddr
     * must sum to threads x iterations x casOps. */
    bool checkCounter = false;
    std::uint64_t counterExpected = 0;
};

Program
makeProgram(std::string name, gx86::GuestImage image, std::size_t threads,
            const Options &options)
{
    Program p;
    p.name = std::move(name);
    p.riso = gx86::serializeImage(image);
    p.image = std::move(image);
    p.threads = threads;
    p.expected = runOracle(p.image, threads, options.corruptOracle);
    return p;
}

std::vector<dbt::ThreadSpec>
threadSpecs(std::size_t threads)
{
    std::vector<dbt::ThreadSpec> specs(threads);
    for (std::size_t t = 0; t < threads; ++t)
        specs[t].regs[0] = t;
    return specs;
}

/** One (program, host) pairing of an engine workload. */
struct Case
{
    const Program *program = nullptr;
    HostIsa host = HostIsa::Aarch;

    std::string key() const { return program->name + "." + hostName(host); }
};

/** Engine workloads (suite, cold): op = parse + Dbt ctor + run. */
class EngineBench
{
  public:
    EngineBench(std::vector<Case> cases, DbtConfig config,
                const Options &options, RunReport &report)
        : cases_(std::move(cases)), config_(std::move(config)),
          options_(options), report_(report)
    {
    }

    /** Whole passes, each in a seeded shuffled order, until
     * @p seconds have elapsed (one pass when @p seconds is 0). */
    void
    window(double seconds, std::vector<OpSample> &samples)
    {
        Rng rng(deriveStream(options_.seed, passes_));
        const auto start = Clock::now();
        do {
            std::vector<std::size_t> order(cases_.size());
            std::iota(order.begin(), order.end(), 0);
            for (std::size_t i = order.size(); i > 1; --i)
                std::swap(order[i - 1], order[rng.below(i)]);
            for (const std::size_t i : order)
                samples.push_back(runOp(cases_[i]));
            ++passes_;
        } while (msSince(start) / 1e3 < seconds);
    }

    /** Mean makespan over one pass, from the first op of each case. */
    double
    simMcyclesPerOp() const
    {
        double sum = 0.0;
        for (const Case &c : cases_)
            sum += static_cast<double>(
                det_.first(c.key())["sim.makespan"]);
        return sum / static_cast<double>(cases_.size()) / 1e6;
    }

    const DeterminismCheck &determinism() const { return det_; }

  private:
    /** One op, after the speed probe. */
    OpSample
    runOp(const Case &c)
    {
        const Program &p = *c.program;
        OpSample sample;
        sample.key = c.key();
        sample.pass = passes_;
        sample.guestInsns = p.expected.guestInsns;
        sample.probeMs = speedProbeMs();
        dbt::RunResult result;
        std::string error;
        // Both outlive the timed part: tearing the engine down is not
        // part of the op, and the first op of a case reads its guest
        // instruction estimate afterwards.
        std::unique_ptr<gx86::GuestImage> image;
        std::unique_ptr<Dbt> engine;
        const auto start = Clock::now();
        {
            OpScope scope(++opId_);
            ScopedSpan op("op.engine");
            try {
                {
                    ScopedSpan span("gx86.deserializeImage");
                    image = std::make_unique<gx86::GuestImage>(
                        gx86::deserializeImage(p.riso));
                }
                DbtConfig config = config_;
                config.host = c.host;
                {
                    ScopedSpan span("dbt.ctor." + hostName(c.host));
                    engine = std::make_unique<Dbt>(*image, config);
                }
                sample.setupMs = msSince(start);
                ScopedSpan span("dbt.run." + hostName(c.host));
                result = engine->run(threadSpecs(p.threads));
            } catch (const std::exception &e) {
                error = e.what();
            }
        }
        sample.ms = msSince(start);

        if (error.empty() && !result.finished)
            error = "did not finish: " +
                    machine::runDiagnosisName(result.diagnosis);
        if (error.empty())
            error = compareResults(p.expected, result.exitCodes,
                                   result.outputs);
        if (error.empty() && p.checkCounter) {
            std::uint64_t sum = 0;
            for (std::size_t t = 0; t < p.threads; ++t)
                sum += result.memory->load64(
                    workloads::SharedCounterAddr + t * 64);
            if (sum != p.counterExpected)
                error = "shared counter " + std::to_string(sum) +
                        ", expected " + std::to_string(p.counterExpected);
        }
        if (error.empty() && det_.first(c.key()).empty()) {
            report_.reportedGuestInsns += engine->guestInsnEstimate();
            report_.exactGuestInsns += p.expected.guestInsns;
        }
        if (error.empty())
            error = det_.check(c.key(), deterministicCounters(
                                            result.stats, result.makespan));
        sample.ok = error.empty();
        if (!sample.ok)
            report_.failures.push_back(c.key() + ": " + error);
        return sample;
    }

    std::vector<Case> cases_;
    DbtConfig config_;
    const Options &options_;
    RunReport &report_;
    DeterminismCheck det_;
    std::uint64_t passes_ = 0;
    std::uint64_t opId_ = 0;
};

/** Hands out exit slots to Backend::compile in the compile probe. */
class ProbeSlots : public dbt::ExitSlotAllocator
{
  public:
    std::uint32_t
    staticSlot(std::uint64_t, std::uint64_t, aarch::CodeAddr,
               bool) override
    {
        return next_++;
    }
    std::uint32_t dynamicSlot() override { return 0; }

  private:
    std::uint32_t next_ = 1;
};

/** Run @p fn inside span @p name; returns its wall time in ns. */
template <typename Fn>
double
timed(const std::string &name, Fn &&fn)
{
    ScopedSpan span(name);
    const auto start = Clock::now();
    fn();
    return msSince(start) * 1e6;
}

/**
 * The traced run's layer probes. Layers the engine calls internally are
 * driven through their own entry points on the same programs and
 * blocks; every call is a span. Reports per-layer metrics into
 * RunReport::layers.
 */
class LayerProbe
{
  public:
    LayerProbe(DbtConfig config, const Options &options)
        : config_(std::move(config)), options_(options)
    {
    }

    void
    probe(const Program &p)
    {
        probeImage(p);
        probeTranslation(p);
        for (const HostIsa host : Hosts)
            probeEngine(p, host);
    }

    /** The aarch native twins of the suite proxies on the machine. */
    void
    probeNative(const std::vector<workloads::WorkloadSpec> &specs)
    {
        for (const workloads::WorkloadSpec &spec : specs) {
            aarch::CodeBuffer code;
            const aarch::CodeAddr entry =
                workloads::emitNativeWorkload(spec, code);
            gx86::Memory memory;
            machine::Machine machine(code, memory, {});
            for (std::size_t t = 0; t < SuiteThreads; ++t)
                machine.core(machine.addCore(entry)).x[0] = t;
            bool finished = false;
            nativeNs_ += timed("machine.native.run",
                               [&] { finished = machine.run(); });
            if (!finished)
                throw FatalError("native twin did not finish: " +
                                 spec.name);
            nativeInsns_ += machine.stats().get("machine.instructions");
        }
    }

    void
    report(RunReport &out, const std::vector<OpSample> &untraced,
           const std::vector<OpSample> &traced) const
    {
        auto add = [&](const std::string &name, double value,
                       const std::string &unit) {
            out.layers.push_back({name, value, unit});
        };
        const double runs = static_cast<double>(runs_);
        add("gx86.image_load_ms", median(imageLoadMs_), "ms");
        add("gx86.mem_init_ms", median(memInitMs_), "ms");
        add("gx86.predecode_ms", median(predecodeMs_), "ms");
        add("gx86.predecode_ns_per_byte",
            ratio(predecodeNs_, static_cast<double>(predecodeBytes_)),
            "ns/byte");
        add("gx86.fork_us", median(forkUs_), "us");
        add("gx86.interp_ns_per_insn",
            ratio(interpNs_, static_cast<double>(interpInsns_)), "ns/insn");
        add("dbt.ctor_ms", median(ctorMs_), "ms");
        add("dbt.run_ms", median(runMs_), "ms");
        for (const HostIsa host : Hosts) {
            const auto i = static_cast<std::size_t>(host);
            add("dbt.run_ns_per_host_insn." + hostName(host),
                ratio(runNs_[i], static_cast<double>(hostInsns_[i])),
                "ns/insn");
        }
        const double tbs = static_cast<double>(probedTbs_);
        add("dbt.frontend_us_per_tb", ratio(frontendNs_, tbs) / 1e3, "us");
        add("tcg.optimize_us_per_tb", ratio(optimizeNs_, tbs) / 1e3, "us");
        for (const HostIsa host : Hosts) {
            const auto i = static_cast<std::size_t>(host);
            add(hostName(host) + ".compile_us_per_tb",
                ratio(compileNs_[i], tbs) / 1e3, "us");
        }
        const auto perRun = [&](const char *name) {
            return ratio(static_cast<double>(engine_.get(name)), runs);
        };
        add("dbt.tbs_translated", perRun("dbt.tbs_translated"), "count");
        add("dbt.host_words", perRun("dbt.host_words"), "count");
        add("dbt.ir_ops_pre_opt", perRun("dbt.ir_ops_pre_opt"), "count");
        add("dbt.ir_ops_post_opt", perRun("dbt.ir_ops_post_opt"), "count");
        add("dbt.chained", perRun("dbt.chained"), "count");
        const double hits =
            static_cast<double>(engine_.get("dbt.jump_cache_hits"));
        add("dbt.jump_cache_hit_ratio",
            ratio(hits, hits + static_cast<double>(engine_.get(
                                   "dbt.jump_cache_misses"))),
            "ratio");
        add("dbt.tier2_success_ratio",
            ratio(static_cast<double>(engine_.get("dbt.tier2_superblocks")),
                  static_cast<double>(engine_.get("dbt.tier2_attempts"))),
            "ratio");
        add("dbt.time_to_first_dispatch_us",
            perRun("dbt.time_to_first_dispatch_ns") / 1e3, "us");
        add("opt.fences_merged", perRun("opt.fences_merged"), "count");
        add("opt.dead_ops_removed", perRun("opt.dead_ops_removed"),
            "count");
        add("dbt.guest_insns_reported_ratio",
            ratio(static_cast<double>(reportedInsns_),
                  static_cast<double>(exactInsns_)),
            "ratio");
        const double validated = static_cast<double>(validatedTbs_);
        add("verify.validate_us_per_tb",
            ratio(validateNs_, validated) / 1e3, "us");
        add("verify.ns_per_pair",
            ratio(validateNs_, static_cast<double>(pairs_)), "ns/pair");
        add("verify.pairs_checked", ratio(static_cast<double>(pairs_),
                                          validated),
            "count/tb");
        add("persist.export_ms", median(exportMs_), "ms");
        add("persist.import_ms", median(importMs_), "ms");
        add("persist.records_loaded_ratio",
            ratio(static_cast<double>(loaded_),
                  static_cast<double>(loaded_ + rejected_)),
            "ratio");
        add("machine.native_ns_per_insn",
            ratio(nativeNs_, static_cast<double>(nativeInsns_)),
            "ns/insn");
        add("serve.prepare_ms", median(prepareMs_), "ms");
        const double sharedHits =
            static_cast<double>(sessions_.get("serve.shared_hits"));
        add("serve.shared_hit_ratio",
            ratio(sharedHits, sharedHits + static_cast<double>(
                                               sharedMisses_)),
            "ratio");
        const double sessions = static_cast<double>(sessionCount_);
        add("serve.dirty_pages_per_session",
            ratio(static_cast<double>(dirtyPages_), sessions), "count");
        add("serve.fallback_blocks",
            ratio(static_cast<double>(sessions_.get("serve.fallback_blocks")),
                  sessions),
            "count");

        // Op time over its speed probe, so a change of host speed
        // between the two halves is not read as tracing cost.
        add("trace.overhead_pct",
            100.0 * (ratio(median(probeScaled(traced)),
                           median(probeScaled(untraced))) -
                     1.0),
            "%");
        std::vector<double> opSelf;
        const auto self = Tracer::instance().selfTimes();
        for (const Span &s : Tracer::instance().spans())
            if (s.name.rfind("op.", 0) == 0)
                opSelf.push_back(static_cast<double>(self.at(s.id)) / 1e6);
        add("bench.op_self_ms", median(opSelf), "ms");
    }

  private:
    static std::vector<double>
    probeScaled(const std::vector<OpSample> &ops)
    {
        std::vector<double> scaled;
        for (const OpSample &s : ops)
            if (s.ok)
                scaled.push_back(ratio(s.ms, s.probeMs));
        return scaled;
    }

    void
    probeImage(const Program &p)
    {
        const gx86::FusionConfig fusion;
        for (std::size_t rep = 0; rep < ProbeReps; ++rep) {
            imageLoadMs_.push_back(
                timed("gx86.deserializeImage",
                      [&] { gx86::deserializeImage(p.riso); }) /
                1e6);
            memInitMs_.push_back(timed("gx86.Memory", [&] {
                                     gx86::Memory memory;
                                     memory.loadImage(p.image);
                                 }) /
                                 1e6);
            const double ns = timed("gx86.DecodedSegment::build", [&] {
                gx86::DecodedSegment::build(p.image, fusion);
            });
            predecodeMs_.push_back(ns / 1e6);
            predecodeNs_ += ns;
            predecodeBytes_ += p.image.text.size();
        }
        interpNs_ += p.expected.interpNs;
        interpInsns_ += p.expected.guestInsns;
    }

    /** Frontend, optimizer, both backends and the validator over every
     * statically reachable block, one call each. */
    void
    probeTranslation(const Program &p)
    {
        const auto segment = gx86::DecodedSegment::build(p.image);
        const std::vector<gx86::Addr> heads =
            dbt::reachableBlocks(p.image, config_, segment.get());
        dbt::Frontend frontend(p.image, config_, nullptr);
        frontend.setSegment(segment.get());
        std::vector<DbtConfig> configs;
        for (const HostIsa host : Hosts) {
            configs.push_back(config_);
            configs.back().host = host;
        }
        std::vector<aarch::CodeBuffer> buffers(configs.size());
        std::vector<std::unique_ptr<dbt::Backend>> backends;
        for (std::size_t i = 0; i < configs.size(); ++i)
            backends.push_back(
                std::make_unique<dbt::Backend>(buffers[i], configs[i]));
        ProbeSlots slots;
        verify::ValidatorOptions validatorOptions;
        validatorOptions.rmw = config_.rmw;
        const verify::TbValidator validator(validatorOptions);

        for (const gx86::Addr pc : heads) {
            tcg::Block block;
            try {
                frontendNs_ += timed("dbt.Frontend::translate",
                                     [&] { block = frontend.translate(pc); });
            } catch (const GuestFault &) {
                continue; // the engine interprets these blocks
            }
            optimizeNs_ += timed("tcg::optimize", [&] {
                tcg::optimize(block, config_.optimizer, nullptr);
            });
            ++probedTbs_;
            for (std::size_t i = 0; i < configs.size(); ++i) {
                aarch::CodeAddr entry = 0;
                compileNs_[i] += timed(
                    hostName(configs[i].host) + ".Backend::compile",
                    [&] { entry = backends[i]->compile(block, slots); });
                validateNs_ += timed("verify.TbValidator::validate", [&] {
                    const auto guest = frontend.decodeBlock(pc);
                    const auto host = verify::decodeHostRange(
                        configs[i].host, buffers[i], entry,
                        buffers[i].end());
                    pairs_ += validator
                                  .validate(guest, block, host, pc, false)
                                  .pairsChecked;
                });
                ++validatedTbs_;
            }
            frontend.recycle(std::move(block));
        }
    }

    /** Dbt ctor + run, snapshot export/import and a short warm serving
     * probe (aarch only: snapshots are keyed by host). */
    void
    probeEngine(const Program &p, HostIsa host)
    {
        DbtConfig config = config_;
        config.host = host;
        const std::string suffix = "." + hostName(host);
        std::unique_ptr<Dbt> engine;
        ctorMs_.push_back(timed("dbt.ctor" + suffix, [&] {
                              engine = std::make_unique<Dbt>(p.image, config);
                          }) /
                          1e6);
        dbt::RunResult result;
        const double runNs = timed("dbt.run" + suffix, [&] {
            result = engine->run(threadSpecs(p.threads));
        });
        if (!result.finished ||
            !compareResults(p.expected, result.exitCodes, result.outputs)
                 .empty())
            throw FatalError("layer probe run disagrees with the oracle: " +
                             p.name + suffix);
        runMs_.push_back(runNs / 1e6);
        const auto i = static_cast<std::size_t>(host);
        runNs_[i] += runNs;
        hostInsns_[i] += result.stats.get("machine.instructions");
        engine_.merge(result.stats);
        ++runs_;
        reportedInsns_ += engine->guestInsnEstimate();
        exactInsns_ += p.expected.guestInsns;
        if (host != HostIsa::Aarch)
            return;

        persist::Snapshot snapshot;
        std::vector<std::uint8_t> bytes;
        exportMs_.push_back(timed("dbt.Dbt::exportSnapshot", [&] {
                                snapshot = engine->exportSnapshot();
                                bytes = persist::serialize(snapshot);
                            }) /
                            1e6);
        Dbt fresh(p.image, config);
        dbt::PersistReport imported;
        importMs_.push_back(timed("dbt.Dbt::importSnapshot", [&] {
                                imported = fresh.importSnapshot(snapshot);
                            }) /
                            1e6);
        loaded_ += imported.loaded;
        rejected_ += imported.rejected;

        const std::string path =
            options_.outDir + "/probe_" + std::to_string(probes_++) +
            ".rtbc";
        {
            std::ofstream out(path, std::ios::binary);
            out.write(reinterpret_cast<const char *>(bytes.data()),
                      static_cast<std::streamsize>(bytes.size()));
            if (!out)
                throw FatalError("cannot write " + path);
        }
        serve::ArtifactConfig artifactConfig;
        artifactConfig.config = config;
        artifactConfig.snapshotPath = path;
        artifactConfig.validateSnapshot = true;
        std::unique_ptr<serve::SharedArtifact> artifact;
        prepareMs_.push_back(timed("serve.SharedArtifact", [&] {
                                 artifact =
                                     std::make_unique<serve::SharedArtifact>(
                                         p.image, artifactConfig);
                             }) /
                             1e6);
        for (std::size_t rep = 0; rep < ProbeReps; ++rep)
            forkUs_.push_back(timed("gx86.Memory::fork", [&] {
                                  gx86::Memory::fork(
                                      artifact->templateMemory());
                              }) /
                              1e3);
        serve::SessionOptions sessionOptions;
        sessionOptions.threads = p.threads;
        for (std::size_t s = 0; s < ProbeSessions; ++s) {
            serve::SessionResult session;
            timed("serve.runSession", [&] {
                session = serve::runSession(*artifact, s, sessionOptions);
            });
            if (!session.finished ||
                !compareResults(p.expected, session.exitCodes,
                                session.outputs)
                     .empty())
                throw FatalError("layer probe session disagrees with the "
                                 "oracle: " + p.name);
            sessions_.merge(session.stats);
            sharedMisses_ += session.sharedMisses;
            dirtyPages_ += session.dirtyPages;
            ++sessionCount_;
        }
        std::remove(path.c_str());
    }

    DbtConfig config_;
    const Options &options_;
    std::size_t probes_ = 0;

    std::vector<double> imageLoadMs_, memInitMs_, predecodeMs_, forkUs_;
    double predecodeNs_ = 0.0;
    std::uint64_t predecodeBytes_ = 0;
    double interpNs_ = 0.0;
    std::uint64_t interpInsns_ = 0;

    double frontendNs_ = 0.0, optimizeNs_ = 0.0, validateNs_ = 0.0;
    double compileNs_[2] = {0.0, 0.0};
    std::uint64_t probedTbs_ = 0, validatedTbs_ = 0, pairs_ = 0;

    std::vector<double> ctorMs_, runMs_;
    double runNs_[2] = {0.0, 0.0};
    std::uint64_t hostInsns_[2] = {0, 0};
    StatSet engine_;
    std::uint64_t runs_ = 0;
    std::uint64_t reportedInsns_ = 0, exactInsns_ = 0;

    std::vector<double> exportMs_, importMs_, prepareMs_;
    std::uint64_t loaded_ = 0, rejected_ = 0;

    StatSet sessions_;
    std::uint64_t sharedMisses_ = 0, dirtyPages_ = 0, sessionCount_ = 0;

    double nativeNs_ = 0.0;
    std::uint64_t nativeInsns_ = 0;
};

/** Machine counters per op from the deterministic first pass. */
void
addMachineCounters(RunReport &report, const std::vector<Counters> &ops)
{
    auto get = [](const Counters &c, const char *name) {
        const auto it = c.find(name);
        return it == c.end() ? 0.0 : static_cast<double>(it->second);
    };
    double insns = 0.0, fences = 0.0, drains = 0.0;
    for (const Counters &c : ops) {
        insns += get(c, "machine.instructions");
        fences += get(c, "machine.fences");
        drains += get(c, "machine.drains");
    }
    const double n = static_cast<double>(ops.size());
    report.layers.push_back({"machine.instructions", insns / n, "count"});
    report.layers.push_back({"machine.fences", fences / n, "count"});
    report.layers.push_back({"machine.drains", drains / n, "count"});
}

/** The suite proxies whose native twins the machine probe runs. */
std::vector<workloads::WorkloadSpec>
nativeSpecs(const Options &options)
{
    std::vector<workloads::WorkloadSpec> specs = workloads::fullSuite();
    if (options.tiny)
        specs.resize(2);
    return specs;
}

/** Timed windows of an engine workload, then (traced) the probes. */
void
runEngineWorkload(const std::vector<Program> &programs,
                  const std::vector<Case> &cases, const DbtConfig &config,
                  const Options &options, RunReport &report)
{
    EngineBench bench(cases, config, options, report);
    // Warm-up: one pass whose times are dropped (its results are still
    // checked), so the heap and caches are filled before timing.
    std::vector<OpSample> warmup;
    bench.window(0.0, warmup);
    if (!options.trace) {
        bench.window(options.seconds, report.ops);
    } else {
        bench.window(options.seconds / 2, report.ops);
        Tracer::instance().setEnabled(true);
        bench.window(options.seconds / 2, report.tracedOps);
        LayerProbe probe(config, options);
        for (const Program &p : programs)
            probe.probe(p);
        probe.probeNative(nativeSpecs(options));
        probe.report(report, report.ops, report.tracedOps);
        std::vector<Counters> first;
        for (const Case &c : cases)
            first.push_back(bench.determinism().first(c.key()));
        addMachineCounters(report, first);
    }
    report.simMcyclesPerOp = bench.simMcyclesPerOp();
    bench.determinism().exportTo(report.deterministic);
}

void
describeCold(const ColdInfo &info, RunReport &report)
{
    const double insns = static_cast<double>(info.guestInsns);
    report.info.push_back({"blocks", std::to_string(info.blocks)});
    report.info.push_back({"text_bytes", std::to_string(info.textBytes)});
    report.info.push_back(
        {"max_execs_per_block", std::to_string(info.maxExecsPerBlock)});
    report.info.push_back(
        {"lock_share", std::to_string(info.lockOps / insns)});
    report.info.push_back({"fp_share", std::to_string(info.fpOps / insns)});
    // The suite proxies the op mix comes from have no MFENCE.
    report.info.push_back({"mfence_share", "0"});
}

ColdImage
coldImage(const Options &options, const DbtConfig &config,
          RunReport &report)
{
    ColdImage cold =
        generateColdImage(options.seed, options.tiny ? 200 : ColdBlocks);
    if (cold.info.maxExecsPerBlock >= config.tier2Threshold)
        throw FatalError("cold image blocks would reach tier 2");
    describeCold(cold.info, report);
    return cold;
}

} // namespace

RunReport
runSuite(const Options &options)
{
    RunReport report;
    const DbtConfig config = DbtConfig::risotto();
    std::vector<workloads::WorkloadSpec> specs = workloads::fullSuite();
    if (options.tiny) {
        specs.resize(3);
        for (auto &spec : specs)
            spec.iterations = 50;
    }
    std::vector<Program> programs;
    programs.reserve(specs.size());
    for (const auto &spec : specs) {
        Program p = makeProgram(spec.name,
                                workloads::buildGuestWorkload(spec),
                                SuiteThreads, options);
        p.checkCounter = true;
        p.counterExpected = SuiteThreads * spec.iterations * spec.casOps;
        programs.push_back(std::move(p));
    }
    std::vector<Case> cases;
    for (const Program &p : programs)
        for (const HostIsa host : Hosts)
            cases.push_back({&p, host});
    report.info.push_back({"programs", std::to_string(programs.size())});
    report.info.push_back({"ops_per_pass", std::to_string(cases.size())});
    report.configFingerprint = persist::configFingerprint(config);
    report.host = "aarch+rv64";
    runEngineWorkload(programs, cases, config, options, report);
    return report;
}

RunReport
runCold(const Options &options)
{
    RunReport report;
    const DbtConfig config;
    ColdImage cold = coldImage(options, config, report);
    std::vector<Program> programs;
    programs.push_back(makeProgram("cold", std::move(cold.image),
                                   ColdThreads, options));
    std::vector<Case> cases;
    for (const HostIsa host : Hosts)
        cases.push_back({&programs.front(), host});
    report.configFingerprint = persist::configFingerprint(config);
    report.host = "aarch+rv64";
    runEngineWorkload(programs, cases, config, options, report);
    return report;
}

RunReport
runServe(const Options &options)
{
    RunReport report;
    const DbtConfig config = DbtConfig::risotto();
    ColdImage cold = coldImage(options, config, report);
    const Program program =
        makeProgram("serve", std::move(cold.image), ColdThreads, options);
    report.configFingerprint = persist::configFingerprint(config);
    report.host = hostName(config.host);

    // The deployment's warm start: one profiling run, exported.
    const std::string snapshotPath = options.outDir + "/serve_" +
                                     std::to_string(options.seed) + ".rtbc";
    Counters profile;
    {
        Dbt profiler(program.image, config);
        const dbt::RunResult r = profiler.run(threadSpecs(program.threads));
        if (!r.finished)
            throw FatalError("profiling run did not finish");
        report.reportedGuestInsns = profiler.guestInsnEstimate();
        report.exactGuestInsns = program.expected.guestInsns;
        if (!profiler.savePersistentCache(snapshotPath))
            throw FatalError("cannot write " + snapshotPath);
        for (const auto &[name, value] : r.stats.all())
            if (name.rfind("opt.", 0) == 0 || name == "dbt.host_words" ||
                name == "dbt.tbs_translated")
                profile["profile/" + name] = value;
    }

    serve::ArtifactConfig artifactConfig;
    artifactConfig.config = config;
    artifactConfig.snapshotPath = snapshotPath;
    artifactConfig.validateSnapshot = true;
    std::unique_ptr<serve::SharedArtifact> artifact;
    const auto begin = Clock::now();
    for (std::size_t rep = 0; moreSetupReps(rep, begin); ++rep) {
        artifact.reset();
        OpSample prepare;
        prepare.probeMs = speedProbeMs();
        const auto start = Clock::now();
        artifact = std::make_unique<serve::SharedArtifact>(program.image,
                                                           artifactConfig);
        prepare.ms = msSince(start);
        prepare.ok = true;
        report.prepares.push_back(prepare);
    }
    std::remove(snapshotPath.c_str());
    if (artifact->mode() != serve::ArtifactMode::Warm)
        report.failures.push_back("artifact did not warm-start: " +
                                  serve::artifactModeName(artifact->mode()));
    report.deterministic = profile;
    report.deterministic["artifact/host_words"] = artifact->code().size();

    serve::SessionOptions sessionOptions;
    sessionOptions.threads = program.threads;
    DeterminismCheck det;
    std::atomic<std::uint64_t> nextId{0};
    std::mutex mutex;

    // Closed loop: each client starts its next session as soon as its
    // previous one returns.
    auto window = [&](double seconds, std::vector<OpSample> &samples) {
        const auto start = Clock::now();
        auto client = [&] {
            try {
                while (msSince(start) / 1e3 < seconds) {
                    const std::uint64_t id = nextId++;
                    serve::SessionResult session;
                    OpSample sample;
                    sample.key = "session";
                    sample.guestInsns = program.expected.guestInsns;
                    sample.probeMs = speedProbeMs();
                    const auto opStart = Clock::now();
                    {
                        OpScope scope(id + 1);
                        ScopedSpan op("op.serve");
                        ScopedSpan span("serve.runSession");
                        session =
                            serve::runSession(*artifact, id, sessionOptions);
                    }
                    sample.ms = msSince(opStart);
                    std::string error =
                        session.finished
                            ? compareResults(program.expected,
                                             session.exitCodes,
                                             session.outputs)
                            : "session failed: " + session.note;
                    if (error.empty())
                        error = det.check("session", deterministicCounters(
                                                         session.stats,
                                                         session.makespan));
                    sample.ok = error.empty();
                    std::lock_guard<std::mutex> lock(mutex);
                    samples.push_back(sample);
                    if (!sample.ok)
                        report.failures.push_back(
                            "session " + std::to_string(id) + ": " + error);
                }
            } catch (const std::exception &e) {
                std::lock_guard<std::mutex> lock(mutex);
                report.failures.push_back(std::string("client: ") +
                                          e.what());
            }
        };
        std::vector<std::thread> clients;
        for (std::size_t c = 0; c < ServeClients; ++c)
            clients.emplace_back(client);
        for (std::thread &t : clients)
            t.join();
    };

    if (!options.trace) {
        window(options.seconds, report.ops);
    } else {
        window(options.seconds / 2, report.ops);
        Tracer::instance().setEnabled(true);
        window(options.seconds / 2, report.tracedOps);
        LayerProbe probe(config, options);
        probe.probe(program);
        probe.probeNative(nativeSpecs(options));
        probe.report(report, report.ops, report.tracedOps);
        addMachineCounters(report, {det.first("session")});
    }
    report.simMcyclesPerOp =
        static_cast<double>(det.first("session")["sim.makespan"]) / 1e6;
    det.exportTo(report.deterministic);
    return report;
}

} // namespace risotto::perfbench
