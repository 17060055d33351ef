/**
 * @file
 * Seeded generator of the `cold` workload's guest image: a large binary
 * of distinct basic blocks, each executed only a few times, so a run is
 * dominated by pre-decode, translation and engine dispatch rather than
 * by the machine step loop.
 *
 * The ops are those of the PARSEC/Phoenix proxies of
 * workloads::fullSuite(): whole iterations of every proxy in turn
 * (loads, stores, ALU, FP, LOCK XADD, in the proxy's per-iteration
 * counts), shuffled within each iteration and cut into blocks, so the
 * image has the suite's op mix without its hot loops. The proxies carry
 * no MFENCE and no CMPXCHG, so neither does the image.
 *
 * The image is a pure function of (seed, block count). Every guest
 * thread (thread id in r0) walks the block chain once over its own
 * 4 KiB data region, so the program is race-free and deterministic; it
 * prints four characters derived from its checksum and exits with the
 * checksum as its exit code.
 */

#ifndef RISOTTO_PERFBENCH_COLDGEN_HH
#define RISOTTO_PERFBENCH_COLDGEN_HH

#include <cstddef>
#include <cstdint>

#include "gx86/image.hh"

namespace risotto::perfbench
{

/** Shape of one generated image, printed with every `cold`/`serve` run. */
struct ColdInfo
{
    std::size_t blocks = 0;
    std::size_t textBytes = 0;
    std::size_t guestInsns = 0; ///< Static instructions in the block chain.
    std::size_t lockOps = 0;    ///< LOCK XADD.
    std::size_t fpOps = 0;
    std::size_t memOps = 0;     ///< Plain loads and stores.
    /** Upper bound on executions of any one block in a run with
     * `threads` guest threads (each thread walks the chain once). */
    std::size_t maxExecsPerBlock = 0;
};

/** A generated image and its shape. */
struct ColdImage
{
    gx86::GuestImage image;
    ColdInfo info;
};

/** Default block count of the `cold` workload. */
constexpr std::size_t ColdBlocks = 2000;

/** Guest threads of every `cold` run and `serve` session. */
constexpr std::size_t ColdThreads = 2;

/** Build the `cold` image for @p seed with @p blocks basic blocks. */
ColdImage generateColdImage(std::uint64_t seed,
                            std::size_t blocks = ColdBlocks);

} // namespace risotto::perfbench

#endif // RISOTTO_PERFBENCH_COLDGEN_HH
