#include "perfbench/speedprobe.hh"

#include <cstdint>

#include "perfbench/trace.hh"

namespace risotto::perfbench
{

namespace
{

constexpr std::uint32_t ProbeSteps = 1000000;

/** Keeps the loop's result alive. */
volatile std::uint64_t sink;

} // namespace

double
speedProbeMs()
{
    // A small byte-code interpreter: each step's opcode depends on the
    // registers, so branches and dependent ALU work set the pace, and
    // the working set stays in L1.
    static constexpr std::uint8_t Program[16] = {0, 1, 2, 3, 1, 0, 2, 4,
                                                 3, 1, 4, 0, 2, 2, 3, 4};
    std::uint64_t r[4] = {1, 2, 3, 4};
    const auto start = Clock::now();
    for (std::uint32_t i = 0; i < ProbeSteps; ++i) {
        switch (Program[(i + (r[0] & 3)) & 15]) {
        case 0:
            r[0] += r[1];
            break;
        case 1:
            r[1] ^= r[2] << 1;
            break;
        case 2:
            r[2] = r[2] * 3 + r[3];
            break;
        case 3:
            r[3] -= r[0] >> 3;
            break;
        default:
            r[0] = (r[0] >> 1) | (r[3] << 63);
            break;
        }
    }
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    sink = r[0] + r[1] + r[2] + r[3];
    return ms;
}

} // namespace risotto::perfbench
