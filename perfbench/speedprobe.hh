/**
 * @file
 * Host-speed probe: the yardstick the benchmark scales op times by.
 *
 * On a shared host the core's speed drifts by a third or more over
 * seconds to minutes (load of other tenants), and a 30-s run cannot
 * average that out. The benchmark therefore runs this probe right
 * before every op, on the op's own thread, and perfbench/run.py scales
 * each op time by (reference probe time / probe time near the op) ^ 1.3
 * (see perfbench/README.md for the fit). The probe is a fixed compute
 * loop that shares no code with the library, so a change to the DBT
 * cannot change it; a change that makes an op slower or faster moves the
 * scaled time as much as the wall time.
 */

#ifndef RISOTTO_PERFBENCH_SPEEDPROBE_HH
#define RISOTTO_PERFBENCH_SPEEDPROBE_HH

namespace risotto::perfbench
{

/** Wall milliseconds of one run of the fixed probe loop (about 4 ms on
 * a 2.1 GHz Xeon core). */
double speedProbeMs();

} // namespace risotto::perfbench

#endif // RISOTTO_PERFBENCH_SPEEDPROBE_HH
