/**
 * @file
 * Figure 5: instantaneous TLP and GPU utilization over time for
 * HandBrake at 4/8/12 logical cores (SMT on). The TLP rides at the
 * core count with periodic serialization troughs; the transcode rate
 * scales with core count (so the same clip finishes proportionally
 * faster); GPU utilization stays under 1%.
 */

#include "bench_util.hh"

using namespace deskpar;

int
main()
{
    bench::banner(
        "Figure 5 - HandBrake instantaneous TLP/GPU vs cores",
        "Section V-C-1, Figure 5");

    bench::runTimelineFigure("handbrake", {4, 8, 12},
                             sim::msec(250));
    std::printf("\nExpected shape: TLP pinned near the active core "
                "count with periodic drops (muxing); frame rate "
                "roughly proportional to cores; GPU < 1%%.\n");
    return 0;
}
