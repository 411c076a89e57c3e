/**
 * @file
 * Figure 6: instantaneous TLP and GPU utilization over time for
 * Photoshop at 4/8/12 logical cores (SMT on). Filter rendering
 * scales linearly with core count (shorter bursts at the max level);
 * user-interaction processing shows no scalability, bottlenecking
 * total runtime per Amdahl.
 */

#include "bench_util.hh"

using namespace deskpar;

int
main()
{
    bench::banner(
        "Figure 6 - Photoshop instantaneous TLP/GPU vs cores",
        "Section V-C-1, Figure 6");

    bench::runTimelineFigure("photoshop", {4, 8, 12},
                             sim::msec(250));
    std::printf("\nExpected shape: bursts to the active core count "
                "during filter renders (shorter at higher counts); "
                "low, serial activity between filters while the user "
                "interacts.\n");
    return 0;
}
