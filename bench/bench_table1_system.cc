/**
 * @file
 * Table I: specifications of the benchmarking desktop system.
 * Dumps the modeled machine (CPU, GPUs, scheduler defaults) so runs
 * are traceable to a hardware configuration.
 */

#include <cstdio>

#include "bench_util.hh"
#include "sim/machine.hh"

using namespace deskpar;

namespace {

void
printGpu(const sim::GpuSpec &gpu)
{
    std::printf("  %-24s %u CUDA cores @ %.0f MHz, %u MiB, "
                "NVENC: %s, compute queues: %u\n",
                gpu.model.c_str(), gpu.cudaCores, gpu.coreClockMhz,
                gpu.vramMiB, gpu.hasNvenc ? "yes" : "no",
                gpu.computeQueueSlots);
    std::printf("  %-24s shader throughput %.2f Tunit/s, video "
                "engine %.2f Tunit/s\n", "",
                gpu.shaderThroughput() * 1e-12,
                gpu.videoRate * 1e-12);
}

} // namespace

int
main()
{
    bench::banner("Table I - benchmarking system",
                  "Section III-A, Table I");

    sim::MachineConfig config = sim::MachineConfig::paperDefault();
    const sim::CpuSpec &cpu = config.cpu;

    std::printf("CPU      %s, %.2f-%.2f GHz, %u cores / %u threads\n",
                cpu.model.c_str(), cpu.baseClockGhz, cpu.turboClockGhz,
                cpu.physicalCores, cpu.numLogicalCpus());
    std::printf("LLC      %u MiB\n", cpu.llcMiB);
    std::printf("RAM      %u GiB\n", cpu.ramGiB);
    std::printf("OS       simulated Windows-like preemptive "
                "round-robin scheduler, %.0f ms quantum\n",
                sim::toMillis(config.quantum));
    std::printf("\nGraphics (primary and comparison boards):\n");
    printGpu(sim::GpuSpec::gtx1080Ti());
    printGpu(sim::GpuSpec::gtx680());
    printGpu(sim::GpuSpec::gtx285());

    std::printf("\nTurbo ladder (busy physical cores -> GHz):\n ");
    for (unsigned busy = 0; busy <= cpu.physicalCores; ++busy)
        std::printf(" %u:%.2f", busy, cpu.clockGhz(busy));
    std::printf("\n\nSMT contention model: co-running threads each "
                "execute at (0.5 + 0.5 f) of full rate,\nwhere f is "
                "the workload's SMT friendliness (see DESIGN.md).\n");
    return 0;
}
