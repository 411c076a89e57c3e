/**
 * @file
 * Parameterized scheduler properties swept over every core-scaling
 * configuration the paper uses (and a few more): conservation of
 * work, CSwitch well-formedness, concurrency ceilings, SMT placement.
 */

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "analysis/session.hh"
#include "sim/behaviors_basic.hh"
#include "sim/machine.hh"

namespace {

using namespace deskpar;
using namespace deskpar::sim;

/** (active CPUs, SMT enabled) */
using Config = std::tuple<unsigned, bool>;

class SchedulerSweep : public ::testing::TestWithParam<Config>
{
  protected:
    MachineConfig
    config() const
    {
        MachineConfig cfg = MachineConfig::paperDefault();
        cfg.activeCpus = std::get<0>(GetParam());
        cfg.smtEnabled = std::get<1>(GetParam());
        cfg.seed = 1234;
        return cfg;
    }
};

TEST_P(SchedulerSweep, FixedWorkAlwaysCompletes)
{
    Machine machine(config());
    machine.session().start(0);
    auto &proc = machine.createProcess("app");
    const unsigned threads = 2 * machine.activeLogicalCpus();
    for (unsigned i = 0; i < threads; ++i) {
        proc.createThread(
            makeSequence({Action::compute(workForMs(20.0, 3.7))}),
            std::string("w") + std::to_string(i));
    }
    machine.run(sec(10));
    for (const auto &thread : proc.threads()) {
        EXPECT_TRUE(thread->terminated());
        EXPECT_NEAR(thread->retiredWork(), workForMs(20.0, 3.7),
                    workForMs(20.0, 3.7) * 1e-6);
    }
}

TEST_P(SchedulerSweep, CSwitchStreamIsWellFormed)
{
    Machine machine(config());
    machine.session().start(0);
    auto &proc = machine.createProcess("app");
    for (unsigned i = 0; i < machine.activeLogicalCpus() + 3; ++i) {
        proc.createThread(
            makeBehavior([n = 0](ThreadContext &) mutable -> Action {
                if (n++ < 40)
                    return Action::compute(workForMs(2.0, 3.7));
                return Action::exit();
            }),
            std::string("w") + std::to_string(i));
    }
    machine.run(sec(5));
    machine.session().stop(machine.now());

    // Per CPU: the stream alternates consistently — each switch's
    // old thread equals the previous switch's new thread.
    std::map<trace::CpuId, trace::Tid> current;
    sim::SimTime last = 0;
    for (const auto &e : machine.session().bundle().cswitches) {
        EXPECT_GE(e.timestamp, last);
        last = e.timestamp;
        auto it = current.find(e.cpu);
        if (it != current.end()) {
            EXPECT_EQ(e.oldTid, it->second)
                << "cpu " << e.cpu << " at " << e.timestamp;
        }
        EXPECT_NE(e.oldTid, e.newTid);
        current[e.cpu] = e.newTid;
        if (e.newTid != 0) {
            EXPECT_LE(e.readyTime, e.timestamp);
        }
    }
}

TEST_P(SchedulerSweep, ConcurrencyNeverExceedsActiveCpus)
{
    Machine machine(config());
    machine.session().start(0);
    auto &proc = machine.createProcess("app");
    for (unsigned i = 0; i < 16; ++i) {
        proc.createThread(
            makeBehavior([n = 0](ThreadContext &ctx) mutable
                         -> Action {
                if (n++ < 30) {
                    return Action::compute(workForMs(
                        ctx.rng->uniform(0.5, 4.0), 3.7));
                }
                return Action::exit();
            }),
            std::string("w") + std::to_string(i));
    }
    machine.run(sec(3));
    machine.session().stop(machine.now());

    // The header's CPU count runs to the highest active logical id
    // (with SMT off the active ids are every other one), within the
    // machine's 12. A dispatch past it would be counted out of range,
    // not in the histogram, so both counts are checked.
    const trace::TraceBundle &bundle = machine.session().bundle();
    ASSERT_LE(bundle.numLogicalCpus, 12u);
    auto profile =
        analysis::Session(bundle).concurrency({}, 0, machine.now());
    EXPECT_EQ(profile.outOfRangeCpuEvents, 0u);
    EXPECT_LE(profile.maxConcurrency(),
              machine.activeLogicalCpus());
    EXPECT_GT(profile.maxConcurrency(), 0u);
}

TEST_P(SchedulerSweep, OnlyActiveCpusAreUsed)
{
    MachineConfig cfg = config();
    Machine machine(cfg);
    machine.session().start(0);
    auto &proc = machine.createProcess("app");
    for (unsigned i = 0; i < 14; ++i) {
        proc.createThread(
            makeSequence({Action::compute(workForMs(5.0, 3.7))}),
            std::string("w") + std::to_string(i));
    }
    machine.run(sec(2));
    machine.session().stop(machine.now());

    CpuTopology topology(cfg.cpu);
    for (const auto &e : machine.session().bundle().cswitches) {
        if (cfg.smtEnabled) {
            EXPECT_LT(e.cpu, cfg.activeCpus);
        } else {
            // Primary hardware threads of the first N cores only.
            EXPECT_EQ(e.cpu % cfg.cpu.threadsPerCore, 0u);
            EXPECT_LT(topology.physicalOf(e.cpu), cfg.activeCpus);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Masks, SchedulerSweep,
    ::testing::Values(Config{2, true}, Config{4, true},
                      Config{6, true}, Config{8, true},
                      Config{12, true}, Config{1, false},
                      Config{3, false}, Config{6, false}),
    [](const ::testing::TestParamInfo<Config> &info) {
        return std::to_string(std::get<0>(info.param)) +
               (std::get<1>(info.param) ? "smt" : "nosmt");
    });

} // namespace
