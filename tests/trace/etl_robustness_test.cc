/**
 * @file
 * Failure-injection tests for the .etl decoder: truncations and byte
 * corruption must produce a structured error (or, for payload-only
 * flips, a successfully parsed bundle) — never crashes, hangs,
 * exceptions, or unbounded allocation.
 */

#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "trace/container.hh"
#include "trace/etl.hh"

namespace {

using namespace deskpar;
using namespace deskpar::trace;

std::string
serializedSample()
{
    TraceBundle bundle;
    bundle.startTime = 0;
    bundle.stopTime = 100000;
    bundle.numLogicalCpus = 12;
    bundle.processNames[0] = "Idle";
    bundle.processNames[7] = "app";
    for (int i = 0; i < 40; ++i) {
        CSwitchEvent e;
        e.timestamp = static_cast<SimTime>(i * 1000);
        e.cpu = static_cast<CpuId>(i % 12);
        e.newPid = i % 2 ? 7 : 0;
        e.newTid = i % 2 ? 71 : 0;
        bundle.cswitches.push_back(e);
        GpuPacketEvent g;
        g.start = static_cast<SimTime>(i * 1000);
        g.finish = g.start + 500;
        g.pid = 7;
        bundle.gpuPackets.push_back(g);
    }
    std::ostringstream out;
    writeEtl(bundle, out);
    return out.str();
}

/** Decode arbitrary bytes; success or a structured error are fine. */
void
mustNotCrash(const std::string &data)
{
    IngestReport report;
    TraceBundle bundle;
    ASSERT_NO_THROW(
        bundle = decodeEtl(io::ByteSpan(data), ParseOptions{}, report));
    if (report.ok()) {
        // If it parsed, basic sanity must hold.
        EXPECT_LE(bundle.startTime, bundle.stopTime + (1ull << 40));
    } else {
        ASSERT_FALSE(report.errors.empty());
        EXPECT_FALSE(report.errors.front().reason.empty());
    }
}

class EtlTruncation : public ::testing::TestWithParam<int>
{};

TEST_P(EtlTruncation, TruncatedPrefixNeverCrashes)
{
    std::string data = serializedSample();
    auto fraction = static_cast<std::size_t>(GetParam());
    mustNotCrash(data.substr(0, data.size() * fraction / 16));
}

INSTANTIATE_TEST_SUITE_P(Fractions, EtlTruncation,
                         ::testing::Range(0, 16));

TEST(EtlRobustness, SingleByteCorruptionSweep)
{
    std::string data = serializedSample();
    std::mt19937 rng(1234);
    // Flip one byte at 200 random positions.
    for (int trial = 0; trial < 200; ++trial) {
        std::string corrupted = data;
        std::size_t pos = rng() % corrupted.size();
        corrupted[pos] = static_cast<char>(rng() & 0xff);
        mustNotCrash(corrupted);
    }
}

TEST(EtlRobustness, RandomGarbageInput)
{
    std::mt19937 rng(99);
    for (int trial = 0; trial < 50; ++trial) {
        std::string garbage(rng() % 300, '\0');
        for (char &c : garbage)
            c = static_cast<char>(rng() & 0xff);
        mustNotCrash(garbage);
    }
}

TEST(EtlRobustness, HugeDeclaredCountDoesNotAllocate)
{
    // Magic + version + header, then a CSwitch section claiming 2^40
    // events with no payload: the reader must fail on truncation,
    // not attempt a 2^40-element reserve.
    std::string body;
    putVarint(body, 1);       // version
    putVarint(body, 0);       // start
    putVarint(body, 100);     // stop
    putVarint(body, 12);      // cpus
    body.push_back('\x02');   // CSwitch section
    putVarint(body, 1ull << 40);

    std::string data = "DPETL\x01";
    data.push_back('\0');
    data.push_back('\0');
    data += body;
    mustNotCrash(data);
}

} // namespace
