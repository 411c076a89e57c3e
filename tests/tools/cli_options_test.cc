/**
 * @file
 * The shared subcommand flag parser (tools/cli_options.hh) and the
 * uniform exit-code convention it enforces.
 *
 * Two layers: Parser unit tests against in-process argv arrays, and
 * exit-code regression against the real `deskpar` binary (path baked
 * in via DESKPAR_CLI_PATH) — usage errors exit 2, runtime failures
 * exit 1, everywhere.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "tools/cli_options.hh"

namespace {

using namespace deskpar::cli;

/** Run parse() over a brace-list argv; argv[0] is prepended. */
bool
runParse(Parser &parser, std::vector<std::string> args)
{
    args.insert(args.begin(), "deskpar");
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return parser.parse(static_cast<int>(argv.size()), argv.data(),
                        1);
}

TEST(CliParser, FlagsAndStringOptions)
{
    bool json = false;
    std::string app;
    Parser parser("test");
    parser.flag("--json", &json);
    parser.option("--app", "PREFIX", &app);

    EXPECT_TRUE(runParse(parser, {"--json", "--app", "hand"}));
    EXPECT_TRUE(json);
    EXPECT_EQ(app, "hand");
}

TEST(CliParser, EqualsFormAndSingleDash)
{
    std::string out;
    Parser parser("test");
    parser.option("-o", "FILE", &out);
    EXPECT_TRUE(runParse(parser, {"-o=packed.etlc"}));
    EXPECT_EQ(out, "packed.etlc");
    EXPECT_TRUE(runParse(parser, {"-o", "other.etlc"}));
    EXPECT_EQ(out, "other.etlc");
}

TEST(CliParser, UnsignedOptionsRejectJunkSignAndOverflow)
{
    unsigned jobs = 7;
    Parser parser("test");
    parser.option("--jobs", "N", &jobs);

    EXPECT_TRUE(runParse(parser, {"--jobs", "4"}));
    EXPECT_EQ(jobs, 4u);
    EXPECT_FALSE(runParse(parser, {"--jobs", "4x"}));
    EXPECT_FALSE(runParse(parser, {"--jobs", "-1"}));
    EXPECT_FALSE(runParse(parser, {"--jobs", "+2"}));
    EXPECT_FALSE(runParse(parser, {"--jobs", ""}));

    std::uint16_t small = 0;
    Parser narrow("test");
    narrow.option("--port", "N", &small);
    EXPECT_FALSE(runParse(narrow, {"--port", "70000"}));
    EXPECT_TRUE(runParse(narrow, {"--port", "65535"}));
    EXPECT_EQ(small, 65535u);
}

TEST(CliParser, DoubleOptionRejectsJunk)
{
    double seconds = 0;
    Parser parser("test");
    parser.option("--seconds", "S", &seconds);
    EXPECT_TRUE(runParse(parser, {"--seconds", "2.5"}));
    EXPECT_DOUBLE_EQ(seconds, 2.5);
    EXPECT_FALSE(runParse(parser, {"--seconds", "fast"}));
    EXPECT_FALSE(runParse(parser, {"--seconds", "1.5s"}));
}

TEST(CliParser, CallbackValidationFailsTheParse)
{
    std::string got;
    Parser parser("test");
    parser.option("--gpu", "NAME",
                  [&got](const std::string &value,
                         std::string &error) {
                      if (value != "1080ti") {
                          error = "unknown gpu '" + value + "'";
                          return false;
                      }
                      got = value;
                      return true;
                  });
    EXPECT_TRUE(runParse(parser, {"--gpu", "1080ti"}));
    EXPECT_EQ(got, "1080ti");
    EXPECT_FALSE(runParse(parser, {"--gpu", "3090"}));
}

TEST(CliParser, UnknownOptionAndMissingValueFail)
{
    bool json = false;
    std::string app;
    Parser parser("test");
    parser.flag("--json", &json);
    parser.option("--app", "PREFIX", &app);

    EXPECT_FALSE(runParse(parser, {"--verbose"}));
    EXPECT_FALSE(runParse(parser, {"--app"}));      // value missing
    EXPECT_FALSE(runParse(parser, {"--json=yes"})); // flag w/ value
}

TEST(CliParser, PositionalBounds)
{
    std::vector<std::string> args;
    Parser parser("query");
    parser.positionals(&args, 2, Parser::kUnlimited,
                       "trace file + specs");

    EXPECT_FALSE(runParse(parser, {"t.etl"}));
    EXPECT_TRUE(runParse(parser, {"t.etl", "tlp", "busy"}));
    ASSERT_EQ(args.size(), 3u);
    EXPECT_EQ(args[2], "busy");

    std::vector<std::string> one;
    Parser bounded("report");
    bounded.positionals(&one, 1, 1, "trace file");
    EXPECT_FALSE(runParse(bounded, {"a.etl", "b.etl"}));

    Parser none("serve-stop");
    EXPECT_FALSE(runParse(none, {"stray"}));
}

TEST(CliParser, DoubleDashEndsOptionParsing)
{
    std::vector<std::string> args;
    bool json = false;
    Parser parser("query");
    parser.flag("--json", &json);
    parser.positionals(&args, 1, Parser::kUnlimited, "trace file");

    EXPECT_TRUE(runParse(parser, {"--json", "--", "--weird.etl"}));
    EXPECT_TRUE(json);
    ASSERT_EQ(args.size(), 1u);
    EXPECT_EQ(args[0], "--weird.etl");
}

TEST(CliParser, CommonOptionsRespectTheMask)
{
    CommonOptions common;
    Parser parser("test");
    addCommonOptions(parser, common, kOptJobs | kOptLenient);

    EXPECT_TRUE(runParse(parser, {"--jobs", "8", "--lenient-traces"}));
    EXPECT_EQ(common.jobs, 8u);
    EXPECT_TRUE(common.lenient);
    // --json is not in the mask, so it is unknown here.
    EXPECT_FALSE(runParse(parser, {"--json"}));

    CommonOptions all;
    Parser full("test");
    addCommonOptions(full, all, kOptJobs | kOptJson | kOptLenient |
                                    kOptApp);
    EXPECT_TRUE(runParse(full, {"--json", "--app", "x"}));
    EXPECT_TRUE(all.json);
    EXPECT_EQ(all.appPrefix, "x");
}

TEST(CliParser, StrictNumberHelpers)
{
    std::uint64_t u = 0;
    EXPECT_TRUE(parseUnsigned("18446744073709551615", u));
    EXPECT_EQ(u, ~0ull);
    EXPECT_FALSE(parseUnsigned("18446744073709551616", u));
    EXPECT_FALSE(parseUnsigned("0x10", u));
    double d = 0;
    EXPECT_TRUE(parseDouble("-1e3", d));
    EXPECT_DOUBLE_EQ(d, -1000.0);
    EXPECT_FALSE(parseDouble("", d));
}

/** Exit code of a deskpar invocation, output silenced. */
int
deskparExit(const std::string &args)
{
    std::string command = std::string(DESKPAR_CLI_PATH) + " " + args +
                          " >/dev/null 2>&1";
    int status = std::system(command.c_str());
    EXPECT_TRUE(WIFEXITED(status)) << command;
    return WEXITSTATUS(status);
}

TEST(CliExitCodes, UsageErrorsExitTwo)
{
    EXPECT_EQ(deskparExit(""), 2);                // no command
    EXPECT_EQ(deskparExit("transmogrify"), 2);    // unknown command
    EXPECT_EQ(deskparExit("query"), 2);           // missing args
    EXPECT_EQ(deskparExit("query --jobs 4x t.etl tlp"), 2);
    EXPECT_EQ(deskparExit("bottlenecks"), 2);     // missing trace
    EXPECT_EQ(deskparExit("bottlenecks --top ten t.etl"), 2);
    EXPECT_EQ(deskparExit("replay --bogus-flag t.etl"), 2);
    EXPECT_EQ(deskparExit("sweep --count abc --out /tmp/x"), 2);
    EXPECT_EQ(deskparExit("serve"), 2);           // missing socket
    EXPECT_EQ(deskparExit("client"), 2);          // missing op
}

TEST(CliExitCodes, RuntimeFailuresExitOne)
{
    // Well-formed invocations that fail at runtime: unreadable
    // trace, unreachable socket.
    EXPECT_EQ(deskparExit("query /tmp/deskpar_absent.etl tlp"), 1);
    EXPECT_EQ(deskparExit("bottlenecks /tmp/deskpar_absent.etl"), 1);
    EXPECT_EQ(deskparExit("replay /tmp/deskpar_absent.etl"), 1);
    EXPECT_EQ(deskparExit("client /tmp/deskpar_absent.sock ping"), 1);
}

/**
 * Run `deskpar ARGS` (which may end in shell redirections); returns
 * the exit code and fills @p out with stdout.
 */
int
deskparRun(const std::string &args, std::string &out)
{
    std::string command = std::string(DESKPAR_CLI_PATH) + " " + args;
    FILE *pipe = ::popen(command.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << command;
    if (!pipe)
        return -1;
    out.clear();
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0)
        out.append(buf, n);
    int status = ::pclose(pipe);
    EXPECT_TRUE(WIFEXITED(status)) << command;
    return WEXITSTATUS(status);
}

/**
 * Run `deskpar ARGS`; returns the exit code and fills @p out with
 * stdout, followed by stderr when @p withStderr.
 */
int
deskparOutput(const std::string &args, std::string &out,
              bool withStderr = false)
{
    return deskparRun(args + (withStderr ? " 2>&1" : " 2>/dev/null"),
                      out);
}

/** The whitespace-separated tokens of the first line of @p text
 *  that starts with @p prefix (empty when none does). */
std::vector<std::string>
lineTokens(const std::string &text, const std::string &prefix)
{
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.compare(0, prefix.size(), prefix) != 0)
            continue;
        std::istringstream words(line);
        std::vector<std::string> tokens;
        for (std::string word; words >> word;)
            tokens.push_back(word);
        return tokens;
    }
    return {};
}

/**
 * `deskpar run APP --etl FILE` on a browser: the simulator records
 * GPU packets as they complete, and the .etl writer refuses streams
 * not sorted by start, so the trace must be sorted before it is
 * written (it used to exit 1 and leave an empty file). The saved
 * trace must replay to the TLP and GPU utilization `run` printed;
 * with one iteration the run's mean is that trace's value.
 */
TEST(CliRunEtl, BrowserTraceSavesAndReplaysToTheSameMetrics)
{
    const std::string dir = ::testing::TempDir() + "/cli_run_etl_" +
                            std::to_string(::getpid());
    std::filesystem::create_directories(dir);
    const std::string etl = dir + "/chrome.etl";

    std::string out;
    ASSERT_EQ(deskparOutput("run chrome --seconds 5 --etl " + etl, out),
              0)
        << out;
    EXPECT_GT(std::filesystem::file_size(etl), 0u);
    std::string replayed;
    EXPECT_EQ(deskparOutput("replay " + etl, replayed), 0) << replayed;

    ASSERT_EQ(deskparOutput("run chrome --seconds 5 --iterations 1 "
                            "--etl " + etl,
                            out),
              0)
        << out;
    ASSERT_EQ(deskparOutput("replay " + etl, replayed), 0) << replayed;
    std::vector<std::string> tlp = lineTokens(out, "  TLP");
    std::vector<std::string> gpu = lineTokens(out, "  GPU util");
    std::vector<std::string> row = lineTokens(replayed, etl);
    ASSERT_GE(tlp.size(), 2u) << out;
    ASSERT_GE(gpu.size(), 3u) << out;
    // replay row: trace, size, ingest MB/s, TLP, GPU util, ...
    ASSERT_GE(row.size(), 5u) << replayed;
    EXPECT_EQ(row[3], tlp[1]);
    EXPECT_EQ(row[4] + "%", gpu[2]);

    // A failed write exits 1 and leaves no file behind.
    const std::string unwritable = dir + "/missing/chrome.etl";
    EXPECT_EQ(deskparOutput("run chrome --seconds 1 --iterations 1 "
                            "--etl " + unwritable,
                            out),
              1);
    EXPECT_FALSE(std::filesystem::exists(unwritable));
    std::filesystem::remove_all(dir);
}

/** Lines of @p text that contain @p needle. */
std::size_t
countLines(const std::string &text, const std::string &needle)
{
    std::istringstream lines(text);
    std::size_t n = 0;
    for (std::string line; std::getline(lines, line);)
        n += line.find(needle) != std::string::npos;
    return n;
}

/** A saved handbrake trace and a copy of it cut in half. */
class CliReplay : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir = ::testing::TempDir() + "/cli_replay_" +
              std::to_string(::getpid());
        std::filesystem::create_directories(dir);
        good = dir + "/good.etl";
        bad = dir + "/bad.etl";
        std::string out;
        ASSERT_EQ(deskparOutput("run handbrake --seconds 2 "
                                "--iterations 1 --etl " + good,
                                out),
                  0)
            << out;
        std::filesystem::copy_file(good, bad);
        std::filesystem::resize_file(
            bad, std::filesystem::file_size(good) / 2);
    }

    void TearDown() override { std::filesystem::remove_all(dir); }

    /** Last cell (the Status column) of @p path's table row. */
    static std::string status(const std::string &table,
                              const std::string &path)
    {
        std::vector<std::string> row = lineTokens(table, path);
        return row.empty() ? "" : row.back();
    }

    std::string dir, good, bad;
};

TEST_F(CliReplay, CorruptTraceFailsOnlyItsOwnEntry)
{
    std::string out;
    EXPECT_EQ(deskparOutput("replay " + good + " " + bad, out), 1);
    EXPECT_EQ(status(out, good), "ok") << out;
    EXPECT_EQ(status(out, bad), "FAILED") << out;

    EXPECT_EQ(deskparOutput("replay --json " + good + " " + bad, out),
              1);
    EXPECT_EQ(countLines(out, "\"command\":\"analyze\""), 2u) << out;
    std::istringstream docs(out);
    std::string first, second;
    std::getline(docs, first);
    std::getline(docs, second);
    EXPECT_NE(first.find("\"status\":\"ok\""), std::string::npos)
        << first;
    EXPECT_NE(second.find("\"status\":\"failed\""), std::string::npos)
        << second;
}

TEST_F(CliReplay, MissingFileFailsOnlyItsOwnEntry)
{
    const std::string missing = dir + "/missing.etl";
    std::string out;
    EXPECT_EQ(deskparOutput("replay " + missing + " " + good, out), 1);
    EXPECT_EQ(status(out, missing), "FAILED") << out;
    EXPECT_EQ(status(out, good), "ok") << out;

    EXPECT_EQ(
        deskparOutput("replay --json " + missing + " " + good, out), 1);
    EXPECT_EQ(countLines(out, "\"status\":\"failed\""), 1u) << out;
    EXPECT_EQ(countLines(out, "\"status\":\"ok\""), 1u) << out;
}

// The bottleneck analysis is one sequential pass, so `bottlenecks`
// has no --jobs: a readable trace with the flag is a usage error.
TEST_F(CliReplay, BottlenecksRejectsJobs)
{
    std::string out;
    EXPECT_EQ(deskparOutput("bottlenecks " + good, out), 0) << out;
    EXPECT_EQ(deskparOutput("bottlenecks --jobs 2 " + good, out), 2)
        << out;
}

// A lenient replay that had to drop records analyzes what survived
// but exits 1 in both forms, with the shared degraded-ingest line.
TEST_F(CliReplay, DegradedLenientReplayExitsOne)
{
    for (const char *form : {"", "--json "}) {
        SCOPED_TRACE(form);
        std::string out;
        EXPECT_EQ(deskparOutput(std::string("replay --lenient-traces ") +
                                    form + bad,
                                out, /*withStderr=*/true),
                  1)
            << out;
        EXPECT_EQ(countLines(out, "deskpar: degraded ingest: "), 1u)
            << out;
    }
}

/**
 * A 2 s handbrake run saved as .etl and as a CPU-Usage .csv, the
 * export format that carries no ordering guarantee, CPU count or
 * window: every decoder settles those (trace::canonicalize), so the
 * CSV answers every command the .etl does.
 */
class CliCanonical : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir = ::testing::TempDir() + "/cli_canonical_" +
              std::to_string(::getpid());
        std::filesystem::create_directories(dir);
        etl = dir + "/s.etl";
        csv = dir + "/s.csv";
        std::string out;
        ASSERT_EQ(deskparOutput("run handbrake --seconds 2 "
                                "--iterations 1 --etl " + etl +
                                    " --cpu-csv " + csv,
                                out),
                  0)
            << out;
    }

    void TearDown() override { std::filesystem::remove_all(dir); }

    std::string dir, etl, csv;
};

TEST_F(CliCanonical, CsvTraceReplaysAndAnswersQueries)
{
    std::string out;
    EXPECT_EQ(deskparOutput("replay " + csv, out, true), 0) << out;
    EXPECT_EQ(deskparOutput("replay --json " + csv, out, true), 0)
        << out;
    EXPECT_NE(out.find("\"status\":\"ok\""), std::string::npos) << out;
    EXPECT_EQ(deskparOutput("query " + csv +
                                " tlp 'tlp/by=bucket:100ms'",
                            out, true),
              0)
        << out;
}

TEST_F(CliCanonical, PackedCsvVerifiesAndReplaysToTheSameTlp)
{
    const std::string etlc = dir + "/s.etlc";
    std::string out;
    ASSERT_EQ(deskparOutput("pack " + csv + " -o " + etlc + " --verify",
                            out, true),
              0)
        << out;
    std::string fromCsv, fromEtlc;
    ASSERT_EQ(deskparOutput("replay " + csv, fromCsv), 0);
    ASSERT_EQ(deskparOutput("replay " + etlc, fromEtlc), 0);
    // replay row: trace, size, ingest MB/s, TLP, ...
    std::vector<std::string> a = lineTokens(fromCsv, csv);
    std::vector<std::string> b = lineTokens(fromEtlc, etlc);
    ASSERT_GE(a.size(), 4u) << fromCsv;
    ASSERT_GE(b.size(), 4u) << fromEtlc;
    EXPECT_EQ(a[3], b[3]);
}

/** Skip one LEB128 varint at @p pos. */
std::size_t
skipVarint(const std::string &bytes, std::size_t pos)
{
    while (pos < bytes.size() &&
           (static_cast<unsigned char>(bytes[pos]) & 0x80) != 0)
        ++pos;
    return pos + 1;
}

/** The whole of file @p path. */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
}

/**
 * Copy of the fixture's .etl at @p dir/huge.etl whose header's CPU
 * count (the fourth varint past the 8-byte magic) claims 20,000,000
 * CPUs.
 */
std::string
writeHugeEtl(const std::string &dir, const std::string &etl)
{
    std::string bytes = slurp(etl);
    std::size_t pos = 8;
    for (int i = 0; i < 3; ++i)
        pos = skipVarint(bytes, pos);
    std::string claim;
    std::uint64_t v = 20'000'000;
    for (; v > 0x7f; v >>= 7)
        claim.push_back(static_cast<char>((v & 0x7f) | 0x80));
    claim.push_back(static_cast<char>(v));
    bytes.replace(pos, skipVarint(bytes, pos) - pos, claim);
    const std::string huge = dir + "/huge.etl";
    std::ofstream(huge, std::ios::binary) << bytes;
    return huge;
}

/**
 * Every analysis command under --lenient-traces on @p trace, whose
 * header the reader refuses: each exits 1 with the header error
 * @p want, naming @p trace, on stderr and prints no report (replay's
 * table row says FAILED).
 */
void
expectLenientHeaderRefusal(const std::string &dir,
                           const std::string &trace,
                           const std::string &want)
{
    const std::string errPath = dir + "/stderr.txt";
    for (const char *command : {"replay", "query", "bottlenecks"}) {
        SCOPED_TRACE(command);
        std::string args = std::string(command) + " --lenient-traces " +
                           trace;
        if (std::string(command) == "query")
            args += " 'tlp/by=bucket:100ms'";
        std::string out;
        EXPECT_EQ(deskparRun(args + " 2>" + errPath, out), 1) << out;
        std::string err = slurp(errPath);
        EXPECT_NE(err.find(want), std::string::npos) << err;
        EXPECT_NE(err.find("deskpar: " + trace), std::string::npos)
            << err;
        EXPECT_EQ(err.find("degraded ingest"), std::string::npos) << err;
        if (std::string(command) == "replay") {
            EXPECT_NE(out.find("FAILED"), std::string::npos) << out;
            EXPECT_EQ(out.find(" ok"), std::string::npos) << out;
        } else {
            EXPECT_EQ(out, "");
        }
    }
}

TEST_F(CliCanonical, HeaderClaimingTooManyCpusIsRefusedInBothModes)
{
    const std::string huge = writeHugeEtl(dir, etl);
    std::string out;
    for (const char *mode : {"", "--lenient-traces "}) {
        SCOPED_TRACE(mode);
        EXPECT_EQ(deskparOutput(std::string("replay ") + mode + huge,
                                out, true),
                  1)
            << out;
        EXPECT_EQ(deskparOutput(std::string("query ") + mode + huge +
                                    " 'tlp/by=bucket:100ms'",
                                out, true),
                  1)
            << out;
    }
    EXPECT_EQ(deskparOutput("replay " + huge, out, true), 1);
    EXPECT_NE(out.find("CPU count 20000000 exceeds 1024"),
              std::string::npos)
        << out;
}

// A header the reader refuses leaves nothing to salvage: a lenient
// open fails with the strict mode's named error instead of analyzing
// an empty trace.
TEST_F(CliCanonical, LenientRefusedEtlHeaderFailsEveryCommand)
{
    expectLenientHeaderRefusal(
        dir, writeHugeEtl(dir, etl),
        "[header] numLogicalCpus: CPU count 20000000 exceeds 1024");
}

TEST_F(CliCanonical, LenientRefusedCsvHeaderFailsEveryCommand)
{
    std::string text = slurp(csv);
    text.replace(0, text.find('\n'), "Bogus,Header");
    const std::string bad = dir + "/badhdr.csv";
    std::ofstream(bad) << text;
    expectLenientHeaderRefusal(dir, bad,
                               bad + ":1: [header] unexpected header");
}

// pack applies the same rule: a refused header fails the lenient
// pack with the header error, naming the file, and writes no .etlc.
TEST_F(CliCanonical, LenientPackOfARefusedHeaderFailsAndWritesNothing)
{
    std::string text = slurp(csv);
    text.replace(0, text.find('\n'), "Bogus,Header");
    const std::string badCsv = dir + "/badhdr.csv";
    std::ofstream(badCsv) << text;
    const std::string errPath = dir + "/stderr.txt";
    const std::pair<std::string, std::string> cases[] = {
        {writeHugeEtl(dir, etl),
         "[header] numLogicalCpus: CPU count 20000000 exceeds 1024"},
        {badCsv, badCsv + ":1: [header] unexpected header"},
    };
    for (const auto &[trace, want] : cases) {
        SCOPED_TRACE(trace);
        const std::string packed = dir + "/packed.etlc";
        std::string out;
        EXPECT_EQ(deskparRun("pack --lenient-traces " + trace + " -o " +
                                 packed + " 2>" + errPath,
                             out),
                  1)
            << out;
        std::string err = slurp(errPath);
        EXPECT_NE(err.find(want), std::string::npos) << err;
        EXPECT_NE(err.find("deskpar: " + trace), std::string::npos)
            << err;
        EXPECT_EQ(err.find("degraded ingest"), std::string::npos) << err;
        EXPECT_EQ(out, "");
        EXPECT_FALSE(std::filesystem::exists(packed));
    }
}

// A CSV holding only its header row decodes to an empty window: the
// query error names the trace. Other query errors keep their text.
TEST_F(CliCanonical, EmptyWindowQueryErrorNamesTheTrace)
{
    const std::string empty = dir + "/empty.csv";
    {
        std::string text = slurp(csv);
        std::ofstream(empty) << text.substr(0, text.find('\n') + 1);
    }
    const std::string errPath = dir + "/stderr.txt";
    std::string out;
    for (const char *form : {"", "--json "}) {
        SCOPED_TRACE(form);
        EXPECT_EQ(deskparRun(std::string("query ") + form + empty +
                                 " tlp 2>" + errPath,
                             out),
                  1);
        EXPECT_EQ(out, "");
        EXPECT_EQ(slurp(errPath),
                  "deskpar: fatal: query: empty window in trace '" +
                      empty + "'\n");
    }
    EXPECT_EQ(deskparRun("query " + empty + " 'tlp/app=zzz' 2>" + errPath,
                         out),
              1);
    EXPECT_EQ(slurp(errPath),
              "deskpar: fatal: query: no process name matches prefix "
              "'zzz'\n");
}

} // namespace
