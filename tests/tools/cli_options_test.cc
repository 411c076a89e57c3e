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
#include <sstream>
#include <string>
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

/** Run `deskpar ARGS`; returns the exit code and fills @p out. */
int
deskparOutput(const std::string &args, std::string &out)
{
    std::string command =
        std::string(DESKPAR_CLI_PATH) + " " + args + " 2>/dev/null";
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

} // namespace
