/**
 * @file
 * Tests for the unified Diagnostic currency: formatting, sink
 * installation and scoping, the IngestReport/JobFailure adapters,
 * and the analysis-layer warning routing.
 */

#include <gtest/gtest.h>

#include "analysis/trace_index.hh"
#include "apps/runner.hh"
#include "trace/diagnostic.hh"

namespace {

using namespace deskpar;

TEST(Diagnostic, SeverityNames)
{
    EXPECT_STREQ(trace::severityName(trace::Severity::Info), "info");
    EXPECT_STREQ(trace::severityName(trace::Severity::Warning),
                 "warning");
    EXPECT_STREQ(trace::severityName(trace::Severity::Error),
                 "error");
}

TEST(Diagnostic, StrPrefixesSeverityAndComponent)
{
    trace::Diagnostic diagnostic;
    diagnostic.severity = trace::Severity::Warning;
    diagnostic.component = "analysis";
    diagnostic.detail.source = "trace.etl";
    diagnostic.detail.reason = "something odd";
    EXPECT_EQ(diagnostic.str(),
              "[warning] analysis: trace.etl: something odd");
}

TEST(Diagnostic, CollectingSinkCapturesAndScopeRestores)
{
    trace::CollectingDiagnosticSink outer;
    trace::ScopedDiagnosticSink outerScope(outer);
    {
        trace::CollectingDiagnosticSink inner;
        trace::ScopedDiagnosticSink innerScope(inner);
        trace::emitDiagnostic(trace::Severity::Info, "test",
                              "inner message");
        EXPECT_EQ(inner.count(), 1u);
        EXPECT_EQ(outer.count(), 0u);
    }
    trace::emitDiagnostic(trace::Severity::Error, "test",
                          "outer message");
    std::vector<trace::Diagnostic> collected = outer.diagnostics();
    ASSERT_EQ(collected.size(), 1u);
    EXPECT_EQ(collected[0].severity, trace::Severity::Error);
    EXPECT_EQ(collected[0].component, "test");
    EXPECT_EQ(collected[0].detail.reason, "outer message");
    EXPECT_EQ(outer.count(trace::Severity::Error), 1u);
    EXPECT_EQ(outer.count(trace::Severity::Warning), 1u);
}

TEST(Diagnostic, IngestReportConvertsStoredErrors)
{
    trace::IngestReport report;
    report.source = "bad.etl";
    report.mode = trace::ParseMode::Lenient;
    trace::ParseError error;
    error.section = "CSwitch";
    error.record = 7;
    error.reason = "truncated record";
    report.note(error, 8);

    std::vector<trace::Diagnostic> diagnostics =
        report.diagnostics();
    ASSERT_EQ(diagnostics.size(), 1u);
    EXPECT_EQ(diagnostics[0].severity, trace::Severity::Warning);
    EXPECT_EQ(diagnostics[0].component, "ingest");
    // The report's source fills in for errors that lack one.
    EXPECT_EQ(diagnostics[0].detail.source, "bad.etl");
    EXPECT_EQ(diagnostics[0].detail.section, "CSwitch");
    EXPECT_EQ(diagnostics[0].detail.record, 7u);

    // Strict-mode rejections are errors, not warnings.
    report.mode = trace::ParseMode::Strict;
    EXPECT_EQ(report.diagnostics()[0].severity,
              trace::Severity::Error);
}

TEST(Diagnostic, JobFailureConvertsToRunnerError)
{
    apps::JobFailure failure;
    failure.job = 2;
    failure.label = "traces/broken.etl";
    failure.reason = "header magic mismatch";

    trace::Diagnostic diagnostic = failure.diagnostic();
    EXPECT_EQ(diagnostic.severity, trace::Severity::Error);
    EXPECT_EQ(diagnostic.component, "runner");
    // The job label is the diagnostic's source.
    EXPECT_EQ(diagnostic.detail.source, "traces/broken.etl");
    EXPECT_EQ(diagnostic.detail.reason, "header magic mismatch");
}

TEST(Diagnostic, AnalysisCpuRangeWarningRoutesThroughSink)
{
    trace::CollectingDiagnosticSink sink;
    trace::ScopedDiagnosticSink scope(sink);
    trace::TraceBundle bundle;
    analysis::TraceIndex index(bundle);
    index.warnOutOfRangeOnce(3, 8);

    std::vector<trace::Diagnostic> diagnostics = sink.diagnostics();
    ASSERT_EQ(diagnostics.size(), 1u);
    EXPECT_EQ(diagnostics[0].severity, trace::Severity::Warning);
    EXPECT_EQ(diagnostics[0].component, "analysis");
    EXPECT_EQ(diagnostics[0].detail.section, "CSwitch");
    EXPECT_EQ(diagnostics[0].detail.field, "cpu");
    EXPECT_NE(diagnostics[0].detail.reason.find("3 context switch"),
              std::string::npos);
}

} // namespace
