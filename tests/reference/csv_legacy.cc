#include "reference/csv_legacy.hh"

#include <istream>

#include "trace/csv.hh"
#include "trace/merge.hh"

namespace deskpar::trace::legacy {

namespace {

/**
 * Read the header line and all rows of @p in, dispatching each
 * well-split row to @p parseRow (as views into the owning fields).
 * Implements the strict/lenient record-skipping contract shared by
 * both CSV readers.
 */
template <typename RowFn>
IngestReport
readCsv(std::istream &in, const ParseOptions &options,
        const char *headerPrefix, std::size_t fieldCount,
        RowFn &&parseRow)
{
    IngestReport report;
    report.source = options.source.empty() ? "<stream>" : options.source;
    report.mode = options.mode;

    std::string line;
    if (!std::getline(in, line)) {
        ParseError e;
        e.source = report.source;
        e.section = "header";
        e.line = 1;
        e.reason = "empty input";
        report.note(std::move(e), options.maxStoredErrors);
        return report;
    }
    if (line.rfind(headerPrefix, 0) != 0) {
        ParseError e;
        e.source = report.source;
        e.section = "header";
        e.line = 1;
        e.reason = std::string("unexpected header (want '") +
                   headerPrefix + "...')";
        report.note(std::move(e), options.maxStoredErrors);
        return report;
    }

    std::uint64_t lineNo = 1;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty())
            continue;

        ParseError err;
        bool good = false;
        bool clamped = false;
        auto fields = splitCsvFields(line);
        if (!fields) {
            err = fields.error();
            err.source = report.source;
            err.section = "row";
            err.line = lineNo;
        } else if (fields->size() != fieldCount) {
            err.source = report.source;
            err.section = "row";
            err.line = lineNo;
            err.reason = "bad field count (" +
                         std::to_string(fields->size()) + ", want " +
                         std::to_string(fieldCount) + ")";
        } else {
            std::vector<std::string_view> views(fields->begin(),
                                                fields->end());
            good = parseRow(views, report.source, lineNo, clamped,
                            err);
        }

        if (good) {
            ++report.recordsParsed;
            if (clamped)
                report.noteRepair(std::move(err),
                                  options.maxStoredErrors);
            continue;
        }
        ++report.recordsSkipped;
        report.note(std::move(err), options.maxStoredErrors);
        if (options.mode == ParseMode::Strict)
            break;
    }
    return report;
}

} // namespace

ParseResult<std::vector<std::string>>
splitCsvFields(std::string_view line)
{
    std::size_t size = line.size();
    if (size && line[size - 1] == '\r')
        --size;

    std::vector<std::string> fields;
    std::string field;
    bool quoted = false;     // inside a quoted region
    bool wasQuoted = false;  // current field had a closing quote
    bool atStart = true;     // at the first byte of the field
    std::size_t openQuoteCol = 0;

    auto fail = [&](std::size_t column, std::string reason) {
        ParseError e;
        e.column = column;
        e.reason = std::move(reason);
        return e;
    };

    for (std::size_t i = 0; i < size; ++i) {
        char c = line[i];
        if (quoted) {
            if (c == '"') {
                if (i + 1 < size && line[i + 1] == '"') {
                    field += '"';
                    ++i;
                } else {
                    quoted = false;
                    wasQuoted = true;
                }
            } else {
                field += c;
            }
        } else if (c == ',') {
            fields.push_back(std::move(field));
            field.clear();
            quoted = wasQuoted = false;
            atStart = true;
        } else if (wasQuoted) {
            return fail(i + 1,
                        "text after closing quote in field " +
                            std::to_string(fields.size() + 1));
        } else if (c == '"') {
            if (!atStart) {
                return fail(i + 1,
                            "quote inside unquoted field " +
                                std::to_string(fields.size() + 1));
            }
            quoted = true;
            atStart = false;
            openQuoteCol = i + 1;
        } else {
            field += c;
            atStart = false;
        }
    }
    if (quoted) {
        return fail(openQuoteCol,
                    "unterminated quoted field " +
                        std::to_string(fields.size() + 1));
    }
    fields.push_back(std::move(field));
    return fields;
}

IngestReport
readCpuUsageCsv(std::istream &in, TraceBundle &bundle,
                const ParseOptions &options)
{
    auto row = [&](const std::vector<std::string_view> &fields,
                   const std::string &source, std::uint64_t line,
                   bool &clamped, ParseError &err) {
        CSwitchEvent e;
        if (!parseCpuRow(fields, e, bundle.processNames, source, line,
                         options.mode, clamped, err))
            return false;
        bundle.cswitches.push_back(e);
        return true;
    };
    IngestReport report =
        readCsv(in, options, "New Process,", 9, row);
    canonicalize(bundle);
    return report;
}

IngestReport
readGpuUtilCsv(std::istream &in, TraceBundle &bundle,
               const ParseOptions &options)
{
    auto row = [&](const std::vector<std::string_view> &fields,
                   const std::string &source, std::uint64_t line,
                   bool &, ParseError &err) {
        GpuPacketEvent e;
        if (!parseGpuRow(fields, e, bundle.processNames, source, line,
                         err))
            return false;
        bundle.gpuPackets.push_back(e);
        return true;
    };
    return readCsv(in, options, "Process,", 7, row);
}

} // namespace deskpar::trace::legacy
