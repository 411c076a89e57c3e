#include "trace/csv.hh"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <ostream>

#include "obs/obs.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "trace/merge.hh"

namespace deskpar::trace {

namespace {

/** std::string_view pieces concatenate via std::string only. */
std::string
str(std::string_view v)
{
    return std::string(v);
}

std::string
quote(const std::string &s)
{
    if (s.find(',') == std::string::npos &&
        s.find('"') == std::string::npos) {
        return s;
    }
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += "\"\"";
        else
            out += c;
    }
    out += '"';
    return out;
}

std::string
processLabel(const TraceBundle &bundle, Pid pid)
{
    auto it = bundle.processNames.find(pid);
    std::string name =
        it == bundle.processNames.end() ? "Unknown" : it->second;
    return name + " (" + std::to_string(pid) + ")";
}

std::string
sourceLabel(const ParseOptions &options)
{
    return options.source.empty() ? "<stream>" : options.source;
}

/** Base error for one CSV row; the caller fills field/reason. */
ParseError
rowError(const std::string &source, std::uint64_t line,
         std::string field, std::string reason)
{
    ParseError e;
    e.source = source;
    e.section = "row";
    e.field = std::move(field);
    e.line = line;
    e.reason = std::move(reason);
    return e;
}

/**
 * Parse a bounded unsigned decimal field into @p out; on failure
 * fills @p reason. Shared by every numeric column so Pid/Tid/CpuId
 * truncation can't corrupt values silently.
 */
bool
parseBounded(std::string_view text, std::uint64_t max,
             std::uint64_t &out, std::string &reason)
{
    auto parsed = parseCsvU64(text);
    if (!parsed) {
        reason = parsed.error().reason;
        return false;
    }
    if (*parsed > max) {
        reason = "value " + str(text) + " out of range (max " +
                 std::to_string(max) + ")";
        return false;
    }
    out = *parsed;
    return true;
}

/**
 * Parse "name (pid)" back into its parts; fills @p reason on error.
 * @p name is a view into @p label — valid as long as the backing row
 * is (the caller copies it into the name table).
 */
bool
parseProcessLabel(std::string_view label, std::string_view &name,
                  Pid &pid, std::string &reason)
{
    auto open = label.rfind(" (");
    if (open == std::string_view::npos || label.empty() ||
        label.back() != ')') {
        reason = "malformed process label '" + str(label) +
                 "' (want 'name (pid)')";
        return false;
    }
    std::uint64_t value = 0;
    if (!parseBounded(
            label.substr(open + 2, label.size() - open - 3),
            std::numeric_limits<Pid>::max(), value, reason)) {
        reason = "process label '" + str(label) + "': " + reason;
        return false;
    }
    name = label.substr(0, open);
    pid = static_cast<Pid>(value);
    return true;
}

/** The fields of one split CSV row. */
using Fields = std::vector<std::string_view>;

/**
 * Decode the numeric column @p index of @p fields into @p out
 * (bounded by @p max); on failure produces the row's ParseError.
 */
bool
numericColumn(const Fields &fields, std::size_t index,
              const char *name, std::uint64_t max,
              std::uint64_t &out, const std::string &source,
              std::uint64_t line, ParseError &err)
{
    std::string reason;
    if (parseBounded(fields[index], max, out, reason))
        return true;
    err = rowError(source, line, name, reason);
    return false;
}

/** Decode a "name (pid)" column with a PID cross-check column. */
bool
labelColumn(const Fields &fields, std::size_t labelIndex,
            const char *labelName, std::size_t pidIndex,
            const char *pidName, std::string_view &name, Pid &pid,
            const std::string &source, std::uint64_t line,
            ParseError &err)
{
    std::string reason;
    if (!parseProcessLabel(fields[labelIndex], name, pid, reason)) {
        err = rowError(source, line, labelName, reason);
        return false;
    }
    std::uint64_t pidField = 0;
    if (!numericColumn(fields, pidIndex, pidName,
                       std::numeric_limits<Pid>::max(), pidField,
                       source, line, err)) {
        return false;
    }
    if (pidField != pid) {
        err = rowError(source, line, pidName,
                       "label/PID mismatch ('" +
                           str(fields[labelIndex]) + "' vs " +
                           str(fields[pidIndex]) + ")");
        return false;
    }
    return true;
}

/** A bundle's pid -> process-name table. */
using NameTable = decltype(TraceBundle::processNames);

/**
 * processNames[pid] = name without allocating when the entry already
 * holds that name (replays assign the same few names per row).
 */
void
assignName(NameTable &names, Pid pid, std::string_view name)
{
    auto it = names.find(pid);
    if (it == names.end())
        names.emplace(pid, std::string(name));
    else if (it->second != name)
        it->second.assign(name);
}

constexpr std::uint64_t kU64Max =
    std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kU32Max =
    std::numeric_limits<std::uint32_t>::max();

// The row decoders behind parseCpuRow/parseGpuRow. The chunk loop
// calls them once per row, so they are inlined into it, as they were
// when the loop instantiated them as templates.

[[gnu::always_inline]] inline bool
cpuRow(const Fields &fields, CSwitchEvent &e, NameTable &names,
       const std::string &source, std::uint64_t line, ParseMode mode,
       bool &clamped, ParseError &err)
{
    std::string_view newName, oldName;
    Pid newPid = 0, oldPid = 0;
    std::uint64_t v = 0;
    if (!labelColumn(fields, 0, "New Process", 1, "New PID", newName,
                     newPid, source, line, err))
        return false;
    e.newPid = newPid;
    if (!numericColumn(fields, 2, "New TID", kU32Max, v, source,
                       line, err))
        return false;
    e.newTid = static_cast<Tid>(v);
    if (!numericColumn(fields, 3, "CPU", kMaxLogicalCpus - 1, v,
                       source, line, err))
        return false;
    e.cpu = static_cast<CpuId>(v);
    if (!numericColumn(fields, 4, "Ready Time (ns)", kU64Max,
                       e.readyTime, source, line, err))
        return false;
    if (!numericColumn(fields, 5, "Switch-In Time (ns)", kU64Max,
                       e.timestamp, source, line, err))
        return false;
    if (e.readyTime > e.timestamp) {
        // A thread cannot be dispatched before it became runnable;
        // downstream wait math (timestamp - readyTime) would wrap.
        err = rowError(source, line, "Ready Time (ns)",
                       "ready time " + std::to_string(e.readyTime) +
                           " after switch-in time " +
                           std::to_string(e.timestamp));
        if (mode == ParseMode::Strict)
            return false;
        e.readyTime = e.timestamp;
        clamped = true;
    }
    if (!labelColumn(fields, 6, "Old Process", 7, "Old PID", oldName,
                     oldPid, source, line, err))
        return false;
    e.oldPid = oldPid;
    if (!numericColumn(fields, 8, "Old TID", kU32Max, v, source,
                       line, err))
        return false;
    e.oldTid = static_cast<Tid>(v);

    assignName(names, e.newPid, newName);
    assignName(names, e.oldPid, oldName);
    return true;
}

[[gnu::always_inline]] inline bool
gpuRow(const Fields &fields, GpuPacketEvent &e, NameTable &names,
       const std::string &source, std::uint64_t line, ParseError &err)
{
    std::string_view name;
    Pid pid = 0;
    std::uint64_t v = 0;
    if (!labelColumn(fields, 0, "Process", 1, "PID", name, pid,
                     source, line, err))
        return false;
    e.pid = pid;

    std::string_view engine = fields[2];
    bool found = false;
    for (unsigned i = 0; i < kNumGpuEngines; ++i) {
        auto id = static_cast<GpuEngineId>(i);
        if (engine == gpuEngineName(id)) {
            e.engine = id;
            found = true;
            break;
        }
    }
    if (!found) {
        err = rowError(source, line, "Engine",
                       "unknown engine '" + str(engine) + "'");
        return false;
    }

    if (!numericColumn(fields, 3, "Queue Slot", 0xff, v, source,
                       line, err))
        return false;
    e.queueSlot = static_cast<std::uint8_t>(v);
    if (!numericColumn(fields, 4, "Queued (ns)", kU64Max, e.queued,
                       source, line, err))
        return false;
    if (!numericColumn(fields, 5, "Start Execution (ns)", kU64Max,
                       e.start, source, line, err))
        return false;
    if (!numericColumn(fields, 6, "Finished (ns)", kU64Max, e.finish,
                       source, line, err))
        return false;

    assignName(names, e.pid, name);
    return true;
}

} // namespace

bool
parseCpuRow(const Fields &fields, CSwitchEvent &e, NameTable &names,
            const std::string &source, std::uint64_t line,
            ParseMode mode, bool &clamped, ParseError &err)
{
    return cpuRow(fields, e, names, source, line, mode, clamped, err);
}

bool
parseGpuRow(const Fields &fields, GpuPacketEvent &e, NameTable &names,
            const std::string &source, std::uint64_t line,
            ParseError &err)
{
    return gpuRow(fields, e, names, source, line, err);
}

namespace {

/**
 * getline-equivalent over a span: yields each '\n'-delimited line
 * (terminator excluded; a final unterminated line is still yielded).
 */
struct LineCursor
{
    io::ByteSpan data;
    std::size_t pos = 0;

    bool
    next(std::string_view &line)
    {
        if (pos >= data.size())
            return false;
        std::size_t nl = data.find('\n', pos);
        if (nl == std::string_view::npos) {
            line = data.substr(pos);
            pos = data.size();
        } else {
            line = data.substr(pos, nl - pos);
            pos = nl + 1;
        }
        return true;
    }
};

/** Lines std::getline would produce from @p chunk. */
std::uint64_t
lineCount(io::ByteSpan chunk)
{
    auto lines = static_cast<std::uint64_t>(
        std::count(chunk.begin(), chunk.end(), '\n'));
    if (!chunk.empty() && chunk.back() != '\n')
        ++lines; // final line without trailing newline
    return lines;
}

/**
 * Cut @p body into at most @p want chunks at newline boundaries.
 * Interior chunks always end just past a '\n'; concatenating the
 * chunks in order reproduces @p body byte for byte.
 */
std::vector<io::ByteSpan>
splitAtNewlines(io::ByteSpan body, unsigned want)
{
    std::vector<io::ByteSpan> chunks;
    std::size_t target =
        std::max<std::size_t>(1, body.size() / std::max(1u, want));
    std::size_t begin = 0;
    for (unsigned c = 0; c + 1 < want && begin < body.size(); ++c) {
        std::size_t cut = begin + target;
        if (cut >= body.size())
            break;
        std::size_t nl = body.find('\n', cut);
        if (nl == std::string_view::npos)
            break;
        chunks.push_back(body.substr(begin, nl + 1 - begin));
        begin = nl + 1;
    }
    chunks.push_back(body.substr(begin));
    return chunks;
}

/**
 * One chunk's share of the output: the rows it keeps are written to
 * slots[0..kept), never past capacity, and the names it assigns to
 * its own table (merged in file order afterwards).
 */
template <typename Event>
struct ChunkSlice
{
    Event *slots = nullptr;
    std::size_t capacity = 0;
    std::size_t kept = 0;
    NameTable names;
};

/**
 * Hard upper bound on the good rows of a chunk of @p bytes and
 * @p lines: one per line, and a good row spends at least one byte on
 * each of its @p fieldCount fields plus a separator or terminator
 * after each. The byte term keeps a hostile file of empty or tiny
 * lines from sizing the output past about twice its own bytes.
 */
std::size_t
maxRows(std::size_t bytes, std::uint64_t lines, std::size_t fieldCount)
{
    return static_cast<std::size_t>(std::min<std::uint64_t>(
        lines, (bytes + 1) / (2 * fieldCount)));
}

/**
 * Parse the rows of one chunk into @p out with absolute line numbers
 * starting at @p startLine. Mirrors the serial reference reader's
 * row loop (tests/reference/csv_legacy.cc) exactly; the
 * fields/scratch buffers are reused across rows so steady-state rows
 * allocate nothing, and each good row is written once, straight into
 * its slot.
 */
template <typename Event, typename RowFn>
IngestReport
parseCsvChunk(io::ByteSpan chunk, std::uint64_t startLine,
              const ParseOptions &options, const std::string &source,
              std::size_t fieldCount, RowFn &&parseRow,
              ChunkSlice<Event> &out)
{
    IngestReport report;
    report.source = source;
    report.mode = options.mode;

    LineCursor cursor{chunk, 0};
    std::vector<std::string_view> fields;
    fields.reserve(fieldCount + 2);
    std::string scratch;
    std::string_view line;
    std::uint64_t lineNo = startLine - 1;
    while (cursor.next(line)) {
        ++lineNo;
        if (line.empty())
            continue;

        ParseError err;
        bool good = false;
        bool clamped = false;
        Event e;
        if (!splitCsvFieldsView(line, fields, scratch, err)) {
            err.source = source;
            err.section = "row";
            err.line = lineNo;
        } else if (fields.size() != fieldCount) {
            err = rowError(source, lineNo, "",
                           "bad field count (" +
                               std::to_string(fields.size()) +
                               ", want " +
                               std::to_string(fieldCount) + ")");
        } else {
            good = parseRow(fields, e, out.names, source, lineNo,
                            clamped, err);
        }

        if (good) {
            if (out.kept == out.capacity)
                panic("parseCsvChunk: row past the chunk's bound");
            out.slots[out.kept++] = e;
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

/** Span inputs below this parse serially unless threads is forced. */
constexpr std::size_t kMinParallelBytes = 1 << 16;

/**
 * The zero-copy CSV reader: header check, chunk split, parallel
 * decode straight into @p out, deterministic merge. Byte-identical
 * to one serial getline pass over the same bytes (the reference in
 * tests/reference/csv_legacy.cc): events, names, report counters,
 * and every error payload.
 *
 * @p out grows once, by the summed row bounds of the chunks, and
 * each chunk writes its rows into its own slice; the slices are
 * compacted in file order only where a chunk kept fewer rows than
 * its bound, and the tail is trimmed.
 */
template <typename Event, typename RowFn>
IngestReport
readCsvSpan(io::ByteSpan data, std::vector<Event> &out,
            NameTable &names, const ParseOptions &options,
            const char *headerPrefix, std::size_t fieldCount,
            RowFn &&parseRow)
{
    obs::Span ingestSpan("ingest.csv", obs::SpanKind::Ingest,
                         data.size());
    obs::counterAdd("ingest.csv.bytes",
                    static_cast<std::int64_t>(data.size()));
    const std::string source = sourceLabel(options);

    LineCursor cursor{data, 0};
    std::string_view header;
    bool empty = !cursor.next(header);
    if (empty ||
        header.substr(0, std::string_view(headerPrefix).size()) !=
            headerPrefix) {
        IngestReport report;
        report.source = source;
        report.mode = options.mode;
        ParseError e;
        e.source = source;
        e.section = "header";
        e.line = 1;
        e.reason = empty ? std::string("empty input")
                         : std::string("unexpected header (want '") +
                               headerPrefix + "...')";
        report.note(std::move(e), options.maxStoredErrors);
        return report;
    }

    io::ByteSpan body = data.substr(cursor.pos);

    // Chunk-count policy: an explicit ParseOptions::threads forces
    // that many chunks (tests exercise tiny inputs at 7 chunks); auto
    // mode fans out only when the input is big enough to amortize
    // thread start. Quoted fields fall back to one serial chunk: a
    // '"' anywhere means field boundaries may not be derivable
    // chunk-locally, and correctness beats speed on the rare
    // quote-bearing trace.
    unsigned jobs = options.threads;
    if (jobs == 0) {
        jobs = body.size() >= kMinParallelBytes ? sim::resolveJobs()
                                                : 1;
    }
    if (jobs > 1 && body.find('"') != std::string_view::npos)
        jobs = 1;

    std::vector<io::ByteSpan> chunks = splitAtNewlines(body, jobs);
    std::vector<std::uint64_t> startLines(chunks.size());
    std::vector<std::size_t> offsets(chunks.size());
    std::vector<ChunkSlice<Event>> slices(chunks.size());
    std::uint64_t nextLine = 2; // line 1 is the header
    const std::size_t base = out.size();
    std::size_t end = base;
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        std::uint64_t lines = lineCount(chunks[i]);
        startLines[i] = nextLine;
        nextLine += lines;
        offsets[i] = end;
        slices[i].capacity =
            maxRows(chunks[i].size(), lines, fieldCount);
        end += slices[i].capacity;
    }
    out.resize(end);
    for (std::size_t i = 0; i < chunks.size(); ++i)
        slices[i].slots = out.data() + offsets[i];

    std::vector<IngestReport> reports(chunks.size());
    sim::parallelFor(jobs, chunks.size(), [&](std::size_t i) {
        obs::Span chunkSpan("ingest.csv.chunk", obs::SpanKind::Ingest,
                            chunks[i].size());
        reports[i] =
            parseCsvChunk(chunks[i], startLines[i], options, source,
                          fieldCount, parseRow, slices[i]);
    });

    // Deterministic merge in chunk (= file) order. In strict mode the
    // serial reader stops at the first defective row, so everything
    // past the first defective chunk is discarded unread. Later
    // chunks overwrite earlier names, matching the serial reader's
    // per-row assignment order (keys are unique per chunk).
    IngestReport report;
    report.source = source;
    report.mode = options.mode;
    std::size_t kept = base;
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        bool stop = options.mode == ParseMode::Strict &&
                    reports[i].errorCount > 0;
        const ChunkSlice<Event> &slice = slices[i];
        if (kept != offsets[i])
            std::move(slice.slots, slice.slots + slice.kept,
                      out.data() + kept);
        kept += slice.kept;
        for (auto &[pid, name] : slices[i].names)
            names[pid] = std::move(name);
        report.absorb(std::move(reports[i]),
                      options.maxStoredErrors);
        if (stop)
            break;
    }
    out.resize(kept);
    return report;
}

} // namespace

ParseResult<std::uint64_t>
parseCsvU64(std::string_view field)
{
    if (field.empty()) {
        ParseError e;
        e.reason = "empty numeric field";
        return e;
    }
    std::uint64_t value = 0;
    // Up to 19 digits cannot overflow: only longer fields pay for the
    // overflow test, and it sees the same digits in the same order.
    const bool canOverflow = field.size() > 19;
    for (char c : field) {
        if (c < '0' || c > '9') {
            ParseError e;
            e.reason = "non-numeric character '" +
                       std::string(1, c) + "' in field '" +
                       str(field) + "'";
            return e;
        }
        auto digit = static_cast<std::uint64_t>(c - '0');
        if (canOverflow && value > (kU64Max - digit) / 10) {
            ParseError e;
            e.reason = "field '" + str(field) + "' overflows 64 bits";
            return e;
        }
        value = value * 10 + digit;
    }
    return value;
}

bool
splitCsvFieldsView(std::string_view line,
                   std::vector<std::string_view> &fields,
                   std::string &scratch, ParseError &err)
{
    std::size_t size = line.size();
    if (size && line[size - 1] == '\r')
        --size;

    fields.clear();
    scratch.clear();
    // Unescaped content never exceeds the line length, so appends
    // below cannot reallocate — views into scratch stay valid across
    // multiple escaped fields on one line.
    scratch.reserve(size);

    auto fail = [&](std::size_t column, std::string reason) {
        err = ParseError{};
        err.column = column;
        err.reason = std::move(reason);
        return false;
    };

    std::size_t i = 0;
    while (true) {
        if (i < size && line[i] == '"') {
            // Quoted field: view into the line unless it contains a
            // doubled quote, in which case it unescapes into scratch.
            std::size_t openQuoteCol = i + 1;
            ++i;
            std::size_t start = i;
            std::size_t scratchStart = scratch.size();
            bool escaped = false;
            while (true) {
                if (i >= size) {
                    return fail(openQuoteCol,
                                "unterminated quoted field " +
                                    std::to_string(fields.size() +
                                                   1));
                }
                char c = line[i];
                if (c == '"') {
                    if (i + 1 < size && line[i + 1] == '"') {
                        if (!escaped) {
                            scratch.append(line.data() + start,
                                           i - start);
                            escaped = true;
                        }
                        scratch += '"';
                        i += 2;
                    } else {
                        ++i; // past the closing quote
                        break;
                    }
                } else {
                    if (escaped)
                        scratch += c;
                    ++i;
                }
            }
            std::string_view field =
                escaped ? std::string_view(scratch)
                              .substr(scratchStart)
                        : line.substr(start, i - 1 - start);
            if (i < size && line[i] != ',') {
                return fail(i + 1,
                            "text after closing quote in field " +
                                std::to_string(fields.size() + 1));
            }
            fields.push_back(field);
            if (i >= size)
                return true;
            ++i; // past the comma
        } else {
            std::size_t start = i;
            while (i < size && line[i] != ',') {
                if (line[i] == '"') {
                    return fail(i + 1,
                                "quote inside unquoted field " +
                                    std::to_string(fields.size() +
                                                   1));
                }
                ++i;
            }
            fields.push_back(line.substr(start, i - start));
            if (i >= size)
                return true;
            ++i; // past the comma
        }
    }
}

void
writeCpuUsageCsv(const TraceBundle &bundle, std::ostream &out)
{
    // Emitting an inverted ready time would manufacture corrupt
    // wakeup data that every reader then has to repair; refuse at
    // the source (writeEtl rejects it via validateEncoding()).
    for (std::size_t i = 0; i < bundle.cswitches.size(); ++i) {
        const auto &e = bundle.cswitches[i];
        if (e.readyTime > e.timestamp) {
            ParseError err;
            err.section = "CSwitch";
            err.record = i;
            err.reason = "writeCpuUsageCsv: ready time " +
                         std::to_string(e.readyTime) +
                         " after switch-in time " +
                         std::to_string(e.timestamp);
            throw TraceParseError(std::move(err));
        }
    }
    out << "New Process,New PID,New TID,CPU,Ready Time (ns),"
           "Switch-In Time (ns),Old Process,Old PID,Old TID\n";
    for (const auto &e : bundle.cswitches) {
        out << quote(processLabel(bundle, e.newPid)) << ','
            << e.newPid << ',' << e.newTid << ',' << e.cpu << ','
            << e.readyTime << ',' << e.timestamp << ','
            << quote(processLabel(bundle, e.oldPid)) << ','
            << e.oldPid << ',' << e.oldTid << '\n';
    }
    if (!out)
        fatal("writeCpuUsageCsv: stream write failed");
}

void
writeCpuUsageCsv(const TraceBundle &bundle, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        fatal("writeCpuUsageCsv: cannot open " + path);
    writeCpuUsageCsv(bundle, out);
}

void
writeGpuUtilCsv(const TraceBundle &bundle, std::ostream &out)
{
    out << "Process,PID,Engine,Queue Slot,Queued (ns),"
           "Start Execution (ns),Finished (ns)\n";
    for (const auto &e : bundle.gpuPackets) {
        out << quote(processLabel(bundle, e.pid)) << ',' << e.pid
            << ',' << gpuEngineName(e.engine) << ','
            << static_cast<unsigned>(e.queueSlot) << ',' << e.queued
            << ',' << e.start << ',' << e.finish << '\n';
    }
    if (!out)
        fatal("writeGpuUtilCsv: stream write failed");
}

void
writeGpuUtilCsv(const TraceBundle &bundle, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        fatal("writeGpuUtilCsv: cannot open " + path);
    writeGpuUtilCsv(bundle, out);
}

IngestReport
decodeCpuUsageCsv(io::ByteSpan data, TraceBundle &bundle,
                  const ParseOptions &options)
{
    IngestReport report = readCsvSpan(
        data, bundle.cswitches, bundle.processNames, options,
        "New Process,", 9,
        [mode = options.mode](
            const std::vector<std::string_view> &fields,
            CSwitchEvent &e, NameTable &names,
            const std::string &source, std::uint64_t line,
            bool &clamped, ParseError &err) {
            return cpuRow(fields, e, names, source, line, mode,
                          clamped, err);
        });
    canonicalize(bundle);
    return report;
}

IngestReport
decodeGpuUtilCsv(io::ByteSpan data, TraceBundle &bundle,
                 const ParseOptions &options)
{
    return readCsvSpan(
        data, bundle.gpuPackets, bundle.processNames, options,
        "Process,", 7,
        [](const std::vector<std::string_view> &fields,
           GpuPacketEvent &e, NameTable &names,
           const std::string &source, std::uint64_t line, bool &,
           ParseError &err) {
            return gpuRow(fields, e, names, source, line, err);
        });
}

} // namespace deskpar::trace
