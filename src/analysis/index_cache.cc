#include "analysis/index_cache.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "obs/obs.hh"
#include "sim/logging.hh"
#include "trace/container.hh"
#include "trace/etlc.hh"
#include "trace/ingest.hh"
#include "trace/io.hh"

namespace deskpar::analysis {

namespace {

const char kDpidxMagic[8] = {'D', 'P', 'I', 'D', 'X', '\x01',
                             '\x00', '\x00'};

constexpr std::uint64_t kDpidxVersion = 1;

/** Bytes at each end of the trace file the identity hash covers. */
constexpr std::size_t kEdgeHashBytes = std::size_t(64) << 10;

bool
getU64(std::string_view data, std::size_t &pos, std::uint64_t &value)
{
    value = 0;
    unsigned shift = 0;
    while (true) {
        if (pos >= data.size() || shift >= 64)
            return false;
        auto byte = static_cast<std::uint8_t>(data[pos++]);
        value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return true;
        shift += 7;
    }
}

} // namespace

bool
probeTraceIdentity(const std::string &path, TraceIdentity &out,
                   std::string &error)
{
    std::error_code ec;
    auto size = std::filesystem::file_size(path, ec);
    if (ec) {
        error = "cannot stat " + path + ": " + ec.message();
        return false;
    }
    auto mtime = std::filesystem::last_write_time(path, ec);
    if (ec) {
        error = "cannot stat " + path + ": " + ec.message();
        return false;
    }
    // The first and last 64 KiB (the whole file when it is smaller),
    // so a rewrite that keeps the size and the mtime is still seen
    // at either end.
    const auto fileBytes = static_cast<std::size_t>(size);
    const std::size_t head = std::min(kEdgeHashBytes, fileBytes);
    const std::size_t tail =
        std::min(kEdgeHashBytes, fileBytes - head);
    std::unique_ptr<char[]> edges(new char[head + tail]);
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        error = "cannot open " + path;
        return false;
    }
    in.read(edges.get(), static_cast<std::streamsize>(head));
    in.seekg(static_cast<std::streamoff>(fileBytes - tail));
    in.read(edges.get() + head, static_cast<std::streamsize>(tail));
    if (!in) {
        error = "cannot read " + path;
        return false;
    }
    out.fileSize = size;
    out.mtime = static_cast<std::uint64_t>(
        mtime.time_since_epoch().count());
    // CRC32C of each end: any change of up to 32 bits within either
    // is caught.
    out.edgeHash =
        (std::uint64_t{trace::crc32c({edges.get(), head})} << 32) |
        trace::crc32c({edges.get() + head, tail});
    return true;
}

std::string
indexCachePath(const std::string &tracePath)
{
    return tracePath + ".dpidx";
}

bool
saveIndexCache(const Session &session, const std::string &tracePath,
               std::string &error)
{
    obs::Span span("index.cache.save", obs::SpanKind::Index);
    TraceIdentity id;
    if (!probeTraceIdentity(tracePath, id, error))
        return false;

    std::string columns = session.index().serializeColumns();

    // The columns replace the cswitch stream; everything else the
    // analyses read (names, GPU packets, frames, lifecycle, markers)
    // rides along verbatim as a small embedded .etlc image.
    trace::TraceBundle remainder = session.bundle();
    remainder.cswitches.clear();
    std::ostringstream bundleImage;
    try {
        trace::writeEtlc(remainder, bundleImage);
    } catch (const trace::TraceParseError &e) {
        error = std::string("bundle not cacheable: ") +
                e.error().str();
        return false;
    }
    std::string bundleBytes = std::move(bundleImage).str();

    std::string body;
    trace::putVarint(body, kDpidxVersion);
    trace::putVarint(body, id.fileSize);
    trace::putVarint(body, id.mtime);
    trace::putVarint(body, id.edgeHash);
    trace::putVarint(body, session.bundle().cswitches.size());
    trace::putVarint(body, bundleBytes.size());
    body.append(bundleBytes);
    trace::putVarint(body, columns.size());
    body.append(columns);

    std::uint32_t crc = trace::crc32c(body);
    std::string path = indexCachePath(tracePath);
    std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary);
        if (!out) {
            error = "cannot write " + tmp;
            return false;
        }
        out.write(kDpidxMagic, sizeof(kDpidxMagic));
        for (int i = 0; i < 4; ++i)
            out.put(static_cast<char>((crc >> (8 * i)) & 0xff));
        out.write(body.data(),
                  static_cast<std::streamsize>(body.size()));
        if (!out) {
            error = "cannot write " + tmp;
            return false;
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        error = "cannot move cache into place: " + path;
        return false;
    }
    return true;
}

std::unique_ptr<Session>
loadCachedSession(const std::string &tracePath, std::string &error)
{
    obs::Span span("index.cache.load", obs::SpanKind::Index);
    std::string path = indexCachePath(tracePath);
    trace::io::MappedFile file;
    if (!file.open(path, error))
        return nullptr;
    trace::io::ByteSpan data = file.span();

    if (data.size() < sizeof(kDpidxMagic) + 4 ||
        data.compare(0, sizeof(kDpidxMagic),
                     std::string_view(kDpidxMagic,
                                      sizeof(kDpidxMagic))) != 0) {
        error = path + ": not an index cache";
        return nullptr;
    }
    std::uint32_t crc = 0;
    for (int i = 0; i < 4; ++i)
        crc |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(
                   data[sizeof(kDpidxMagic) + i]))
               << (8 * i);
    std::string_view body = data.substr(sizeof(kDpidxMagic) + 4);
    if (trace::crc32c(body) != crc) {
        error = path + ": checksum mismatch (cache corrupt)";
        return nullptr;
    }

    std::size_t pos = 0;
    std::uint64_t version = 0;
    TraceIdentity cached;
    std::uint64_t cswitchCount = 0, bundleLen = 0;
    if (!getU64(body, pos, version) || version != kDpidxVersion) {
        error = path + ": unsupported cache version";
        return nullptr;
    }
    if (!getU64(body, pos, cached.fileSize) ||
        !getU64(body, pos, cached.mtime) ||
        !getU64(body, pos, cached.edgeHash) ||
        !getU64(body, pos, cswitchCount) ||
        !getU64(body, pos, bundleLen) ||
        bundleLen > body.size() - pos) {
        error = path + ": truncated cache header";
        return nullptr;
    }

    TraceIdentity current;
    if (!probeTraceIdentity(tracePath, current, error))
        return nullptr;
    if (current != cached) {
        error = path + ": stale cache (trace file changed)";
        return nullptr;
    }

    std::string_view bundleBytes =
        body.substr(pos, static_cast<std::size_t>(bundleLen));
    pos += static_cast<std::size_t>(bundleLen);
    std::uint64_t colsLen = 0;
    if (!getU64(body, pos, colsLen) ||
        colsLen > body.size() - pos) {
        error = path + ": truncated columns blob";
        return nullptr;
    }
    std::string_view columns =
        body.substr(pos, static_cast<std::size_t>(colsLen));
    pos += static_cast<std::size_t>(colsLen);
    if (pos != body.size()) {
        error = path + ": trailing bytes in cache";
        return nullptr;
    }

    trace::ParseOptions popts;
    popts.mode = trace::ParseMode::Strict;
    popts.source = path;
    trace::IngestReport report;
    trace::TraceBundle bundle =
        trace::decodeEtlc(bundleBytes, popts, report);
    if (!report.ok()) {
        error = path + ": embedded bundle corrupt: " +
                report.summary();
        return nullptr;
    }

    auto session = std::make_unique<Session>(std::move(bundle));
    auto index = std::make_unique<TraceIndex>(session->bundle());
    std::string adoptError;
    if (!index->adoptColumns(columns, &adoptError)) {
        error = path + ": " + adoptError;
        return nullptr;
    }
    session->adoptIndex(std::move(index));
    return session;
}

OpenResult
openSession(const std::string &tracePath, const OpenOptions &options)
{
    obs::Span span("index.cache.open", obs::SpanKind::Index);
    OpenResult result;
    result.cachePath = indexCachePath(tracePath);

    if (options.useCache) {
        std::string error;
        if (auto session = loadCachedSession(tracePath, error)) {
            bool covered = session->index().hasCswitchColumns(
                PidSet{});
            for (const std::string &prefix : options.prefixes) {
                if (!covered)
                    break;
                covered = session->index().hasCswitchColumns(
                    session->pids(prefix));
            }
            if (covered) {
                result.session = std::move(session);
                result.warm = true;
                result.report.source = tracePath;
                result.report.mode = options.parse.mode;
                return result;
            }
        }
    }

    trace::DecodedTrace decoded =
        trace::decodeTraceFile(tracePath, options.parse, "openSession");
    result.report = std::move(decoded.report);
    result.ingest = decoded.stats;
    result.session = std::make_unique<Session>(std::move(decoded.bundle));
    result.session->index().warm(PidSet{});
    for (const std::string &prefix : options.prefixes)
        result.session->index().warm(result.session->pids(prefix));

    if (options.refreshCache && result.report.ok()) {
        std::string error;
        result.wroteCache =
            saveIndexCache(*result.session, tracePath, error);
    }
    return result;
}

} // namespace deskpar::analysis
