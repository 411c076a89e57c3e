#include "trace/ingest.hh"

#include <chrono>

#include "trace/csv.hh"
#include "trace/etl.hh"
#include "trace/etlc.hh"
#include "trace/io.hh"

namespace deskpar::trace {

DecodedTrace
decodeTraceFile(const std::string &path, const ParseOptions &options,
                const char *who)
{
    ParseOptions named = options;
    if (named.source.empty())
        named.source = path;

    DecodedTrace out;
    auto begin = std::chrono::steady_clock::now();
    io::MappedFile file = io::MappedFile::openOrThrow(path, who);
    bool csvName = path.size() > 4 &&
                   path.compare(path.size() - 4, 4, ".csv") == 0;
    if (csvName)
        out.report = decodeCpuUsageCsv(file.span(), out.bundle, named);
    else if (isEtlcData(file.span()))
        out.bundle = decodeEtlc(file.span(), named, out.report);
    else
        out.bundle = decodeEtl(file.span(), named, out.report);
    out.stats.bytes = file.size();
    out.stats.seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - begin)
                            .count();
    return out;
}

} // namespace deskpar::trace
