/**
 * @file
 * Spill-to-disk TraceIndex cache: near-instant warm trace reopen.
 *
 * Cold-opening a trace costs a full ingest (parse every record) plus
 * the index's fused cswitch sweep — the two things `deskpar serve`
 * style workloads must not pay per request. This module serializes a
 * built analysis::TraceIndex next to its trace as `<trace>.dpidx`:
 *
 *   dpidx := magic "DPIDX\x01\0\0" (8 bytes),
 *            CRC32C of everything after it (4 bytes, LE),
 *            varint version,
 *            identity: varint file-size, varint mtime,
 *                      varint edge-hash (CRC32C of the first
 *                      64 KiB of the trace file in the high word,
 *                      of the last 64 KiB in the low word),
 *            varint cswitch-count (informational),
 *            varint length + embedded .etlc bundle image with the
 *                cswitch section EMPTIED (the columns replace it),
 *            varint length + TraceIndex::serializeColumns() blob
 *
 * A warm open costs: stat + 128 KiB hash of the trace (identity
 * check), CRC of the cache, decoding the small embedded bundle
 * (names, GPU packets, frames, lifecycle, markers — everything but
 * the dominant cswitch stream), and adoptColumns(). The cswitch
 * stream itself is never re-read: the concurrency checkpoints,
 * dispatch columns, wait intervals and per-CPU busy intervals come
 * back verbatim, so every cached metric is bit-identical to a fresh
 * build. Queries the columns cannot answer (pid sets that were never
 * warmed, raw-stream sweeps like plan()/bottlenecks()) fail loudly —
 * never silently recompute against the emptied stream.
 *
 * Staleness: any identity mismatch (size, mtime, edge hash), CRC
 * mismatch, or malformed payload is treated as "no cache" and the
 * caller falls back to a cold ingest (openSession does this
 * automatically and rewrites the cache).
 */

#ifndef DESKPAR_ANALYSIS_INDEX_CACHE_HH
#define DESKPAR_ANALYSIS_INDEX_CACHE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/session.hh"
#include "trace/parse.hh"

namespace deskpar::analysis {

/** Identity of a trace file, the cache key. */
struct TraceIdentity
{
    std::uint64_t fileSize = 0;
    /** last_write_time ticks (platform epoch — compared, not shown). */
    std::uint64_t mtime = 0;
    /**
     * CRC32C of the first 64 KiB (of the whole file when it is
     * smaller) in the high word, of the last 64 KiB in the low
     * word. A cache written under an earlier hash reads as stale
     * and is rebuilt.
     */
    std::uint64_t edgeHash = 0;

    bool operator==(const TraceIdentity &o) const
    {
        return fileSize == o.fileSize && mtime == o.mtime &&
               edgeHash == o.edgeHash;
    }
    bool operator!=(const TraceIdentity &o) const
    {
        return !(*this == o);
    }
};

/**
 * Stat + hash @p path. Returns false with @p error set when the file
 * cannot be read.
 */
bool probeTraceIdentity(const std::string &path, TraceIdentity &out,
                        std::string &error);

/** Cache path of @p tracePath: `<trace>.dpidx`. */
std::string indexCachePath(const std::string &tracePath);

/**
 * Serialize @p session's index (plus the non-cswitch remainder of
 * its bundle) next to @p tracePath. The caller should have warmed
 * the pid sets it wants servable (TraceIndex::warm); only built
 * columns are spilled. Returns false with @p error set when the
 * trace identity cannot be probed, the bundle fails .etlc encoding
 * validation, or the file cannot be written.
 */
bool saveIndexCache(const Session &session,
                    const std::string &tracePath, std::string &error);

/**
 * Warm path: validate `<trace>.dpidx` against @p tracePath's current
 * identity and reconstruct a Session from it without touching the
 * trace's event payload. Returns nullptr with @p error set when
 * there is no usable cache (missing, stale, corrupt) — the caller
 * falls back to a cold open.
 */
std::unique_ptr<Session>
loadCachedSession(const std::string &tracePath, std::string &error);

/** How openSession should ingest and cache. */
struct OpenOptions
{
    trace::ParseOptions parse;
    /**
     * Process-name prefixes whose pid sets must be answerable. The
     * whole-trace set (PidSet{}) is always included. A cache that
     * is missing any of them is treated as stale.
     */
    std::vector<std::string> prefixes;
    /** Try the warm path first. */
    bool useCache = true;
    /** (Re)write the cache after a successful cold ingest. */
    bool refreshCache = true;
};

/** What openSession did. */
struct OpenResult
{
    std::unique_ptr<Session> session;
    /** Cold ingest report; default-constructed on a warm open. */
    trace::IngestReport report;
    /** File size and map + decode time of a cold open; zero if warm. */
    trace::IngestStats ingest;
    /** True when the session came from the cache. */
    bool warm = false;
    /** True when a fresh cache file was written. */
    bool wroteCache = false;
    std::string cachePath;
};

/**
 * Open @p tracePath for analysis: warm from `<trace>.dpidx` when the
 * cache is valid and covers every requested pid set, else cold —
 * trace::decodeTraceFile (mmap + format-sniffed decode, see
 * trace/ingest.hh), warm the requested sets, and refresh the cache.
 * Throws FatalError when the trace file itself cannot be opened;
 * ingest defects are reported via OpenResult::report (check ok()).
 */
OpenResult openSession(const std::string &tracePath,
                       const OpenOptions &options = {});

} // namespace deskpar::analysis

#endif // DESKPAR_ANALYSIS_INDEX_CACHE_HH
