#include "trace/etl.hh"

#include "trace/container.hh"

namespace deskpar::trace {

namespace {

const char kMagic[kMagicBytes + 1] = "DPETL\x01\0\0";

/**
 * Decode @p count records of one section via @p record(i, err).
 * Returns false on the first defective record after noting its
 * diagnostic and counting the section remainder as skipped.
 */
template <typename RecordFn>
bool
decodeRecords(ContainerReader &r, const char *section, std::uint64_t count,
              RecordFn &&record)
{
    for (std::uint64_t i = 0; i < count; ++i) {
        ParseError err;
        if (!record(i, err)) {
            r.note(r.located(std::move(err), section, i));
            r.report.recordsSkipped += count - i;
            return false;
        }
        ++r.report.recordsParsed;
    }
    return true;
}

/**
 * Decode one section frame's payload — count varint, records,
 * trailing-bytes check — with r.pos at the count varint and @p limit
 * at the frame end. Returns false when the section is defective (the
 * diagnostic is already noted and any cleanly decoded record prefix
 * is kept); the frame walk decides strict-fail vs lenient-hop.
 */
bool
decodeSectionBody(ContainerReader &r, Section tag, const char *name,
                  std::size_t tagPos, std::size_t limit,
                  TraceBundle &bundle)
{
    io::ByteSpan data = r.data;
    ParseError ferr;
    std::uint64_t count = 0;
    bool good = true;
    // Every record of a known section is at least one byte, so a
    // count beyond the frame length is corrupt; rejecting it here
    // also keeps reserve() from ballooning on garbage counts.
    if (!getBounded(data, r.pos, limit, count, ferr)) {
        r.note(r.located(std::move(ferr), name,
                         ParseError::kNoPosition));
        good = false;
    } else if (count > limit - r.pos) {
        r.note(r.makeError(name, ParseError::kNoPosition, tagPos,
                           "declared count " + std::to_string(count) +
                               " exceeds section size"));
        good = false;
    }
    // One bounded varint or time delta of this frame: the row loops
    // call these per field.
    auto get = [&](std::uint64_t &v, ParseError &e) {
        return getBounded(data, r.pos, limit, v, e);
    };
    auto getTime = [&](SimTime &t, const char *what, ParseError &e) {
        return getDelta(data, r.pos, limit, t, what, e);
    };
    if (good) {
        switch (tag) {
          case Section::CSwitch: {
            SimTime prev = 0;
            bundle.cswitches.reserve(static_cast<std::size_t>(count));
            good = decodeRecords(
                r, name, count, [&](std::uint64_t i, ParseError &e) {
                    CSwitchEvent ev;
                    std::uint64_t cpu = 0, oldPid = 0, oldTid = 0,
                                  newPid = 0, newTid = 0;
                    if (!getTime(prev, "timestamp", e))
                        return false;
                    ev.timestamp = prev;
                    if (!get(cpu, e) || !get(oldPid, e) ||
                        !get(oldTid, e) || !get(newPid, e) ||
                        !get(newTid, e) || !get(ev.readyTime, e))
                        return false;
                    ev.cpu = static_cast<CpuId>(cpu);
                    ev.oldPid = static_cast<Pid>(oldPid);
                    ev.oldTid = static_cast<Tid>(oldTid);
                    ev.newPid = static_cast<Pid>(newPid);
                    ev.newTid = static_cast<Tid>(newTid);
                    if (ev.readyTime > ev.timestamp) {
                        // Dispatch before the thread became
                        // runnable: wait math would wrap.
                        std::string reason =
                            "ready time " +
                            std::to_string(ev.readyTime) +
                            " after switch-in time " +
                            std::to_string(ev.timestamp);
                        if (r.options.mode == ParseMode::Strict) {
                            e.offset = r.pos;
                            e.reason = std::move(reason);
                            return false;
                        }
                        r.report.noteRepair(
                            r.makeError(name, i, r.pos,
                                        reason + " (clamped)"),
                            r.options.maxStoredErrors);
                        ev.readyTime = ev.timestamp;
                    }
                    bundle.cswitches.push_back(ev);
                    return true;
                });
            break;
          }

          case Section::GpuPackets: {
            SimTime prev = 0;
            bundle.gpuPackets.reserve(static_cast<std::size_t>(count));
            good = decodeRecords(
                r, name, count, [&](std::uint64_t, ParseError &e) {
                    GpuPacketEvent ev;
                    std::uint64_t d = 0, pid = 0, engine = 0,
                                  packetId = 0, slot = 0;
                    if (!getTime(prev, "start", e))
                        return false;
                    ev.start = prev;
                    if (!get(d, e))
                        return false;
                    if (d > ev.start) {
                        e.offset = r.pos;
                        e.reason = "queue delta " + std::to_string(d) +
                                   " precedes time zero";
                        return false;
                    }
                    ev.queued = ev.start - d;
                    ev.finish = ev.start;
                    if (!getTime(ev.finish, "finish", e))
                        return false;
                    if (!get(pid, e) || !get(engine, e))
                        return false;
                    if (engine >= kNumGpuEngines) {
                        e.offset = r.pos;
                        e.reason = "unknown GPU engine id " +
                                   std::to_string(engine);
                        return false;
                    }
                    if (!get(packetId, e) || !get(slot, e))
                        return false;
                    ev.pid = static_cast<Pid>(pid);
                    ev.engine = static_cast<GpuEngineId>(engine);
                    ev.packetId = static_cast<std::uint32_t>(packetId);
                    ev.queueSlot = static_cast<std::uint8_t>(slot);
                    bundle.gpuPackets.push_back(ev);
                    return true;
                });
            break;
          }

          case Section::Frames: {
            SimTime prev = 0;
            bundle.frames.reserve(static_cast<std::size_t>(count));
            good = decodeRecords(
                r, name, count, [&](std::uint64_t, ParseError &e) {
                    FrameEvent ev;
                    std::uint64_t pid = 0, frameId = 0, synth = 0;
                    if (!getTime(prev, "timestamp", e))
                        return false;
                    ev.timestamp = prev;
                    if (!get(pid, e) || !get(frameId, e) ||
                        !get(synth, e))
                        return false;
                    ev.pid = static_cast<Pid>(pid);
                    ev.frameId = static_cast<std::uint32_t>(frameId);
                    ev.synthesized = synth != 0;
                    bundle.frames.push_back(ev);
                    return true;
                });
            break;
          }
          default:
            // ProcessNames, ThreadLife, ProcessLife and Markers: the
            // shared record-major codec.
            good = decodeRecords(
                r, name, count, [&](std::uint64_t, ParseError &e) {
                    return getRecord(tag, data, r.pos, limit, bundle, e);
                });
            break;
        }
    }
    if (!good)
        return false;
    if (r.pos != limit) {
        r.note(r.makeError(name, ParseError::kNoPosition, r.pos,
                           std::to_string(limit - r.pos) +
                               " trailing bytes in section"));
        return false;
    }
    return true;
}

void
decodeEtlSections(ContainerReader &r, TraceBundle &bundle)
{
    walkSections(r, [&](Section tag, const char *name,
                        std::size_t tagPos, std::size_t limit) {
        return decodeSectionBody(r, tag, name, tagPos, limit, bundle);
    });
}

/** `varint count, records` payload of a record-major section. */
void
putRecordSection(std::string &image, const TraceBundle &bundle,
                 Section tag)
{
    std::string records;
    std::uint64_t count = putRecords(bundle, tag, records);
    std::string payload;
    putVarint(payload, count);
    payload.append(records);
    putSection(image, tag, payload);
}

void
putEtlSections(const TraceBundle &bundle, std::string &image)
{
    putRecordSection(image, bundle, Section::ProcessNames);

    std::string payload;
    putVarint(payload, bundle.cswitches.size());
    SimTime prev = 0;
    for (const auto &e : bundle.cswitches) {
        putVarint(payload, e.timestamp - prev);
        prev = e.timestamp;
        putVarint(payload, e.cpu);
        putVarint(payload, e.oldPid);
        putVarint(payload, e.oldTid);
        putVarint(payload, e.newPid);
        putVarint(payload, e.newTid);
        putVarint(payload, e.readyTime);
    }
    putSection(image, Section::CSwitch, payload);

    payload.clear();
    putVarint(payload, bundle.gpuPackets.size());
    prev = 0;
    for (const auto &e : bundle.gpuPackets) {
        putVarint(payload, e.start - prev);
        prev = e.start;
        putVarint(payload, e.start - e.queued);
        putVarint(payload, e.finish - e.start);
        putVarint(payload, e.pid);
        putVarint(payload, static_cast<std::uint8_t>(e.engine));
        putVarint(payload, e.packetId);
        putVarint(payload, e.queueSlot);
    }
    putSection(image, Section::GpuPackets, payload);

    payload.clear();
    putVarint(payload, bundle.frames.size());
    prev = 0;
    for (const auto &e : bundle.frames) {
        putVarint(payload, e.timestamp - prev);
        prev = e.timestamp;
        putVarint(payload, e.pid);
        putVarint(payload, e.frameId);
        putVarint(payload, e.synthesized ? 1 : 0);
    }
    putSection(image, Section::Frames, payload);

    putRecordSection(image, bundle, Section::ThreadLife);
    putRecordSection(image, bundle, Section::ProcessLife);
    putRecordSection(image, bundle, Section::Markers);
}

const ContainerFormat kEtl{kMagic,
                           kEtlVersion,
                           "ingest.etl",
                           "ingest.etl.bytes",
                           "ingest.etl.section",
                           "writeEtl",
                           putEtlSections,
                           decodeEtlSections};

} // namespace

void
writeEtl(const TraceBundle &bundle, std::ostream &out)
{
    writeContainer(kEtl, bundle, out);
}

void
writeEtl(const TraceBundle &bundle, const std::string &path)
{
    writeContainer(kEtl, bundle, path);
}

TraceBundle
decodeEtl(io::ByteSpan data, const ParseOptions &options,
          IngestReport &report)
{
    return decodeContainer(kEtl, data, options, report);
}

} // namespace deskpar::trace
