/**
 * @file
 * Zero-copy trace input: memory-mapped files and byte spans.
 *
 * Every production ingest path (trace::decodeTraceFile behind the
 * deskpar CLI and server, the ingest benches) reads traces through a MappedFile: the file's bytes
 * are mapped read-only into the address space and handed to the
 * decoders as a ByteSpan, so tokens become std::string_view slices of
 * the mapping instead of per-line/per-field std::string copies.
 *
 * Fallback matrix (see DESIGN.md section 11):
 *  - POSIX, regular file  -> mmap(PROT_READ, MAP_PRIVATE) +
 *    madvise(SEQUENTIAL); zero heap copies.
 *  - POSIX, empty file    -> empty span, no mapping (mmap of length
 *    0 is invalid).
 *  - POSIX, mmap refused  -> whole-file read into a heap buffer
 *    (pipes, some pseudo-filesystems).
 *  - non-POSIX            -> whole-file heap read.
 * Either way the decoders see one contiguous ByteSpan; only
 * throughput and peak RSS differ.
 */

#ifndef DESKPAR_TRACE_IO_HH
#define DESKPAR_TRACE_IO_HH

#include <cstddef>
#include <string>
#include <string_view>

namespace deskpar::trace::io {

/**
 * A borrowed, read-only run of bytes. Plain std::string_view: the
 * decoders slice tokens out of it without copying; the owner (a
 * MappedFile or a std::string) must outlive every slice.
 */
using ByteSpan = std::string_view;

/**
 * One read-only mapped (or, in fallback, slurped) file. Move-only;
 * the destructor unmaps.
 */
class MappedFile
{
  public:
    MappedFile() = default;
    ~MappedFile() { close(); }

    MappedFile(MappedFile &&other) noexcept { *this = std::move(other); }
    MappedFile &
    operator=(MappedFile &&other) noexcept
    {
        if (this != &other) {
            close();
            data_ = other.data_;
            size_ = other.size_;
            mapped_ = other.mapped_;
            fallback_ = std::move(other.fallback_);
            other.data_ = nullptr;
            other.size_ = 0;
            other.mapped_ = false;
        }
        return *this;
    }
    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    /**
     * Map @p path read-only (falling back to a whole-file heap read
     * where mmap is unavailable or refused). Returns false and fills
     * @p error on failure; any previous mapping is released first.
     */
    bool open(const std::string &path, std::string &error);

    /** Map @p path or throw FatalError("<who>: cannot open ..."). */
    static MappedFile openOrThrow(const std::string &path,
                                  const char *who);

    /** The file's bytes; valid until close()/destruction. */
    ByteSpan span() const { return {data_, size_}; }

    std::size_t size() const { return size_; }

    /** True when the bytes came from mmap, not the heap fallback. */
    bool usedMmap() const { return mapped_; }

    /** Release the mapping / buffer; span() becomes empty. */
    void close();

  private:
    const char *data_ = nullptr;
    std::size_t size_ = 0;
    bool mapped_ = false;
    std::string fallback_;
};

} // namespace deskpar::trace::io

#endif // DESKPAR_TRACE_IO_HH
