#ifndef T2M_TRACE_MMAP_IO_H
#define T2M_TRACE_MMAP_IO_H

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

namespace t2m {

/// Zero-copy line cursor over a trace file. Opening a path memory-maps the
/// file read-only (with sequential access advice) and serves each line as a
/// `string_view` directly into the mapping — no per-line allocation, no copy,
/// and the kernel reclaims pages behind the cursor, so resident memory stays
/// bounded regardless of trace size. Where mmap is unavailable (non-POSIX
/// builds, pipes, special files, mapping failure) the reader transparently
/// falls back to buffered istream reads; the returned views then point into
/// an internal buffer and stay valid only until the next `next()` call, which
/// is the contract consumers must code against in both modes.
class LineReader {
public:
  /// Opens `path`, preferring an mmap mapping. Throws std::runtime_error when
  /// the file cannot be opened at all.
  explicit LineReader(const std::string& path);

  /// Streams from an existing istream (never mmap). The stream must outlive
  /// the reader.
  explicit LineReader(std::istream& is);

  /// Tag selecting the in-memory constructor (a bare string literal would
  /// otherwise be ambiguous against the path overload).
  struct from_memory_t {};
  static constexpr from_memory_t from_memory{};

  /// Serves lines straight out of caller-owned memory (a test buffer). No
  /// pages are released behind the cursor — the memory is not the reader's
  /// — and it must outlive the reader. mapped() reports true (views stay
  /// valid for the reader's lifetime).
  LineReader(std::string_view region, from_memory_t);

  LineReader(const LineReader&) = delete;
  LineReader& operator=(const LineReader&) = delete;
  ~LineReader();

  /// Yields the next line with the trailing '\n' (and a preceding '\r', for
  /// CRLF input) stripped. Returns false at end of input. A final line
  /// without a terminating newline is still yielded.
  bool next(std::string_view& line);

  /// True when the reader serves views straight out of an mmap mapping
  /// (views then remain valid for the reader's lifetime).
  bool mapped() const { return data_ != nullptr; }

  /// Bytes consumed so far (mmap mode: cursor offset; stream mode: an
  /// approximation from line lengths).
  std::size_t bytes_read() const { return bytes_read_; }

private:
  // mmap mode.
  const char* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
  std::size_t released_ = 0;  ///< consumed prefix already returned to the kernel
  int fd_ = -1;
  bool owns_map_ = false;  ///< true when data_ is our own mmap (not a view)

  void release_consumed();

  // istream fallback mode.
  std::istream* stream_ = nullptr;
  std::unique_ptr<std::ifstream> owned_stream_;  // set when we opened the file
  std::string line_buf_;

  std::size_t bytes_read_ = 0;

  void open_fallback(const std::string& path);
};

}  // namespace t2m

#endif  // T2M_TRACE_MMAP_IO_H
