#include "src/trace/mmap_io.h"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <istream>

#include "src/base/status.h"
#include "src/util/failpoint.h"

#if defined(__unix__) || defined(__APPLE__)
#define T2M_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace t2m {

namespace {

/// Result of LineReader's open+map sequence.
struct ReadonlyMapping {
  const char* data = nullptr;  ///< non-null on success ("" for an empty file)
  std::size_t size = 0;
  int fd = -1;
  bool owns_map = false;   ///< true when `data` must be munmap'd
  int open_errno = 0;      ///< errno from a failed open(); 0 when open worked
};

#ifdef T2M_HAVE_MMAP
/// open(2) with EINTR retry. The "mmap.open" failpoint forces a hard EIO
/// failure; "mmap.open_eintr" injects transient EINTRs the loop must absorb.
int open_readonly_retry(const std::string& path) {
  if (T2M_FAILPOINT("mmap.open")) {
    errno = EIO;
    return -1;
  }
  int fd;
  for (;;) {
    if (T2M_FAILPOINT("mmap.open_eintr")) {
      errno = EINTR;
      fd = -1;
    } else {
      fd = ::open(path.c_str(), O_RDONLY);
    }
    if (fd >= 0 || errno != EINTR) return fd;
  }
}
#endif

/// Opens `path` and maps it read-only with sequential-access advice.
/// On open failure, data == nullptr and open_errno holds the saved errno.
/// When the file opened but is not a mappable regular file (pipe, device,
/// mmap refusal), data == nullptr with open_errno == 0 — the caller then
/// takes its istream fallback. An empty regular file succeeds with data == ""
/// and no mapping (a zero-length mmap is invalid, but there is nothing to
/// read).
ReadonlyMapping map_readonly(const std::string& path) {
  ReadonlyMapping m;
#ifdef T2M_HAVE_MMAP
  m.fd = open_readonly_retry(path);
  if (m.fd < 0) {
    m.open_errno = errno != 0 ? errno : EIO;
    m.fd = -1;
    return m;
  }
  struct stat st {};
  if (::fstat(m.fd, &st) == 0 && S_ISREG(st.st_mode)) {
    m.size = static_cast<std::size_t>(st.st_size);
    if (m.size == 0) {
      m.data = "";
      return m;
    }
    void* map = T2M_FAILPOINT("mmap.map")
                    ? MAP_FAILED
                    : ::mmap(nullptr, m.size, PROT_READ, MAP_PRIVATE, m.fd, 0);
    if (map != MAP_FAILED) {
#ifdef MADV_SEQUENTIAL
      ::madvise(map, m.size, MADV_SEQUENTIAL);
#endif
      m.data = static_cast<const char*>(map);
      m.owns_map = true;
      return m;
    }
  }
  ::close(m.fd);
  m.fd = -1;
  m.size = 0;
#else
  (void)path;
#endif
  return m;
}

}  // namespace

LineReader::LineReader(const std::string& path) {
  const ReadonlyMapping m = map_readonly(path);
  if (m.data != nullptr) {
    data_ = m.data;
    size_ = m.size;
    fd_ = m.fd;
    owns_map_ = m.owns_map;
    return;
  }
  if (m.open_errno != 0) {
    // StatusError derives from std::runtime_error, preserving the historical
    // throw contract while adding the taxonomy + errno detail.
    throw StatusError(
        ErrorCode::io_error,
        errno_message("LineReader: cannot open", path, m.open_errno));
  }
  open_fallback(path);
}

LineReader::LineReader(std::istream& is) : stream_(&is) {}

LineReader::LineReader(std::string_view region, from_memory_t)
    // An empty view may carry a null pointer; keep data_ non-null so next()
    // stays on the memory path and reports a clean end of input.
    : data_(region.data() != nullptr ? region.data() : ""), size_(region.size()) {}

LineReader::~LineReader() {
#ifdef T2M_HAVE_MMAP
  if (owns_map_ && size_ > 0) {
    ::munmap(const_cast<char*>(data_), size_);
  }
  if (fd_ >= 0) ::close(fd_);
#endif
}

void LineReader::open_fallback(const std::string& path) {
  auto file = std::make_unique<std::ifstream>(path, std::ios::binary);
  if (!*file) {
    const int saved = errno;
    throw StatusError(
        ErrorCode::io_error,
        errno_message("LineReader: cannot open", path, saved != 0 ? saved : EIO));
  }
  owned_stream_ = std::move(file);
  stream_ = owned_stream_.get();
}

void LineReader::release_consumed() {
#ifdef T2M_HAVE_MMAP
  // Only for mappings we own: a caller's memory region is not ours to
  // release and is not page-aligned to this reader's consumption.
  if (!owns_map_) return;
  // Hand fully-consumed pages back to the kernel in multi-megabyte strides,
  // so resident memory tracks the cursor instead of the file size. Pages
  // stay in the page cache; MADV_DONTNEED only drops this mapping's
  // references. Lines already handed out from the released region are dead
  // by contract in fallback mode anyway (valid until the next next()), so
  // sequential consumers are unaffected; re-reading released bytes would
  // merely refault them in.
  constexpr std::size_t kStride = 8u << 20;
  if (pos_ - released_ < kStride) return;
  const long page = ::sysconf(_SC_PAGESIZE);
  const std::size_t page_size = page > 0 ? static_cast<std::size_t>(page) : 4096;
  const std::size_t end = (pos_ / page_size) * page_size;  // keep the live page
  if (end > released_) {
    ::madvise(const_cast<char*>(data_) + released_, end - released_, MADV_DONTNEED);
    released_ = end;
  }
#endif
}

bool LineReader::next(std::string_view& line) {
  if (data_ != nullptr) {
    if (pos_ >= size_) return false;
    const char* begin = data_ + pos_;
    const std::size_t remaining = size_ - pos_;
    const char* nl = static_cast<const char*>(std::memchr(begin, '\n', remaining));
    std::size_t len = nl != nullptr ? static_cast<std::size_t>(nl - begin) : remaining;
    pos_ += len + (nl != nullptr ? 1 : 0);
    bytes_read_ = pos_;
    release_consumed();
    if (len > 0 && begin[len - 1] == '\r') --len;
    line = std::string_view(begin, len);
    return true;
  }
  if (stream_ == nullptr || !std::getline(*stream_, line_buf_)) return false;
  // Count the newline only when one was consumed (a final unterminated line
  // sets eofbit), keeping bytes_read() consistent with the mmap mode.
  bytes_read_ += line_buf_.size() + (stream_->eof() ? 0 : 1);
  if (!line_buf_.empty() && line_buf_.back() == '\r') line_buf_.pop_back();
  line = line_buf_;
  return true;
}

}  // namespace t2m
