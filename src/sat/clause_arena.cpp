#include "src/sat/clause_arena.h"

#include <cassert>
#include <cstdlib>
#include <cstring>

#ifdef __linux__
#include <sys/mman.h>
#endif

namespace t2m::sat {

namespace {

std::size_t bytes_of(std::size_t words) { return words * sizeof(std::uint32_t); }

#ifdef __linux__
constexpr std::size_t kMappedBytes = std::size_t{1} << 20;
bool mapped(std::size_t words) { return bytes_of(words) >= kMappedBytes; }
#else
bool mapped(std::size_t) { return false; }
#endif

}  // namespace

std::uint32_t* ClauseArena::regrow_buffer(std::uint32_t* mem, std::size_t old_cap,
                                          std::size_t size, std::size_t cap) {
  assert(cap > old_cap && size <= old_cap);
  if (!mapped(cap)) {
    return static_cast<std::uint32_t*>(std::realloc(mem, bytes_of(cap)));
  }
#ifdef __linux__
  if (mapped(old_cap)) {
    void* moved = mremap(mem, bytes_of(old_cap), bytes_of(cap), MREMAP_MAYMOVE);
    return moved == MAP_FAILED ? nullptr : static_cast<std::uint32_t*>(moved);
  }
  void* fresh = mmap(nullptr, bytes_of(cap), PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                     -1, 0);
  if (fresh == MAP_FAILED) return nullptr;
  if (size > 0) std::memcpy(fresh, mem, bytes_of(size));
  std::free(mem);
  return static_cast<std::uint32_t*>(fresh);
#else
  (void)old_cap;
  (void)size;
  return nullptr;
#endif
}

void ClauseArena::release_buffer(std::uint32_t* mem, std::size_t cap) {
  if (mem == nullptr) return;
#ifdef __linux__
  if (mapped(cap)) {
    munmap(mem, bytes_of(cap));
    return;
  }
#endif
  std::free(mem);
}

}  // namespace t2m::sat
