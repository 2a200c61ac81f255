#include "backend/hostram_backend.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <cstring>
#include <string>

namespace pmbist::backend {
namespace {

constexpr std::size_t kHugePageBytes = 2ull << 20;  // 2 MiB, the common size

std::size_t round_up(std::size_t bytes, std::size_t unit) {
  return (bytes + unit - 1) / unit * unit;
}

}  // namespace

HostRamBackend::HostRamBackend(MemoryGeometry geometry, HostRamOptions options)
    : Memory{geometry} {
  if (geometry.num_ports != 1) {
    throw BackendError{
        "hostram backend models a single port (got " +
        std::to_string(geometry.num_ports) +
        "); multi-port semantics need the sim backend"};
  }
  const std::size_t bytes = geometry.num_words() * sizeof(Word);

  void* mapping = MAP_FAILED;
  std::size_t mapped =
      round_up(bytes, static_cast<std::size_t>(sysconf(_SC_PAGESIZE)));

#ifdef MAP_HUGETLB
  if (options.request_huge_pages) {
    const std::size_t huge = round_up(bytes, kHugePageBytes);
    mapping = mmap(nullptr, huge, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_HUGETLB, -1, 0);
    if (mapping != MAP_FAILED) {
      huge_pages_ = true;
      mapped = huge;
    }
  }
#endif
  if (mapping == MAP_FAILED) {
    mapping = mmap(nullptr, mapped, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mapping == MAP_FAILED) {
      throw BackendError{"hostram mmap of " + std::to_string(mapped) +
                         " bytes failed: " + std::strerror(errno)};
    }
#ifdef MADV_HUGEPAGE
    if (options.request_huge_pages) {
      // Best effort: let transparent huge pages coalesce the region.
      (void)madvise(mapping, mapped, MADV_HUGEPAGE);
    }
#endif
  }
  words_ = static_cast<Word*>(mapping);
  mapped_bytes_ = mapped;
}

HostRamBackend::~HostRamBackend() { (void)munmap(words_, mapped_bytes_); }

Word HostRamBackend::read(int port, Address addr) {
  assert(port == 0 && addr < geometry().num_words());
  (void)port;
  return words_[addr] & geometry().word_mask();
}

void HostRamBackend::write(int port, Address addr, Word data) {
  assert(port == 0 && addr < geometry().num_words());
  (void)port;
  words_[addr] = data & geometry().word_mask();
}

}  // namespace pmbist::backend
