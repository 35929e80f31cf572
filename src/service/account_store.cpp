#include "service/account_store.hpp"

#include <sys/mman.h>

#include <new>

namespace toka::service {

MappedArray::MappedArray(std::size_t bytes) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  data_ = p;
  bytes_ = bytes;
}

void MappedArray::populate(std::size_t offset, std::size_t bytes) {
#ifdef MADV_POPULATE_WRITE
  // Kernels before 5.14 answer EINVAL; demand faulting then does the work.
  (void)::madvise(static_cast<char*>(data_) + offset, bytes,
                  MADV_POPULATE_WRITE);
#else
  (void)offset;
  (void)bytes;
#endif
}

void MappedArray::advise_huge(std::size_t offset, std::size_t bytes) {
#ifdef MADV_HUGEPAGE
  // EINVAL without CONFIG_TRANSPARENT_HUGEPAGE: the range keeps 4 KiB pages.
  (void)::madvise(static_cast<char*>(data_) + offset, bytes, MADV_HUGEPAGE);
#else
  (void)offset;
  (void)bytes;
#endif
}

void MappedArray::release() {
  if (data_ != nullptr) ::munmap(data_, bytes_);
  data_ = nullptr;
  bytes_ = 0;
}

}  // namespace toka::service
