// Cache-line aligned storage for tile data.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>

namespace tiledqr {

inline constexpr std::size_t kCacheLineBytes = 64;

/// Allocator producing 64-byte aligned storage, suitable for vectorized tile
/// kernels. Usable with std::vector.
template <typename T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    void* p = ::operator new(n * sizeof(T), std::align_val_t(kCacheLineBytes));
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(kCacheLineBytes));
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const AlignedAllocator<U>&) const noexcept {
    return false;
  }
};

/// AlignedAllocator that default-initializes where std::vector would
/// value-initialize: a vector sized with it leaves trivially constructible
/// elements unwritten, for owners that write every element themselves.
template <typename T>
struct DefaultInitAllocator : AlignedAllocator<T> {
  DefaultInitAllocator() noexcept = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  /// Only the no-argument form: std::allocator_traits constructs copies and
  /// fills with placement new when the allocator has no matching overload.
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
};

}  // namespace tiledqr
