#pragma once

// Bump-allocation arena for exact-arithmetic temporaries.
//
// Exact integer pivoting (simplex.cpp) and exact symmetric functions churn
// through short-lived BigInt limb buffers: every +=, *= and gcd allocates a
// fresh magnitude vector and frees it moments later.  A bump arena turns
// each of those malloc/free pairs into a pointer increment and a no-op.
//
// Usage contract (enforced by convention, checked by the arena fuzz target):
//
//   * A scope installs an arena for the current thread:
//
//       Arena arena;                  // or a reused thread_local one
//       {
//         ArenaScope scope{arena};
//         ... exact computation: limb buffers bump-allocate ...
//         ArenaPause pause;           // escape hatch: allocations go to the
//         result = deep_copy(tmp);    // heap again while paused
//       }
//       arena.reset();                // memory reclaimed wholesale
//
//   * Nothing allocated while the scope is active may outlive the scope
//     unless it was (deep-)copied under an ArenaPause.  Freeing a bump
//     pointer after its arena is gone is undefined behaviour.
//   * Scopes may not interleave two arenas whose objects cross lifetimes:
//     deallocation consults only the innermost installed arena.
//   * Arenas are single-threaded: the installation is thread_local and an
//     Arena object must not be shared across threads.
//
// Memory is never recycled *within* a scope (freed bump space is simply
// abandoned until reset()), so arenas suit bounded computations — an LP
// solve, one exact symmetric-function evaluation — not open-ended growth.

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace hetero::numeric {

/// Geometric-growth bump allocator.  allocate() is a pointer bump; reset()
/// reclaims everything at once while keeping the blocks for reuse, so a
/// thread_local arena reused across solves stops allocating entirely once
/// it has seen its high-water mark.
class Arena {
 public:
  Arena() = default;
  ~Arena() {
    for (const Block& block : blocks_) ::operator delete(block.data);
  }
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocates `bytes` with the given power-of-two alignment.
  [[nodiscard]] void* allocate(std::size_t bytes, std::size_t alignment) {
    for (;;) {
      if (active_ < blocks_.size()) {
        const Block& block = blocks_[active_];
        const std::size_t aligned = (offset_ + alignment - 1) & ~(alignment - 1);
        if (aligned + bytes <= block.size) {
          offset_ = aligned + bytes;
          return block.data + aligned;
        }
        ++active_;  // block exhausted; spill into the next one
        offset_ = 0;
        continue;
      }
      std::size_t size = next_size_;
      while (size < bytes + alignment) size *= 2;
      blocks_.push_back(Block{static_cast<std::byte*>(::operator new(size)), size});
      next_size_ = size * 2;
      offset_ = 0;
    }
  }

  /// True when `ptr` points into one of this arena's blocks.
  [[nodiscard]] bool owns(const void* ptr) const noexcept {
    const auto p = reinterpret_cast<std::uintptr_t>(ptr);
    for (const Block& block : blocks_) {
      const auto base = reinterpret_cast<std::uintptr_t>(block.data);
      if (p - base < block.size) return true;
    }
    return false;
  }

  /// Reclaims all allocations at once; the blocks are kept for reuse.
  void reset() noexcept {
    active_ = 0;
    offset_ = 0;
  }

  /// Total block bytes held (the high-water mark across resets).
  [[nodiscard]] std::size_t capacity() const noexcept {
    std::size_t total = 0;
    for (const Block& block : blocks_) total += block.size;
    return total;
  }

 private:
  struct Block {
    std::byte* data;
    std::size_t size;
  };

  static constexpr std::size_t kFirstBlockBytes = std::size_t{1} << 14;

  std::vector<Block> blocks_;
  std::size_t active_ = 0;    // block currently being bumped
  std::size_t offset_ = 0;    // bump offset within blocks_[active_]
  std::size_t next_size_ = kFirstBlockBytes;
};

namespace arena_detail {
// The innermost installed arena for this thread, and whether allocation from
// it is currently paused.  Deallocation consults `installed` even while
// paused, so bump pointers freed under an ArenaPause are still recognized.
inline thread_local Arena* installed = nullptr;
inline thread_local bool paused = false;
}  // namespace arena_detail

/// Arena new allocations should come from (null: use the heap).
[[nodiscard]] inline Arena* active_arena() noexcept {
  return arena_detail::paused ? nullptr : arena_detail::installed;
}

/// Innermost installed arena regardless of pause state (for deallocation).
[[nodiscard]] inline Arena* installed_arena() noexcept { return arena_detail::installed; }

/// RAII installation of an arena for the current thread.
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena) noexcept
      : previous_{arena_detail::installed}, previously_paused_{arena_detail::paused} {
    arena_detail::installed = &arena;
    arena_detail::paused = false;
  }
  ~ArenaScope() {
    arena_detail::installed = previous_;
    arena_detail::paused = previously_paused_;
  }
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Arena* previous_;
  bool previously_paused_;
};

/// RAII escape hatch: while alive, new allocations go to the heap (results
/// deep-copied under a pause may outlive the enclosing ArenaScope).
class ArenaPause {
 public:
  ArenaPause() noexcept : previously_paused_{arena_detail::paused} {
    arena_detail::paused = true;
  }
  ~ArenaPause() { arena_detail::paused = previously_paused_; }
  ArenaPause(const ArenaPause&) = delete;
  ArenaPause& operator=(const ArenaPause&) = delete;

 private:
  bool previously_paused_;
};

/// Stateless allocator: bump-allocates from the thread's active arena when
/// one is installed, else defers to the heap.  Deallocation of arena memory
/// is a no-op (reclaimed wholesale by Arena::reset); heap memory is freed
/// normally.  Always-equal, so containers move buffers freely across
/// arena/heap boundaries — the buffer's origin, not the container's current
/// context, decides how it is freed.
template <typename T>
class ArenaFallbackAllocator {
 public:
  using value_type = T;
  using is_always_equal = std::true_type;

  ArenaFallbackAllocator() = default;
  template <typename U>
  ArenaFallbackAllocator(const ArenaFallbackAllocator<U>&) noexcept {}  // NOLINT

  [[nodiscard]] T* allocate(std::size_t n) {
    if (Arena* arena = active_arena()) {
      return static_cast<T*>(arena->allocate(n * sizeof(T), alignof(T)));
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void deallocate(T* ptr, std::size_t /*n*/) noexcept {
    Arena* arena = installed_arena();
    if (arena != nullptr && arena->owns(ptr)) return;
    ::operator delete(ptr);
  }

  friend bool operator==(const ArenaFallbackAllocator&, const ArenaFallbackAllocator&) noexcept {
    return true;
  }
};

/// BigInt magnitude storage: arena-backed inside an ArenaScope, plain heap
/// otherwise (the default everywhere else in the library).
using LimbVector = std::vector<std::uint32_t, ArenaFallbackAllocator<std::uint32_t>>;

}  // namespace hetero::numeric
