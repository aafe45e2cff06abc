#ifndef TURBOFLUX_COMMON_ARENA_H_
#define TURBOFLUX_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace turboflux {

/// A bump allocator for per-op scratch (DESIGN.md §3.11): SubgraphSearch
/// frames, DCG clear/transition worklists, intermediate match vectors.
/// Allocation is a pointer bump; nothing is freed individually — the
/// engine calls Reset() once per update, which recycles every block (the
/// blocks themselves are kept, so a warm engine stops touching malloc on
/// the hot path entirely). Blocks grow geometrically, capped so one
/// pathological op cannot pin unbounded memory forever: Reset() releases
/// all but the first block when the arena ballooned past the retain cap.
///
/// Not thread-safe; each engine owns its arena, and an engine is driven by
/// one thread at a time.
class Arena {
 public:
  static constexpr size_t kInitialBlockBytes = 1 << 16;  // 64 KiB
  /// Reset() keeps at most this much capacity across ops.
  static constexpr size_t kRetainBytes = 1 << 22;  // 4 MiB

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Uninitialized storage for `n` objects of trivially-destructible `T`.
  template <typename T>
  T* AllocateArray(size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is recycled without running destructors");
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  void* Allocate(size_t bytes, size_t align) {
    if (bytes == 0) return current_;
    uintptr_t p = reinterpret_cast<uintptr_t>(current_);
    uintptr_t aligned = (p + (align - 1)) & ~(static_cast<uintptr_t>(align) - 1);
    if (aligned + bytes > reinterpret_cast<uintptr_t>(end_)) {
      NewBlock(bytes + align);
      p = reinterpret_cast<uintptr_t>(current_);
      aligned = (p + (align - 1)) & ~(static_cast<uintptr_t>(align) - 1);
    }
    current_ = reinterpret_cast<char*>(aligned + bytes);
    used_ += bytes;
    return reinterpret_cast<void*>(aligned);
  }

  /// Recycles all blocks; O(1) unless the arena overgrew kRetainBytes,
  /// in which case the overflow blocks are released back to the heap.
  void Reset() {
    if (capacity_ > kRetainBytes && blocks_.size() > 1) {
      capacity_ = blocks_.front().size;
      blocks_.resize(1);
    }
    block_index_ = 0;
    if (!blocks_.empty()) {
      current_ = blocks_[0].data.get();
      end_ = current_ + blocks_[0].size;
    }
    used_ = 0;
  }

  /// Bytes handed out since the last Reset (excludes alignment padding).
  size_t UsedBytes() const { return used_; }
  /// Total bytes held from the heap.
  size_t CapacityBytes() const { return capacity_; }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    size_t size;
  };

  void NewBlock(size_t min_bytes) {
    // After Reset, earlier-allocated blocks are reused before new ones.
    while (block_index_ + 1 < blocks_.size()) {
      ++block_index_;
      Block& b = blocks_[block_index_];
      if (b.size >= min_bytes) {
        current_ = b.data.get();
        end_ = current_ + b.size;
        return;
      }
    }
    size_t size = blocks_.empty() ? kInitialBlockBytes : capacity_;
    while (size < min_bytes) size *= 2;
    blocks_.push_back(Block{std::make_unique<char[]>(size), size});
    block_index_ = blocks_.size() - 1;
    capacity_ += size;
    current_ = blocks_.back().data.get();
    end_ = current_ + size;
  }

  std::vector<Block> blocks_;
  size_t block_index_ = 0;
  char* current_ = nullptr;
  char* end_ = nullptr;
  size_t used_ = 0;
  size_t capacity_ = 0;
};

/// A fixed-capacity LIFO stack of `T` carved from an Arena — the shape the
/// engine's recursive scratch uses (DCG clear worklists, search frames).
/// push/pop are raw pointer bumps with a debug-only capacity check.
template <typename T>
class ArenaStack {
 public:
  ArenaStack(Arena& arena, size_t capacity)
      : data_(arena.AllocateArray<T>(capacity)), capacity_(capacity) {}

  void Push(const T& v) { data_[size_++] = v; }
  T Pop() { return data_[--size_]; }
  bool Empty() const { return size_ == 0; }
  size_t Size() const { return size_; }
  size_t Capacity() const { return capacity_; }
  const T* data() const { return data_; }

 private:
  T* data_;
  size_t size_ = 0;
  size_t capacity_;
};

}  // namespace turboflux

#endif  // TURBOFLUX_COMMON_ARENA_H_
