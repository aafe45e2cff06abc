#ifndef TURBOFLUX_COMMON_ADJ_POOL_H_
#define TURBOFLUX_COMMON_ADJ_POOL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace turboflux {

/// A lightweight read-only view over a contiguous run of `T` — what
/// AdjPool hands out instead of a `const std::vector<T>&`. Supports the
/// subset of the vector API the engine's read paths use (range-for,
/// size/empty, indexing, equality), so call sites compile unchanged.
///
/// Lifetime: a Span is invalidated by ANY mutation of the owning pool
/// (push may relocate the list, and compaction moves every list). The
/// engine's evaluation paths only read the graph between mutations — data
/// graph updates happen strictly at op boundaries — so holding a Span
/// across one evaluation is safe by the same argument that made the old
/// `const std::vector&` returns safe.
template <typename T>
class Span {
 public:
  Span() = default;
  Span(const T* data, size_t size) : data_(data), size_(size) {}
  /// Implicit from a vector, so oracle/test code can compare directly.
  Span(const std::vector<T>& v) : data_(v.data()), size_(v.size()) {}

  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  const T& operator[](size_t i) const { return data_[i]; }
  const T& front() const { return data_[0]; }
  const T& back() const { return data_[size_ - 1]; }

  friend bool operator==(const Span& a, const Span& b) {
    if (a.size_ != b.size_) return false;
    for (size_t i = 0; i < a.size_; ++i) {
      if (!(a.data_[i] == b.data_[i])) return false;
    }
    return true;
  }

 private:
  const T* data_ = nullptr;
  size_t size_ = 0;
};

/// A CSR-style pool of growable lists backed by one contiguous slab
/// (DESIGN.md §3.11). Each list is a {offset, size, capacity} span into
/// the slab; appends are O(1) amortized (a full list relocates to the
/// slab tail with doubled capacity, leaving its old span as a dead hole),
/// removals are O(size) swap-with-last or order-preserving erases, and an
/// epoch-based compaction rebuilds the slab — preserving per-list entry
/// order exactly — whenever dead+slack space outweighs live entries, so
/// memory stays bounded under delete-heavy streams.
///
/// Entry order within a list is exactly the order produced by the same
/// sequence of PushBack/SwapRemove/ErasePreserving calls on a
/// `std::vector<T>` — compaction never reorders — which is what keeps
/// Graph::Serialize byte-identical to the old vector-of-vectors layout.
template <typename T>
class AdjPool {
 public:
  AdjPool() = default;

  /// Appends a new empty list; returns its dense index.
  size_t AddList() {
    spans_.push_back(ListSpan{0, 0, 0});
    return spans_.size() - 1;
  }

  size_t ListCount() const { return spans_.size(); }
  size_t Size(size_t list) const { return spans_[list].size; }
  bool Empty(size_t list) const { return spans_[list].size == 0; }

  Span<T> View(size_t list) const {
    const ListSpan& s = spans_[list];
    return Span<T>(slab_.data() + s.offset, s.size);
  }

  const T& At(size_t list, size_t i) const {
    return slab_[spans_[list].offset + i];
  }

  void PushBack(size_t list, const T& value) {
    ListSpan& s = spans_[list];
    if (s.size == s.capacity) Relocate(list);
    slab_[spans_[list].offset + spans_[list].size] = value;
    ++spans_[list].size;
    ++live_;
    MaybeCompact();
  }

  /// Removes the first entry matching `pred` by overwriting it with the
  /// last entry (the old Graph::RemoveAdjEntry semantics). Returns false
  /// if no entry matched.
  template <typename Pred>
  bool SwapRemove(size_t list, Pred pred) {
    ListSpan& s = spans_[list];
    T* base = slab_.data() + s.offset;
    for (size_t i = 0; i < s.size; ++i) {
      if (pred(base[i])) {
        base[i] = base[s.size - 1];
        --s.size;
        --live_;
        MaybeCompact();
        return true;
      }
    }
    return false;
  }

  /// Removes the first entry matching `pred`, shifting the tail left
  /// (vector::erase semantics, order-preserving). Returns false if no
  /// entry matched.
  template <typename Pred>
  bool ErasePreserving(size_t list, Pred pred) {
    ListSpan& s = spans_[list];
    T* base = slab_.data() + s.offset;
    for (size_t i = 0; i < s.size; ++i) {
      if (pred(base[i])) {
        for (size_t j = i + 1; j < s.size; ++j) base[j - 1] = base[j];
        --s.size;
        --live_;
        MaybeCompact();
        return true;
      }
    }
    return false;
  }

  void Clear() {
    slab_.clear();
    slab_.shrink_to_fit();
    spans_.clear();
    live_ = 0;
    epoch_ = 0;
  }

  /// Live entries across all lists.
  size_t LiveEntries() const { return live_; }
  /// Slab slots not holding a live entry (relocation holes + slack).
  size_t DeadSlots() const { return slab_.size() - live_; }
  /// Heap bytes held by the slab and the span directory.
  size_t MemoryBytes() const {
    return slab_.capacity() * sizeof(T) + spans_.capacity() * sizeof(ListSpan);
  }
  /// Number of compactions performed so far.
  uint64_t Epoch() const { return epoch_; }

  /// Rebuilds the slab with every list packed at exact capacity, in list
  /// order, preserving entry order. Public so tests can force an epoch.
  void Compact() {
    std::vector<T> packed;
    packed.reserve(live_);
    for (ListSpan& s : spans_) {
      uint32_t offset = static_cast<uint32_t>(packed.size());
      const T* base = slab_.data() + s.offset;
      packed.insert(packed.end(), base, base + s.size);
      s.offset = offset;
      s.capacity = s.size;
    }
    slab_ = std::move(packed);
    ++epoch_;
  }

  /// Internal-consistency check for tests: spans in-bounds, live count
  /// matches, no two spans overlap. Empty string when consistent.
  std::string CheckConsistency() const {
    size_t live = 0;
    std::vector<std::pair<uint32_t, uint32_t>> ranges;
    for (const ListSpan& s : spans_) {
      if (s.size > s.capacity) return "adj_pool: size exceeds capacity";
      if (static_cast<size_t>(s.offset) + s.capacity > slab_.size()) {
        return "adj_pool: span out of slab bounds";
      }
      live += s.size;
      if (s.capacity > 0) ranges.emplace_back(s.offset, s.offset + s.capacity);
    }
    if (live != live_) return "adj_pool: live count mismatch";
    std::sort(ranges.begin(), ranges.end());
    for (size_t i = 1; i < ranges.size(); ++i) {
      if (ranges[i].first < ranges[i - 1].second) {
        return "adj_pool: overlapping spans";
      }
    }
    return "";
  }

 private:
  struct ListSpan {
    uint32_t offset;
    uint32_t size;
    uint32_t capacity;
  };

  static constexpr uint32_t kMinListCapacity = 4;
  // Compaction fires when the slab holds more dead slots than live
  // entries and is at least this big — small pools never bother.
  static constexpr size_t kCompactMinSlots = 4096;

  void Relocate(size_t list) {
    ListSpan& s = spans_[list];
    uint32_t new_capacity =
        s.capacity == 0 ? kMinListCapacity : s.capacity * 2;
    uint32_t new_offset = static_cast<uint32_t>(slab_.size());
    slab_.resize(slab_.size() + new_capacity);
    // resize may reallocate, so re-read the base pointers afterwards.
    const T* old_base = slab_.data() + s.offset;
    T* new_base = slab_.data() + new_offset;
    for (size_t i = 0; i < s.size; ++i) new_base[i] = old_base[i];
    s.offset = new_offset;
    s.capacity = new_capacity;
  }

  void MaybeCompact() {
    if (slab_.size() >= kCompactMinSlots && DeadSlots() > live_) Compact();
  }

  std::vector<T> slab_;
  std::vector<ListSpan> spans_;
  size_t live_ = 0;
  uint64_t epoch_ = 0;
};

}  // namespace turboflux

#endif  // TURBOFLUX_COMMON_ADJ_POOL_H_
