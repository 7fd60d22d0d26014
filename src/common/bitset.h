// Runtime-sized bitset with fast population count, used for per-partition active-vertex
// masks and partition activity tracking.

#ifndef SRC_COMMON_BITSET_H_
#define SRC_COMMON_BITSET_H_

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/check.h"

namespace cgraph {

class DynamicBitset {
 public:
  // Returned by NextSetBit when no set bit remains.
  static constexpr size_t kNpos = static_cast<size_t>(-1);

  DynamicBitset() = default;
  explicit DynamicBitset(size_t size) : size_(size), words_((size + 63) / 64, 0) {}

  size_t size() const { return size_; }

  void Resize(size_t size) {
    size_ = size;
    words_.assign((size + 63) / 64, 0);
  }

  bool Test(size_t i) const {
    CGRAPH_DCHECK(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  void Set(size_t i) {
    CGRAPH_DCHECK(i < size_);
    words_[i >> 6] |= uint64_t{1} << (i & 63);
  }

  void Clear(size_t i) {
    CGRAPH_DCHECK(i < size_);
    words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }

  void Assign(size_t i, bool value) {
    if (value) {
      Set(i);
    } else {
      Clear(i);
    }
  }

  void ClearAll() {
    for (auto& w : words_) {
      w = 0;
    }
  }

  void SetAll() {
    for (auto& w : words_) {
      w = ~uint64_t{0};
    }
    TrimTail();
  }

  // Number of set bits.
  size_t Count() const {
    size_t total = 0;
    for (uint64_t w : words_) {
      total += static_cast<size_t>(std::popcount(w));
    }
    return total;
  }

  bool Any() const {
    for (uint64_t w : words_) {
      if (w != 0) {
        return true;
      }
    }
    return false;
  }

  // In-place union with another bitset of identical size.
  void UnionWith(const DynamicBitset& other) {
    CGRAPH_CHECK_EQ(size_, other.size_);
    for (size_t i = 0; i < words_.size(); ++i) {
      words_[i] |= other.words_[i];
    }
  }

  // Raw 64-bit word view for word-at-a-time sweeps. Bits at positions >= size() in the
  // last word are guaranteed zero (Set is bounds-checked and SetAll trims the tail), so
  // scanners need no per-bit bounds test.
  std::span<const uint64_t> words() const { return words_; }

  // Overwrites word w (bits [64w, 64w + 64)) with `bits`, which must be zero at positions
  // >= size(). Lets a sweep build a word in a register and store it once.
  void AssignWord(size_t w, uint64_t bits) {
    CGRAPH_DCHECK(w < words_.size());
    CGRAPH_DCHECK(w + 1 < words_.size() || (size_ & 63) == 0 || (bits >> (size_ & 63)) == 0);
    words_[w] = bits;
  }

  // Number of 64-bit words backing the bitset.
  size_t num_words() const { return words_.size(); }

  // Index of the first set bit at position >= from, or kNpos when none exists. `from` may
  // equal size() (returns kNpos), which makes `for (i = NextSetBit(0); i != kNpos;
  // i = NextSetBit(i + 1))` a complete sparse iteration.
  size_t NextSetBit(size_t from) const {
    CGRAPH_DCHECK(from <= size_);
    size_t w = from >> 6;
    if (w >= words_.size()) {
      return kNpos;
    }
    // Mask off bits below `from` in the first candidate word.
    uint64_t bits = words_[w] & (~uint64_t{0} << (from & 63));
    while (bits == 0) {
      if (++w == words_.size()) {
        return kNpos;
      }
      bits = words_[w];
    }
    return (w << 6) + static_cast<size_t>(std::countr_zero(bits));
  }

  // Invokes fn(i) for every set bit i in ascending order, scanning 64 bits per word so
  // fully inactive words cost one load + compare.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    ForEachSetBitInWords(0, words_.size(), fn);
  }

  // Ascending sparse iteration restricted to words [word_begin, word_end), i.e. bit
  // positions [word_begin * 64, word_end * 64). This is the grain-claiming primitive of
  // the trigger stage: a word-aligned chunk can be swept without touching its neighbours.
  template <typename Fn>
  void ForEachSetBitInWords(size_t word_begin, size_t word_end, Fn&& fn) const {
    CGRAPH_DCHECK(word_end <= words_.size());
    for (size_t w = word_begin; w < word_end; ++w) {
      uint64_t bits = words_[w];
      const size_t base = w << 6;
      while (bits != 0) {
        fn(base + static_cast<size_t>(std::countr_zero(bits)));
        bits &= bits - 1;  // Clear the lowest set bit.
      }
    }
  }

  // Number of bits set in both this and other (sizes must match).
  size_t IntersectCount(const DynamicBitset& other) const {
    CGRAPH_CHECK_EQ(size_, other.size_);
    size_t total = 0;
    for (size_t i = 0; i < words_.size(); ++i) {
      total += static_cast<size_t>(std::popcount(words_[i] & other.words_[i]));
    }
    return total;
  }

 private:
  // Zeroes the bits beyond size_ in the last word so Count() stays exact after SetAll().
  void TrimTail() {
    const size_t tail = size_ & 63;
    if (tail != 0 && !words_.empty()) {
      words_.back() &= (uint64_t{1} << tail) - 1;
    }
  }

  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace cgraph

#endif  // SRC_COMMON_BITSET_H_
