#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

namespace grunt::sim {

/// Growable power-of-two FIFO ring buffer.
///
/// Replaces std::deque in the Service hot paths (slot waiters, CPU queue)
/// and the IDS per-session rate window: a deque allocates/frees a map node
/// per ~512 bytes of churn (and a 512 B chunk plus its map up front, even
/// for a one-element queue), while this ring reaches steady state after
/// warm-up and then pushes/pops without touching the allocator. Elements
/// must be default-constructible and movable; popped slots are overwritten
/// with a default-constructed value so resources held by queued callbacks
/// (e.g. InplaceFunction closures) are dropped as soon as they leave the
/// queue (skipped for trivially destructible element types, which hold no
/// resources — their pop is a plain copy + index bump, and clear() just
/// resets the indices).
template <class T>
class RingBuffer {
 public:
  RingBuffer() = default;
  RingBuffer(const RingBuffer&) = delete;
  RingBuffer& operator=(const RingBuffer&) = delete;

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  std::size_t capacity() const { return cap_; }

  void push_back(T value) {
    if (count_ == cap_) Grow();
    buf_[(head_ + count_) & (cap_ - 1)] = std::move(value);
    ++count_;
  }

  T& front() {
    assert(count_ > 0);
    return buf_[head_];
  }
  const T& front() const {
    assert(count_ > 0);
    return buf_[head_];
  }

  /// Moves the front element out and releases its slot.
  T pop_front() {
    assert(count_ > 0);
    T out = std::move(buf_[head_]);
    if constexpr (!std::is_trivially_destructible_v<T>) {
      buf_[head_] = T{};
    }
    head_ = (head_ + 1) & (cap_ - 1);
    --count_;
    return out;
  }

  /// i-th element counted from the front (0 = front).
  T& operator[](std::size_t i) {
    assert(i < count_);
    return buf_[(head_ + i) & (cap_ - 1)];
  }
  const T& operator[](std::size_t i) const {
    assert(i < count_);
    return buf_[(head_ + i) & (cap_ - 1)];
  }

  void clear() {
    if constexpr (std::is_trivially_destructible_v<T>) {
      head_ = 0;
      count_ = 0;
    } else {
      while (count_ > 0) pop_front();
    }
  }

 private:
  void Grow() {
    const std::size_t new_cap = cap_ == 0 ? kInitialCapacity : cap_ * 2;
    auto fresh = std::make_unique<T[]>(new_cap);
    for (std::size_t i = 0; i < count_; ++i) {
      fresh[i] = std::move(buf_[(head_ + i) & (cap_ - 1)]);
    }
    buf_ = std::move(fresh);
    cap_ = new_cap;
    head_ = 0;
  }

  static constexpr std::size_t kInitialCapacity = 16;

  std::unique_ptr<T[]> buf_;
  std::size_t cap_ = 0;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace grunt::sim
