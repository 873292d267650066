// FlitQueue: the flit storage of one router input queue, held inline.
//
// The same bounded FIFO as RingBuffer<Flit> — the same member functions
// as far as the router uses them, pointer discipline and hardware-style
// overwrite — but its slots live inside the object, with room for the
// deepest queue RouterConfig allows. A router's
// 20 queues therefore sit in one flat, trivially copyable RouterState:
// copying a router's registers is a memcpy with no heap traffic, and
// comparing two is a memcmp. Slots at and beyond the capacity stay
// zero for the queue's whole life, so a byte comparison sees exactly the
// live capacity, stale payloads inside it included.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "common/error.h"
#include "noc/config.h"
#include "noc/flit.h"

namespace tmsim::noc {

/// Bounded flit FIFO of capacity 1..kMaxQueueDepth with O(1),
/// division-free push/pop and checked overflow/underflow.
class FlitQueue {
 public:
  explicit FlitQueue(std::size_t capacity)
      : capacity_(static_cast<std::uint8_t>(capacity)) {
    TMSIM_CHECK_MSG(capacity > 0 && capacity <= kMaxQueueDepth,
                    "flit queue capacity must be 1..15");
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == capacity_; }

  /// Appends a flit; throws on overflow.
  void push(const Flit& f) {
    TMSIM_CHECK_MSG(!full(), "ring buffer overflow");
    slots_[write_] = f;
    write_ = next(write_);
    ++size_;
  }

  /// Appends like hardware: the write pointer always advances; when full,
  /// the oldest flit is overwritten (see RingBuffer::push_overwrite for
  /// why a transient evaluation may do this).
  void push_overwrite(const Flit& f) {
    slots_[write_] = f;
    write_ = next(write_);
    if (full()) {
      read_ = next(read_);
    } else {
      ++size_;
    }
  }

  /// Removes and returns the oldest flit; throws on underflow.
  Flit pop() {
    TMSIM_CHECK_MSG(!empty(), "ring buffer underflow");
    const Flit f = slots_[read_];
    read_ = next(read_);
    --size_;
    return f;
  }

  /// Oldest flit without removing it.
  const Flit& front() const {
    TMSIM_CHECK_MSG(!empty(), "front() on empty ring buffer");
    return slots_[read_];
  }

  /// Flit `i` positions behind the front (0 == front).
  const Flit& at(std::size_t i) const {
    TMSIM_CHECK_MSG(i < size_, "at() out of range");
    const std::size_t p = read_ + i;
    return slots_[p < capacity_ ? p : p - capacity_];
  }

  /// Raw slot access by physical index, as the state word stores them.
  const Flit& slot(std::size_t physical) const {
    TMSIM_CHECK_MSG(physical < capacity_, "flit slot out of range");
    return slots_[physical];
  }
  Flit& slot(std::size_t physical) {
    TMSIM_CHECK_MSG(physical < capacity_, "flit slot out of range");
    return slots_[physical];
  }
  std::size_t read_pos() const { return read_; }
  std::size_t write_pos() const { return write_; }

  /// Same capacity, pointers, occupancy and every physical slot — stale
  /// ones included, as the hardware stores them.
  friend bool operator==(const FlitQueue&, const FlitQueue&) = default;

  /// Restores pointer state during deserialization from a state word.
  void restore(std::size_t read_pos, std::size_t write_pos,
               std::size_t size) {
    TMSIM_CHECK_MSG(read_pos < capacity_ && write_pos < capacity_ &&
                        size <= capacity_,
                    "invalid ring buffer restore state");
    TMSIM_CHECK_MSG((read_pos + size) % capacity_ == write_pos ||
                        (size == capacity_ && read_pos == write_pos),
                    "inconsistent ring buffer pointers");
    read_ = static_cast<std::uint8_t>(read_pos);
    write_ = static_cast<std::uint8_t>(write_pos);
    size_ = static_cast<std::uint8_t>(size);
  }

 private:
  std::uint8_t next(std::uint8_t i) const {
    return static_cast<std::uint8_t>(i + 1 == capacity_ ? 0 : i + 1);
  }

  std::array<Flit, kMaxQueueDepth> slots_{};
  std::uint8_t capacity_;
  std::uint8_t read_ = 0;
  std::uint8_t write_ = 0;
  std::uint8_t size_ = 0;
};

static_assert(std::is_trivially_copyable_v<FlitQueue>);
static_assert(std::has_unique_object_representations_v<FlitQueue>);

}  // namespace tmsim::noc
