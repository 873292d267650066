#include "noc/flit_queue.h"

#include <gtest/gtest.h>

#include "common/ring_buffer.h"
#include "common/rng.h"

namespace tmsim::noc {
namespace {

TEST(FlitQueue, CapacityLimits) {
  EXPECT_THROW(FlitQueue(0), Error);
  EXPECT_THROW(FlitQueue(kMaxQueueDepth + 1), Error);
  FlitQueue q(kMaxQueueDepth);
  EXPECT_EQ(q.capacity(), kMaxQueueDepth);
  EXPECT_THROW(q.pop(), Error);
  EXPECT_THROW(q.front(), Error);
  EXPECT_THROW(q.slot(kMaxQueueDepth), Error);
}

TEST(FlitQueue, BehavesLikeRingBufferAtEveryDepth) {
  // Differential against RingBuffer<Flit>, the FIFO it replaces: random
  // push / overwrite / pop / restore runs keep the same flits, pointers,
  // occupancy and physical slots at every depth the router allows.
  SplitMix64 rng(29);
  for (std::size_t depth = 1; depth <= kMaxQueueDepth; ++depth) {
    FlitQueue q(depth);
    RingBuffer<Flit> ref(depth);
    for (int op = 0; op < 2000; ++op) {
      const Flit f{static_cast<FlitType>(rng.next_below(4)),
                   static_cast<std::uint16_t>(rng.next())};
      switch (rng.next_below(5)) {
        case 0:
          if (!ref.full()) {
            q.push(f);
            ref.push(f);
          } else {
            EXPECT_THROW(q.push(f), Error);
          }
          break;
        case 1:
          q.push_overwrite(f);
          ref.push_overwrite(f);
          break;
        case 2:
        case 3:
          if (!ref.empty()) {
            ASSERT_EQ(q.pop(), ref.pop());
          }
          break;
        default: {
          const std::size_t rd = rng.next_below(depth);
          const std::size_t size = rng.next_below(depth + 1);
          const std::size_t wr = (rd + size) % depth;
          q.restore(rd, wr, size);
          ref.restore(rd, wr, size);
          break;
        }
      }
      ASSERT_EQ(q.size(), ref.size());
      ASSERT_EQ(q.full(), ref.full());
      ASSERT_EQ(q.read_pos(), ref.read_pos());
      ASSERT_EQ(q.write_pos(), ref.write_pos());
      for (std::size_t i = 0; i < depth; ++i) {
        ASSERT_EQ(q.slot(i), ref.slot(i));
      }
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(q.at(i), ref.at(i));
      }
    }
  }
}

TEST(FlitQueue, EqualityComparesStaleSlotsAndPointers) {
  FlitQueue a(3);
  FlitQueue b(3);
  a.push(Flit{FlitType::kHead, 1});
  a.pop();
  EXPECT_FALSE(a == b);  // same occupancy, moved pointers, stale slot
  b.push(Flit{FlitType::kHead, 1});
  b.pop();
  EXPECT_TRUE(a == b);
  b.slot(0).payload = 2;  // a stale slot differs
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(FlitQueue(3) == FlitQueue(4));
}

}  // namespace
}  // namespace tmsim::noc
