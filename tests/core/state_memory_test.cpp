#include "core/state_memory.h"

#include <gtest/gtest.h>

#include "core/example_blocks.h"

namespace tmsim::core {
namespace {

using examples::PipeBlock;
using examples::RegAdderBlock;

BitVector word8(std::uint64_t v) {
  BitVector w(8);
  w.set_field(0, 8, v);
  return w;
}

/// Old-bank contents read straight from the typed state, bypassing the
/// memory's word cache.
std::uint64_t old_field(const StateMemory& mem, const SimBlock& blk,
                        std::size_t b) {
  BitVector w(blk.state_width());
  blk.encode_state(mem.read_old(b), w);
  return w.get_field(0, blk.state_width());
}

/// One PipeBlock evaluation (F: new := input) into block 0's new slot.
void evaluate_into_new(StateMemory& mem, const PipeBlock& blk,
                       std::uint64_t input) {
  const BitVector in[1] = {word8(input)};
  BitVector out[1] = {BitVector(8)};
  blk.evaluate_state(mem.read_old(0), in, mem.new_slot(0), out);
}

TEST(StateMemory, HoldsPerBlockWidths) {
  const PipeBlock a(8, 0);
  const PipeBlock b(16, 0, 0x1234);
  const RegAdderBlock c(8, 1);  // stateless: zero-width word
  StateMemory mem({&a, &b, &c});
  EXPECT_EQ(mem.num_blocks(), 3u);
  EXPECT_EQ(mem.word_width(), 16u);
  EXPECT_EQ(mem.old_word(0).width(), 8u);
  EXPECT_EQ(mem.old_word(1).get_field(0, 16), 0x1234u);  // reset contents
  EXPECT_EQ(mem.old_word(2).width(), 0u);
  EXPECT_EQ(mem.total_bits(), 2u * (8 + 16 + 0));
}

TEST(StateMemory, WriteGoesToNewBankOnly) {
  const PipeBlock blk(8, 0);
  StateMemory mem({&blk});
  evaluate_into_new(mem, blk, 0xab);
  // Old bank still reset.
  EXPECT_EQ(old_field(mem, blk, 0), 0u);
  mem.swap_banks();
  EXPECT_EQ(old_field(mem, blk, 0), 0xabu);
}

TEST(StateMemory, BankSwapIsAPointerFlip) {
  // §4.1: "this copy action is performed by switching the offset pointer".
  const PipeBlock blk(4, 0);
  StateMemory mem({&blk, &blk});
  const BlockState* bank0 = &mem.read_old(0);
  const BlockState* bank1 = &mem.new_slot(0);
  EXPECT_EQ(mem.old_offset(), 0u);
  mem.swap_banks();
  EXPECT_EQ(mem.old_offset(), 2u);
  EXPECT_EQ(&mem.read_old(0), bank1);  // no state object moved or copied
  EXPECT_EQ(&mem.new_slot(0), bank0);
  mem.swap_banks();
  EXPECT_EQ(mem.old_offset(), 0u);
  EXPECT_EQ(&mem.read_old(0), bank0);
}

TEST(StateMemory, ReEvaluationOverwritesNewSlotSafely) {
  // The old bank must survive any number of re-evaluations into the new
  // slot — the §4.2 re-evaluation guarantee.
  const PipeBlock blk(8, 0);
  StateMemory mem({&blk});
  mem.load_old(0, word8(0x11));
  for (std::uint64_t i = 0; i < 5; ++i) {
    evaluate_into_new(mem, blk, 0x20 + i);
    EXPECT_EQ(old_field(mem, blk, 0), 0x11u);
    EXPECT_FALSE(mem.new_equals_old(0));
  }
  evaluate_into_new(mem, blk, 0x11);
  EXPECT_TRUE(mem.new_equals_old(0));
  evaluate_into_new(mem, blk, 0x24);
  mem.swap_banks();
  EXPECT_EQ(old_field(mem, blk, 0), 0x24u);  // last evaluation wins
}

TEST(StateMemory, AlternatingBanksKeepIndependentData) {
  const PipeBlock blk(8, 0);
  StateMemory mem({&blk});
  for (std::uint64_t cycle = 0; cycle < 6; ++cycle) {
    evaluate_into_new(mem, blk, cycle + 1);
    mem.swap_banks();
    EXPECT_EQ(old_field(mem, blk, 0), cycle + 1);
  }
}

/// Writes a 9-bit word into an 8-bit state: a buggy block.
class WideWriterBlock : public PipeBlock {
 public:
  WideWriterBlock() : PipeBlock(8, 0) {}
  void evaluate(const BitVector&, std::span<const BitVector>,
                BitVector& new_state, std::span<BitVector>) const override {
    new_state = BitVector(9);
  }
};

TEST(StateMemory, RejectsBadUsage) {
  const PipeBlock blk(8, 0);
  StateMemory mem({&blk});
  EXPECT_THROW(mem.read_old(1), Error);
  EXPECT_THROW(mem.new_slot(1), Error);
  EXPECT_THROW(mem.old_word(1), Error);
  EXPECT_THROW(blk.decode_state(BitVector(9), mem.new_slot(0)), Error);
  EXPECT_THROW(mem.load_old(0, BitVector(7)), Error);
  EXPECT_THROW(StateMemory({}), Error);

  const WideWriterBlock wide;
  StateMemory wmem({&wide});
  const BitVector in[1] = {BitVector(8)};
  BitVector out[1] = {BitVector(8)};
  EXPECT_THROW(wide.evaluate_state(wmem.read_old(0), in, wmem.new_slot(0), out),
               Error);
}

TEST(StateMemory, LazyOldWordIsRefreshedAfterSwapLoadAndCarryOver) {
  const PipeBlock blk(8, 0);
  StateMemory mem({&blk});
  mem.load_old(0, word8(0x11));
  EXPECT_EQ(mem.old_word(0).get_field(0, 8), 0x11u);  // encoded + cached

  // A new-bank write leaves the committed word (and its cache) alone...
  evaluate_into_new(mem, blk, 0x22);
  EXPECT_EQ(mem.old_word(0).get_field(0, 8), 0x11u);
  // ...until the swap publishes it.
  mem.swap_banks();
  EXPECT_EQ(mem.old_word(0).get_field(0, 8), 0x22u);

  // A load replaces a cached word.
  mem.load_old(0, word8(0x33));
  EXPECT_EQ(mem.old_word(0).get_field(0, 8), 0x33u);

  // carry_over copies the committed state across the next swap, over
  // whatever the new slot held.
  evaluate_into_new(mem, blk, 0x44);
  mem.carry_over(0);
  EXPECT_TRUE(mem.new_equals_old(0));
  mem.swap_banks();
  EXPECT_EQ(mem.old_word(0).get_field(0, 8), 0x33u);
  // The cycle after a carry-over publishes its evaluation as usual.
  evaluate_into_new(mem, blk, 0x55);
  mem.swap_banks();
  EXPECT_EQ(mem.old_word(0).get_field(0, 8), 0x55u);
}

}  // namespace
}  // namespace tmsim::core
