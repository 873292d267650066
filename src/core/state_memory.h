// StateMemory: the double-banked register store of §4.1 / §5.2.
//
// "In the memory, both the old and new version of the register values are
//  stored [...] this copy action is performed by switching the offset
//  pointer of the current state and new state."
//
// One slot per block per bank; the bank swap is a pointer flip, never a
// copy (even system cycles read bank 0 / write bank 1, odd cycles the
// reverse). A slot holds the block's *typed* state (SimBlock::make_state)
// — the decoded register fields the FPGA's router logic sees as wires —
// so evaluations read and write fields directly, with no bit codec in
// the delta-cycle loop. The bit-accurate word is the memory image seen at
// the boundaries: old_word() encodes a block's committed state lazily and
// caches it until the next swap or load, and load_old() decodes.
// Heterogeneous blocks store words of different widths; word_width()
// reports the widest word, which is what the FPGA implementation must
// provision (§7.1) and what the resource model uses.
//
// Not thread-safe: old_word() fills its cache from a const method, so
// one thread at a time, between evaluations (the Engine contract).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bit_vector.h"
#include "common/error.h"
#include "core/sim_block.h"

namespace tmsim::core {

class StateMemory {
 public:
  /// `blocks[b]` is block b's logic: it makes, encodes, decodes, copies
  /// and compares b's states. Not owned; must outlive the memory. Both
  /// banks start at each block's reset state.
  explicit StateMemory(std::vector<const SimBlock*> blocks);

  std::size_t num_blocks() const { return logic_.size(); }
  /// Widest word — the physical memory width the FPGA would provision.
  std::size_t word_width() const { return word_width_; }
  /// Total bits held (both banks) — the FPGA memory's size.
  std::size_t total_bits() const { return 2 * bits_per_bank_; }

  /// Current ("old") state of block b — what evaluations read.
  const BlockState& read_old(std::size_t block) const {
    return *states_[old_offset_ + check_block(block)];
  }

  /// Next ("new") state slot of block b — what evaluations write, in
  /// place. Re-evaluation overwrites the slot; the old bank is untouched,
  /// which is exactly why re-evaluation is safe ("the router's old state
  /// is available during the whole system cycle", §4.2).
  BlockState& new_slot(std::size_t block) {
    return *states_[new_offset() + check_block(block)];
  }

  /// new == old for block b, in the block's own (encoding-exact)
  /// equality — the activity gate's fixed-point witness.
  bool new_equals_old(std::size_t block) const {
    const std::size_t b = check_block(block);
    return logic_[b]->state_equals(*states_[new_offset() + b],
                                   *states_[old_offset_ + b]);
  }

  /// Copies block b's old-bank state into its new-bank slot — what the
  /// compiled schedule's activity gate does instead of a full
  /// evaluation, so the global bank swap cannot rot a skipped block's
  /// state. A field copy, far cheaper than any real block's evaluation.
  void carry_over(std::size_t block) {
    const std::size_t b = check_block(block);
    logic_[b]->copy_state(*states_[old_offset_ + b],
                          *states_[new_offset() + b]);
  }

  /// Decodes `word` into block b's old bank (reset / restore / test
  /// preloading). Throws on a width mismatch.
  void load_old(std::size_t block, const BitVector& word);

  /// Block b's committed state as its bit-accurate word, encoded on first
  /// use after a swap or load and cached until the next one.
  const BitVector& old_word(std::size_t block) const;

  /// End of system cycle: flip the offset pointer. O(1), no data moves;
  /// every cached old word goes stale with it.
  void swap_banks() {
    old_offset_ = new_offset();
    ++epoch_;
  }

  /// Offset of the bank currently holding old state (0 or num_blocks) —
  /// exposed so tests can verify the pointer-swap mechanism.
  std::size_t old_offset() const { return old_offset_; }

 private:
  std::size_t new_offset() const {
    return old_offset_ == 0 ? logic_.size() : 0;
  }
  std::size_t check_block(std::size_t block) const {
    TMSIM_CHECK_MSG(block < logic_.size(), "block index out of range");
    return block;
  }

  std::vector<const SimBlock*> logic_;
  std::vector<std::unique_ptr<BlockState>> states_;  // [2 * num_blocks]
  std::size_t old_offset_ = 0;
  std::size_t word_width_ = 0;
  std::size_t bits_per_bank_ = 0;
  // Encoded old-bank words: words_[b] is current iff word_epoch_[b] ==
  // epoch_. Bumping epoch_ invalidates every entry in O(1).
  mutable std::vector<BitVector> words_;
  mutable std::vector<std::uint64_t> word_epoch_;
  std::uint64_t epoch_ = 1;
};

}  // namespace tmsim::core
