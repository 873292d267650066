#include "core/state_memory.h"

#include <algorithm>

namespace tmsim::core {

StateMemory::StateMemory(std::vector<const SimBlock*> blocks)
    : logic_(std::move(blocks)) {
  TMSIM_CHECK_MSG(!logic_.empty(), "state memory needs at least one block");
  const std::size_t n = logic_.size();
  states_.reserve(2 * n);
  for (int bank = 0; bank < 2; ++bank) {
    for (const SimBlock* logic : logic_) {
      TMSIM_CHECK_MSG(logic != nullptr, "null block logic");
      states_.push_back(logic->make_state());
    }
  }
  words_.reserve(n);
  for (const SimBlock* logic : logic_) {
    const std::size_t w = logic->state_width();
    words_.emplace_back(w);
    word_width_ = std::max(word_width_, w);
    bits_per_bank_ += w;
  }
  word_epoch_.assign(n, 0);
}

void StateMemory::load_old(std::size_t block, const BitVector& word) {
  const std::size_t b = check_block(block);
  logic_[b]->decode_state(word, *states_[old_offset_ + b]);
  // Re-encoded on the next read, so a restore's digest check verifies
  // what the typed state actually holds, not an echo of its input.
  word_epoch_[b] = 0;
}

const BitVector& StateMemory::old_word(std::size_t block) const {
  const std::size_t b = check_block(block);
  if (word_epoch_[b] != epoch_) {
    logic_[b]->encode_state(*states_[old_offset_ + b], words_[b]);
    word_epoch_[b] = epoch_;
  }
  return words_[b];
}

}  // namespace tmsim::core
