#include "core/sim_block.h"

#include "common/error.h"

namespace tmsim::core {

namespace {

/// Default typed state: the state word itself.
struct WordState final : BlockState {
  explicit WordState(BitVector w) : word(std::move(w)) {}
  BitVector word;
};

const BitVector& word_of(const BlockState& s) {
  return static_cast<const WordState&>(s).word;
}

BitVector& word_of(BlockState& s) { return static_cast<WordState&>(s).word; }

}  // namespace

std::unique_ptr<BlockState> SimBlock::make_state() const {
  BitVector reset = reset_state();
  TMSIM_CHECK_MSG(reset.width() == state_width(), "state word width mismatch");
  return std::make_unique<WordState>(std::move(reset));
}

void SimBlock::encode_state(const BlockState& s, BitVector& word) const {
  word = word_of(s);
}

void SimBlock::decode_state(const BitVector& word, BlockState& s) const {
  TMSIM_CHECK_MSG(word.width() == state_width(), "state word width mismatch");
  word_of(s) = word;
}

void SimBlock::copy_state(const BlockState& from, BlockState& to) const {
  word_of(to) = word_of(from);
}

bool SimBlock::state_equals(const BlockState& a, const BlockState& b) const {
  return word_of(a) == word_of(b);
}

void SimBlock::evaluate_state(const BlockState& old,
                              std::span<const BitVector> inputs,
                              BlockState& next,
                              std::span<BitVector> outputs) const {
  BitVector& next_word = word_of(next);
  evaluate(word_of(old), inputs, next_word, outputs);
  TMSIM_CHECK_MSG(next_word.width() == state_width(),
                  "state word width mismatch");
}

}  // namespace tmsim::core
