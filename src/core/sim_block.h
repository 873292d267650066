// SimBlock: the unit the sequential simulator time-multiplexes (§4).
//
// A block is one partition of the parallel design — in the NoC case study
// one router ("we would like to partition the design at the granularity of
// routers, as this is our basic element in the NoC", §4.2). A block's
// registers are held *outside* the block in the engine's StateMemory; the
// block itself is pure combinational logic:
//
//     (old_state, inputs) → (new_state, outputs)
//
// evaluated once per delta cycle. The same block instance can be shared by
// every identical partition (the paper's F'_{i,j}(x)): evaluation carries
// no per-call state, so homogeneous systems instantiate the logic once —
// exactly what makes the FPGA approach area-efficient.
//
// Two forms of the register file. The *word* (state_width() bits) is the
// bit-accurate memory image of §5.2: what checkpoints, digests, waveforms
// and the FPGA design model see. The *typed state* (BlockState) is the
// block's own decoded form — the host's analogue of the FPGA's wires,
// where the router logic sees register fields directly and decoding costs
// nothing. Engines keep typed states in their banks and evaluate through
// evaluate_state(); they encode to / decode from the word only at those
// bit-accurate boundaries. The typed hooks default to a BitVector wrapper
// that forwards to the word-form evaluate(), so a block that only
// implements the word form works unchanged.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>

#include "common/bit_vector.h"

namespace tmsim::core {

/// One block's registers in the block's decoded form. Opaque to the
/// engines: only the SimBlock that made a state (make_state) may read or
/// write it, through the typed hooks below.
class BlockState {
 public:
  virtual ~BlockState() = default;
  BlockState() = default;
  BlockState(const BlockState&) = delete;
  BlockState& operator=(const BlockState&) = delete;
};

/// Pure combinational view of one design partition.
class SimBlock {
 public:
  virtual ~SimBlock() = default;

  /// Width of the block's register file (its state-memory word).
  virtual std::size_t state_width() const = 0;

  /// Number and width of input link ports.
  virtual std::size_t num_inputs() const = 0;
  virtual std::size_t input_width(std::size_t port) const = 0;

  /// Number and width of output link ports.
  virtual std::size_t num_outputs() const = 0;
  virtual std::size_t output_width(std::size_t port) const = 0;

  /// Initial (reset) contents of the state word.
  virtual BitVector reset_state() const = 0;

  /// One delta cycle: evaluate F (next state) and G (outputs) together,
  /// as the FPGA does ("F(x) and G(x) of a single router will be evaluated
  /// in parallel", §4.2).
  ///
  /// Must be pure: same (old_state, inputs) → same (new_state, outputs).
  /// The dynamic scheduler relies on this to make re-evaluation safe.
  virtual void evaluate(const BitVector& old_state,
                        std::span<const BitVector> inputs,
                        BitVector& new_state,
                        std::span<BitVector> outputs) const = 0;

  // ---- Typed state (see the header comment). Blocks that override one
  // of these override all of them, so every state the engine holds has
  // the block's own concrete type. The defaults hold the word itself.

  /// A fresh state holding the reset contents (== decode(reset_state())).
  virtual std::unique_ptr<BlockState> make_state() const;

  /// Bit-accurate boundary: `word` (state_width() bits) := encode(s).
  virtual void encode_state(const BlockState& s, BitVector& word) const;

  /// Bit-accurate boundary: `s` := decode(word). Throws on a width
  /// mismatch.
  virtual void decode_state(const BitVector& word, BlockState& s) const;

  /// `to` := `from` (same block type; the activity gate's carry-over).
  virtual void copy_state(const BlockState& from, BlockState& to) const;

  /// True exactly when encode(a) == encode(b) — the activity gate's
  /// fixed-point witness relies on that equivalence to skip blocks.
  virtual bool state_equals(const BlockState& a, const BlockState& b) const;

  /// evaluate() on typed states: `next` is the new-bank slot, evaluated
  /// in place (re-evaluation overwrites it). Must agree with evaluate()
  /// through the codec: encode(next) == evaluate(encode(old), ...).
  virtual void evaluate_state(const BlockState& old,
                              std::span<const BitVector> inputs,
                              BlockState& next,
                              std::span<BitVector> outputs) const;

  /// Human-readable type name for traces and error messages.
  virtual std::string type_name() const = 0;

  /// Static dependency metadata for the compiled schedule (analysis
  /// layer): does output port `out` combinationally depend on input port
  /// `in`? The default is the conservative answer (every output may
  /// depend on every input). Blocks whose outputs are functions of
  /// registered state only — the §4.2 router shape — override this to
  /// return false, which lets the static-schedule pass cut the
  /// input→output edge and break apparent combinational cycles at build
  /// time. Must be sound: returning false for a real dependency breaks
  /// bit-identity; returning true for a false one only costs schedule
  /// quality.
  virtual bool output_depends_on_input(std::size_t out, std::size_t in) const {
    (void)out;
    (void)in;
    return true;
  }

  /// True when output_depends_on_input is false for every port pair, so
  /// the static-schedule pass can skip the per-port queries (one virtual
  /// call per input × output port adds up on a large mesh).
  virtual bool outputs_depend_on_state_only() const { return false; }
};

}  // namespace tmsim::core
