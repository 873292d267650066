// RouterState: every register of the Kavaldjiev virtual-channel router,
// plus its bit-accurate serialization (the "memory word" of §5.2).
//
// The register inventory (defaults: 4 VCs, 4-flit queues):
//   - 20 input queues (5 ports × 4 VCs), each: 4 flit slots of 18 bits,
//     read/write pointers, full flag           → the Table 1 "Input queues"
//   - per queue: wormhole route lock (locked bit + output port)
//   - per output VC: busy bit, owner input port, downstream credit counter
//   - per output port: round-robin arbiter pointer
//                                              → Table 1 "control/arbitration"
//
// RouterStateCodec turns the whole struct into one BitVector and back,
// with an explicit StateLayout so the bit cost of every design parameter
// is inspectable (bench/table1_registers prints it).
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bit_vector.h"
#include "noc/config.h"
#include "noc/flit.h"
#include "noc/flit_queue.h"
#include "noc/state_layout.h"

namespace tmsim::noc {

/// One VC input queue with its wormhole route state.
struct QueueState {
  explicit QueueState(std::size_t depth) : fifo(depth) {}

  FlitQueue fifo;
  /// True while a packet (HEAD seen, TAIL not yet forwarded) holds a route.
  bool locked = false;
  /// Output port of the locked route; meaningless when !locked (but
  /// still a register, so still compared and serialized).
  Port out_port = Port::kLocal;

  friend bool operator==(const QueueState&, const QueueState&) = default;
};

/// Per output-port, per-VC state.
struct OutVcState {
  /// True while a packet owns this output VC (wormhole lock).
  bool busy = false;
  /// Input port of the owning queue (the VC index is implied: a packet on
  /// input VC v always requests output VC v).
  std::uint8_t owner_port = 0;
  /// Credits: free flit slots in the downstream router's input queue.
  std::uint8_t credits = 0;

  friend bool operator==(const OutVcState&, const OutVcState&) = default;
};

/// Up to N registers of one kind, stored inline, with the count fixed
/// when the router is built (kPorts × num_vcs). Trivially copyable, and
/// compared as the bytes of its live elements, so T must have no padding.
/// Indexing is unchecked, like std::vector, except in builds that check
/// the standard containers (_GLIBCXX_ASSERTIONS).
template <typename T, std::size_t N>
class RegisterArray {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::has_unique_object_representations_v<T>);

 public:
  RegisterArray(std::size_t n, const T& value)
      : RegisterArray(n, value, std::make_index_sequence<N>()) {}

  std::size_t size() const { return size_; }
  T& operator[](std::size_t i) { return items_[checked(i)]; }
  const T& operator[](std::size_t i) const { return items_[checked(i)]; }
  T* begin() { return items_.data(); }
  T* end() { return items_.data() + size_; }
  const T* begin() const { return items_.data(); }
  const T* end() const { return items_.data() + size_; }

  friend bool operator==(const RegisterArray& a, const RegisterArray& b) {
    return a.size_ == b.size_ &&
           std::memcmp(a.items_.data(), b.items_.data(),
                       a.size_ * sizeof(T)) == 0;
  }

 private:
  template <std::size_t... I>
  RegisterArray(std::size_t n, const T& value, std::index_sequence<I...>)
      : items_{((void)I, value)...}, size_(static_cast<std::uint16_t>(n)) {
    TMSIM_CHECK_MSG(n <= N, "too many registers");
  }

  std::size_t checked(std::size_t i) const {
#ifdef _GLIBCXX_ASSERTIONS
    TMSIM_CHECK_MSG(i < size_, "register index out of range");
#endif
    return i;
  }

  std::array<T, N> items_;
  std::uint16_t size_;
};

/// All registers of one router, in one flat object: no heap storage, so
/// a copy is a memcpy (~1.4 KB) and equality a memcmp of the live
/// queues and output VCs.
struct RouterState {
  explicit RouterState(const RouterConfig& cfg);

  RegisterArray<QueueState, kMaxQueues> queues;   ///< kPorts × num_vcs
  RegisterArray<OutVcState, kMaxQueues> out_vcs;  ///< kPorts × num_vcs
  std::array<std::uint8_t, kPorts> rr_ptr{};      ///< per output port,
                                                  ///< indexes queues

  /// Queue / output-VC index for (port, vc).
  static std::size_t index(const RouterConfig& cfg, Port port,
                           std::size_t vc) {
    return static_cast<std::size_t>(port) * cfg.num_vcs + vc;
  }

  /// Equality over exactly the serialized registers: every queue slot
  /// (stale payloads outside [rd, wr) included), rd/wr and occupancy (so
  /// a full queue differs from an empty one at rd == wr), locks with
  /// their out_port even while unlocked, output-VC state and arbiter
  /// pointers. For states the codec accepts, a == b exactly when
  /// serialize(a) == serialize(b) — the engine's activity gate skips
  /// blocks on this answer.
  friend bool operator==(const RouterState&, const RouterState&) = default;
};

static_assert(std::is_trivially_copyable_v<RouterState>);

/// Bit-accurate (de)serializer between RouterState and a state-memory word.
class RouterStateCodec {
 public:
  explicit RouterStateCodec(const RouterConfig& cfg);

  const RouterConfig& config() const { return cfg_; }
  const StateLayout& layout() const { return layout_; }
  std::size_t state_bits() const { return layout_.total_bits(); }

  BitVector serialize(const RouterState& s) const;
  RouterState deserialize(const BitVector& word) const;

  /// Allocation-free variants: `out` must have been constructed for the
  /// same RouterConfig. The FPGA reads/writes the state word in place; so
  /// do we. deserialize_into throws tmsim::Error on a word no router can
  /// hold — inconsistent queue pointers, or (a ContextualError naming the
  /// queue) an out_port of 5..7 — and may then leave `out` partly
  /// overwritten.
  void serialize_into(const RouterState& s, BitVector& word) const;
  void deserialize_into(const BitVector& word, RouterState& out) const;

  /// Serialized default-constructed (reset) state.
  BitVector reset_word() const;

 private:
  RouterConfig cfg_;
  StateLayout layout_;
  // Field indices, addressed by queue / out-vc / port index.
  std::vector<std::vector<std::size_t>> f_slot_;  // [queue][slot]
  std::vector<std::size_t> f_rd_, f_wr_, f_full_, f_locked_, f_outport_;
  std::vector<std::size_t> f_busy_, f_owner_, f_credits_;
  std::vector<std::size_t> f_rr_;
};

/// Two router states are equal iff their serializations are bit-identical;
/// computed on the typed fields (RouterState::operator==), no codec pass.
/// Throws, like serialize(), when a state is not shaped for `codec`.
bool states_equal(const RouterStateCodec& codec, const RouterState& a,
                  const RouterState& b);

}  // namespace tmsim::noc
