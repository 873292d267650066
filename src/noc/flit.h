// Flit: the atomic transfer unit of the packet-switched NoC (§2.1).
//
// A flit is 18 bits as stored in the router's input queues (the paper's
// Table 1: 20 queues × 4 flits × 18 bits = 1440 bits):
//
//   [17:16] type   — HEAD / BODY / TAIL / IDLE
//   [15:0]  payload
//
// HEAD flits carry the routing information in their payload:
//
//   [15:12] dest_x   [11:8] dest_y   [7:6] vc   [5:0] seq
//
// `vc` repeats the virtual channel the packet travels on (the VC is fixed
// end-to-end in the Kavaldjiev router: input VC v requests output VC v).
// `seq` is a small sequence tag used by the measurement harness to match
// packet arrivals to injections; the hardware ignores it.
#pragma once

#include <cstdint>
#include <type_traits>

#include "common/error.h"

namespace tmsim::noc {

/// 16 bits wide so that a Flit has no padding byte: router states are
/// compared as raw bytes (RouterState::operator==).
enum class FlitType : std::uint16_t {
  kIdle = 0,
  kHead = 1,
  kBody = 2,
  kTail = 3,
};

/// Bits of a flit as stored in a queue slot.
inline constexpr std::size_t kFlitBits = 18;
/// Bits of flit payload.
inline constexpr std::size_t kPayloadBits = 16;

struct Flit {
  FlitType type = FlitType::kIdle;
  std::uint16_t payload = 0;

  friend bool operator==(const Flit&, const Flit&) = default;
};
static_assert(std::has_unique_object_representations_v<Flit>);

/// Packs a flit into its 18-bit queue-slot encoding.
inline std::uint32_t encode_flit(const Flit& f) {
  return (static_cast<std::uint32_t>(f.type) << kPayloadBits) | f.payload;
}

/// Unpacks an 18-bit queue-slot encoding.
inline Flit decode_flit(std::uint32_t bits) {
  TMSIM_CHECK_MSG((bits >> kFlitBits) == 0, "flit encoding wider than 18 bits");
  return Flit{static_cast<FlitType>(bits >> kPayloadBits),
              static_cast<std::uint16_t>(bits & 0xffffu)};
}

/// Builds the payload of a HEAD flit.
inline std::uint16_t make_head_payload(unsigned dest_x, unsigned dest_y,
                                       unsigned vc, unsigned seq) {
  TMSIM_CHECK_MSG(dest_x < 16 && dest_y < 16, "destination out of 4-bit range");
  TMSIM_CHECK_MSG(vc < 4, "vc out of 2-bit range");
  TMSIM_CHECK_MSG(seq < 64, "seq out of 6-bit range");
  return static_cast<std::uint16_t>((dest_x << 12) | (dest_y << 8) |
                                    (vc << 6) | seq);
}

/// Fields of a HEAD flit payload.
struct HeadFields {
  unsigned dest_x;
  unsigned dest_y;
  unsigned vc;
  unsigned seq;
};

inline HeadFields decode_head(std::uint16_t payload) {
  return HeadFields{
      static_cast<unsigned>((payload >> 12) & 0xf),
      static_cast<unsigned>((payload >> 8) & 0xf),
      static_cast<unsigned>((payload >> 6) & 0x3),
      static_cast<unsigned>(payload & 0x3f),
  };
}

}  // namespace tmsim::noc
