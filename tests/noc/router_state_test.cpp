#include "noc/router_state.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/rng.h"

namespace tmsim::noc {
namespace {

RouterConfig default_cfg() { return RouterConfig{}; }

TEST(RouterState, ResetShape) {
  const RouterConfig cfg = default_cfg();
  RouterState s(cfg);
  EXPECT_EQ(s.queues.size(), 20u);
  EXPECT_EQ(s.out_vcs.size(), 20u);
  EXPECT_EQ(s.rr_ptr.size(), kPorts);
  for (const auto& ovc : s.out_vcs) {
    EXPECT_EQ(ovc.credits, cfg.queue_depth);
    EXPECT_FALSE(ovc.busy);
  }
}

TEST(RouterStateCodec, PaperTable1QueueBits) {
  // Table 1: "Input queues 1440 bits" for 20 queues × 4 flits × 18 bits.
  const RouterStateCodec codec(default_cfg());
  const auto by_cat = codec.layout().bits_by_category();
  EXPECT_EQ(by_cat.at("input queues"), 1440u);
}

TEST(RouterStateCodec, ResetRoundTrip) {
  const RouterStateCodec codec(default_cfg());
  const BitVector word = codec.reset_word();
  const RouterState s = codec.deserialize(word);
  EXPECT_EQ(codec.serialize(s), word);
}

TEST(RouterStateCodec, NonTrivialStateRoundTrip) {
  const RouterConfig cfg = default_cfg();
  const RouterStateCodec codec(cfg);
  RouterState s(cfg);
  // Exercise queue contents, pointers-after-wrap, locks and counters.
  s.queues[3].fifo.push(Flit{FlitType::kHead, 0x1234});
  s.queues[3].fifo.push(Flit{FlitType::kTail, 0x5678});
  s.queues[7].fifo.push(Flit{FlitType::kBody, 0xffff});
  s.queues[7].fifo.pop();
  s.queues[7].fifo.push(Flit{FlitType::kBody, 0xaaaa});
  s.queues[7].locked = true;
  s.queues[7].out_port = Port::kWest;
  s.out_vcs[5].busy = true;
  s.out_vcs[5].owner_port = 3;
  s.out_vcs[5].credits = 1;
  s.rr_ptr[2] = 13;

  const BitVector word = codec.serialize(s);
  const RouterState t = codec.deserialize(word);
  EXPECT_TRUE(states_equal(codec, s, t));
  EXPECT_EQ(t.queues[3].fifo.size(), 2u);
  EXPECT_EQ(t.queues[3].fifo.front(), (Flit{FlitType::kHead, 0x1234}));
  EXPECT_EQ(t.queues[7].fifo.size(), 1u);
  EXPECT_EQ(t.queues[7].fifo.front(), (Flit{FlitType::kBody, 0xaaaa}));
  EXPECT_TRUE(t.queues[7].locked);
  EXPECT_EQ(t.queues[7].out_port, Port::kWest);
  EXPECT_EQ(t.out_vcs[5].credits, 1u);
  EXPECT_EQ(t.rr_ptr[2], 13u);
}

TEST(RouterStateCodec, FullQueueRoundTrip) {
  const RouterConfig cfg = default_cfg();
  const RouterStateCodec codec(cfg);
  RouterState s(cfg);
  for (std::size_t i = 0; i < cfg.queue_depth; ++i) {
    s.queues[0].fifo.push(
        Flit{FlitType::kBody, static_cast<std::uint16_t>(i)});
  }
  const RouterState t = codec.deserialize(codec.serialize(s));
  EXPECT_TRUE(t.queues[0].fifo.full());
  EXPECT_TRUE(states_equal(codec, s, t));
}

TEST(RouterStateCodec, DepthAffectsWidths) {
  RouterConfig d2 = default_cfg();
  d2.queue_depth = 2;
  RouterConfig d8 = default_cfg();
  d8.queue_depth = 8;
  const RouterStateCodec c2(d2), c8(d8);
  EXPECT_LT(c2.state_bits(), c8.state_bits());
  EXPECT_EQ(c2.layout().bits_by_category().at("input queues"),
            20u * 2 * kFlitBits);
  EXPECT_EQ(c8.layout().bits_by_category().at("input queues"),
            20u * 8 * kFlitBits);
}

TEST(RouterStateCodec, RandomizedRoundTrip) {
  // Property: serialize∘deserialize is the identity on the serialized
  // form, for random reachable-ish states.
  const RouterConfig cfg = default_cfg();
  const RouterStateCodec codec(cfg);
  tmsim::SplitMix64 rng(11);
  for (int iter = 0; iter < 200; ++iter) {
    RouterState s(cfg);
    for (auto& q : s.queues) {
      const std::size_t n = rng.next_below(cfg.queue_depth + 1);
      for (std::size_t i = 0; i < n; ++i) {
        q.fifo.push(Flit{static_cast<FlitType>(1 + rng.next_below(3)),
                         static_cast<std::uint16_t>(rng.next())});
      }
      q.locked = rng.next_below(2) == 1;
      q.out_port = static_cast<Port>(rng.next_below(kPorts));
    }
    for (auto& ovc : s.out_vcs) {
      ovc.busy = rng.next_below(2) == 1;
      ovc.owner_port = static_cast<std::uint8_t>(rng.next_below(kPorts));
      ovc.credits = static_cast<std::uint8_t>(
          rng.next_below(cfg.queue_depth + 1));
    }
    for (auto& rr : s.rr_ptr) {
      rr = static_cast<std::uint8_t>(rng.next_below(cfg.num_queues()));
    }
    const BitVector w1 = codec.serialize(s);
    const BitVector w2 = codec.serialize(codec.deserialize(w1));
    ASSERT_EQ(w1, w2);
  }
}

/// A random state the router can reach: queues filled and drained by
/// random push/pop runs (so pointers wrap and popped slots keep stale
/// payloads), locks with arbitrary ports, in-range counters.
RouterState random_reachable_state(const RouterConfig& cfg,
                                   tmsim::SplitMix64& rng) {
  RouterState s(cfg);
  for (auto& q : s.queues) {
    for (int run = 0; run < 3; ++run) {
      const std::size_t pushes =
          rng.next_below(cfg.queue_depth - q.fifo.size() + 1);
      for (std::size_t i = 0; i < pushes; ++i) {
        q.fifo.push(Flit{static_cast<FlitType>(1 + rng.next_below(3)),
                         static_cast<std::uint16_t>(rng.next())});
      }
      const std::size_t pops = rng.next_below(q.fifo.size() + 1);
      for (std::size_t i = 0; i < pops; ++i) {
        q.fifo.pop();
      }
    }
    q.locked = rng.next_below(2) == 1;
    q.out_port = static_cast<Port>(rng.next_below(kPorts));
  }
  for (auto& ovc : s.out_vcs) {
    ovc.busy = rng.next_below(2) == 1;
    ovc.owner_port = static_cast<std::uint8_t>(rng.next_below(kPorts));
    ovc.credits =
        static_cast<std::uint8_t>(rng.next_below(cfg.queue_depth + 1));
  }
  for (auto& rr : s.rr_ptr) {
    rr = static_cast<std::uint8_t>(rng.next_below(cfg.num_queues()));
  }
  return s;
}

/// Changes exactly one register of `t` (or, for full-vs-empty, of both
/// `s` and `t`), so the two states differ in that register only.
void mutate_one_field(const RouterConfig& cfg, tmsim::SplitMix64& rng,
                      RouterState& s, RouterState& t) {
  const std::size_t depth = cfg.queue_depth;
  const std::size_t q = rng.next_below(cfg.num_queues());
  QueueState& qt = t.queues[q];
  const auto flip_payload = [&](std::size_t slot) {
    qt.fifo.slot(slot).payload ^=
        static_cast<std::uint16_t>(1 + rng.next_below(0xffff));
  };
  switch (rng.next_below(10)) {
    case 0: {  // a stale slot outside [rd, wr) — or a live one if full
      const std::size_t stale = qt.fifo.size() % depth;
      flip_payload((qt.fifo.read_pos() + stale) % depth);
      break;
    }
    case 1:  // any physical slot, live or stale
      flip_payload(rng.next_below(depth));
      break;
    case 2: {  // rd == wr: empty in s, full in t, same slots
      const std::size_t p = rng.next_below(depth);
      s.queues[q].fifo.restore(p, p, 0);
      t.queues[q] = s.queues[q];
      qt.fifo.restore(p, p, depth);
      break;
    }
    case 3:  // out_port while unlocked
      s.queues[q].locked = qt.locked = false;
      qt.out_port =
          static_cast<Port>((static_cast<std::size_t>(qt.out_port) + 1 +
                             rng.next_below(kPorts - 1)) %
                            kPorts);
      break;
    case 4:
      qt.locked = !qt.locked;
      break;
    case 5: {  // same occupancy, pointers moved by one slot
      const std::size_t rd = (qt.fifo.read_pos() + 1) % depth;
      const std::size_t wr = (qt.fifo.write_pos() + 1) % depth;
      qt.fifo.restore(rd, wr, qt.fifo.size());
      break;
    }
    case 6:
      t.out_vcs[q].busy = !t.out_vcs[q].busy;
      break;
    case 7:
      t.out_vcs[q].owner_port =
          static_cast<std::uint8_t>((t.out_vcs[q].owner_port + 1) % kPorts);
      break;
    case 8:
      t.out_vcs[q].credits =
          static_cast<std::uint8_t>((t.out_vcs[q].credits + 1) % (depth + 1));
      break;
    default: {
      const std::size_t p = rng.next_below(kPorts);
      t.rr_ptr[p] =
          static_cast<std::uint8_t>((t.rr_ptr[p] + 1) % cfg.num_queues());
      break;
    }
  }
}

TEST(RouterState, TypedEqualityHoldsExactlyWhenEncodingsAreEqual) {
  // The engines keep RouterState decoded in their banks and the worklist
  // skips a router when its typed new state equals the old one, so the
  // typed compare must agree with the bit-accurate one in both
  // directions — stale slots, unlocked out_port and full vs empty
  // included.
  // The typed compare is a byte compare of the live queues and output
  // VCs (RouterState::operator==), so it runs on routers that leave
  // inline room unused too: fewer VCs, shallower queues.
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {4, 2}, {4, 4}, {4, 5}, {2, 3}, {1, 15}};
  for (const auto& [num_vcs, depth] : shapes) {
    RouterConfig cfg = default_cfg();
    cfg.num_vcs = num_vcs;
    cfg.queue_depth = depth;
    const RouterStateCodec codec(cfg);
    tmsim::SplitMix64 rng(depth * 131 + num_vcs);
    for (int iter = 0; iter < 300; ++iter) {
      RouterState s = random_reachable_state(cfg, rng);
      // Codec round trip is the identity on typed states.
      ASSERT_TRUE(codec.deserialize(codec.serialize(s)) == s);

      RouterState t = s;
      ASSERT_TRUE(s == t);
      ASSERT_TRUE(states_equal(codec, s, t));
      mutate_one_field(cfg, rng, s, t);
      const bool words_equal = codec.serialize(s) == codec.serialize(t);
      ASSERT_FALSE(words_equal) << "mutation left the encoding unchanged";
      ASSERT_EQ(s == t, words_equal);
      ASSERT_EQ(states_equal(codec, s, t), words_equal);
      ASSERT_TRUE(codec.deserialize(codec.serialize(t)) == t);

      // Independent states: equal typed exactly when equal encoded.
      const RouterState u = random_reachable_state(cfg, rng);
      ASSERT_EQ(s == u, codec.serialize(s) == codec.serialize(u));
    }
  }
}

TEST(RouterStateCodec, RejectsOutPortNamingNoPort) {
  // out_port is a 3-bit field; 5..7 name no port and no router reaches
  // them. A word holding one (crafted, or corrupted before it was
  // checkpointed) is refused with the queue and the value, locked or not.
  const RouterConfig cfg = default_cfg();
  const RouterStateCodec codec(cfg);
  for (const bool locked : {false, true}) {
    for (unsigned port = 0; port < 8; ++port) {
      RouterState s(cfg);
      s.queues[13].fifo.push(Flit{FlitType::kBody, 0x4242});
      s.queues[13].locked = locked;
      s.queues[13].out_port = static_cast<Port>(port);
      const BitVector word = codec.serialize(s);
      if (port < kPorts) {
        EXPECT_TRUE(codec.deserialize(word) == s);
        continue;
      }
      try {
        codec.deserialize(word);
        ADD_FAILURE() << "out_port " << port << " accepted";
      } catch (const tmsim::ContextualError& e) {
        EXPECT_EQ(e.context_value("queue"), "13");
        EXPECT_EQ(e.context_value("out_port"), std::to_string(port));
      }
    }
  }
}

TEST(RouterStateCodec, RejectsWrongWidthWord) {
  const RouterStateCodec codec(default_cfg());
  EXPECT_THROW(codec.deserialize(BitVector(codec.state_bits() + 1)),
               tmsim::Error);
}

TEST(StateLayout, CategoriesAndOffsets) {
  StateLayout layout;
  const auto a = layout.add_field("cat1", "a", 5);
  const auto b = layout.add_field("cat2", "b", 7);
  const auto c = layout.add_field("cat1", "c", 64);
  EXPECT_EQ(layout.total_bits(), 76u);
  EXPECT_EQ(layout.field(b).offset, 5u);
  EXPECT_EQ(layout.field(c).offset, 12u);
  const auto by_cat = layout.bits_by_category();
  EXPECT_EQ(by_cat.at("cat1"), 69u);
  EXPECT_EQ(by_cat.at("cat2"), 7u);

  BitVector w(layout.total_bits());
  layout.write(w, a, 0x1f);
  layout.write(w, c, 0xffffffffffffffffull);
  EXPECT_EQ(layout.read(w, a), 0x1fu);
  EXPECT_EQ(layout.read(w, b), 0u);
  EXPECT_EQ(layout.read(w, c), 0xffffffffffffffffull);
}

}  // namespace
}  // namespace tmsim::noc
