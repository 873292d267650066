// Golden router state words. Each constant is an FNV-1a digest of every
// committed router state word (the codec's bit-accurate memory word, §5.2)
// after each of 200 cycles of seeded best-effort traffic, recorded before
// the router logic was rewritten for speed. Every other check of the
// router (the engines' differentials, the structural rtlsim model, the
// direct reference simulation) runs the same compute_grants and
// next-state functions, so none of them can see a change to those
// functions; these digests can.
//
// Workloads: a 6x6 torus and a 4x4 mesh under best-effort load 0.3 on
// every VC (enough to keep several queues contending for one output
// port), for the paper's router (4 VCs, 4-flit queues), a small one
// (2 VCs, 3-flit queues: non-power-of-two pointers) and a deep one
// (1 VC, 15-flit queues: the codec's largest depth).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/noc_block.h"
#include "traffic/harness.h"

namespace tmsim::noc {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
constexpr int kCycles = 200;

void mix(std::uint64_t& h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
}

struct Golden {
  std::size_t width;
  std::size_t height;
  Topology topology;
  std::size_t num_vcs;
  std::size_t queue_depth;
  std::uint64_t digest;
};

std::uint64_t state_word_digest(const Golden& g) {
  NetworkConfig net;
  net.width = g.width;
  net.height = g.height;
  net.topology = g.topology;
  net.router.num_vcs = g.num_vcs;
  net.router.queue_depth = g.queue_depth;
  core::SeqNocSimulation sim(net);
  traffic::TrafficHarness::Options opts;
  opts.seed = 17;
  traffic::TrafficHarness harness(sim, opts);
  std::vector<unsigned> vcs;
  for (unsigned v = 0; v < g.num_vcs; ++v) {
    vcs.push_back(v);
  }
  harness.set_be_load(0.3, vcs);
  std::uint64_t h = kFnvOffset;
  for (int c = 0; c < kCycles; ++c) {
    harness.run(1);
    for (std::size_t r = 0; r < net.num_routers(); ++r) {
      const BitVector word = sim.router_state_word(r);
      for (const std::uint64_t w : word.words()) {
        mix(h, w);
      }
    }
  }
  // The traffic really flowed: a digest of idle routers pins nothing.
  EXPECT_GT(harness.flits_delivered(), 100u);
  return h;
}

constexpr Topology kTorus = Topology::kTorus;
constexpr Topology kMesh = Topology::kMesh;

constexpr Golden kGolden[] = {
    {6, 6, kTorus, 4, 4, 0xa9649404fc9aac52ull},
    {6, 6, kTorus, 2, 3, 0xf31914683f4d1da6ull},
    {6, 6, kTorus, 1, 15, 0x6f6ac0d92074ca11ull},
    {4, 4, kMesh, 4, 4, 0x2571927ac230f618ull},
    {4, 4, kMesh, 2, 3, 0x823dab169f1a5c95ull},
    {4, 4, kMesh, 1, 15, 0xbac3853e7a2514f9ull},
};

TEST(RouterGolden, CommittedStateWordsMatchTheRecordedDigests) {
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(std::to_string(g.width) + "x" + std::to_string(g.height) +
                 (g.topology == kTorus ? " torus" : " mesh") +
                 " vcs=" + std::to_string(g.num_vcs) +
                 " depth=" + std::to_string(g.queue_depth));
    const std::uint64_t got = state_word_digest(g);
    EXPECT_EQ(got, g.digest) << std::hex << "0x" << got;
  }
}

}  // namespace
}  // namespace tmsim::noc
