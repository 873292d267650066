// Property tests of the block-graph partitioner: every policy must
// produce a balanced, complete, disjoint cover of the blocks, and the
// min-cut-greedy policy must never cut more links than blind
// round-robin on the structured graphs it is meant for (rings, meshes,
// tori).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/example_blocks.h"
#include "core/noc_block.h"
#include "core/partition.h"

namespace tmsim::core {
namespace {

using examples::PipeBlock;

constexpr PartitionPolicy kAllPolicies[] = {PartitionPolicy::kRoundRobin,
                                            PartitionPolicy::kContiguous,
                                            PartitionPolicy::kMinCutGreedy};

/// n PipeBlocks in a directed combinational ring (output depends on
/// registered state, so the ring settles — and the partitioner only
/// looks at structure anyway).
SystemModel make_ring(std::size_t n) {
  SystemModel m;
  auto blk = std::make_shared<PipeBlock>(8, 1);
  std::vector<BlockId> blocks;
  for (std::size_t i = 0; i < n; ++i) {
    blocks.push_back(m.add_block(blk, "p" + std::to_string(i)));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const LinkId l =
        m.add_link("l" + std::to_string(i), 8, LinkKind::kCombinational);
    m.bind_output(blocks[i], 0, l);
    m.bind_input(blocks[(i + 1) % n], 0, l);
  }
  m.finalize();
  return m;
}

void check_cover(const SystemModel& model, const Partition& p,
                 std::size_t num_shards) {
  ASSERT_EQ(p.num_shards(), num_shards);
  ASSERT_EQ(p.shard_of.size(), model.num_blocks());
  // Complete and disjoint: every block appears in exactly one shard, and
  // shard_of agrees with the shard lists.
  std::vector<int> seen(model.num_blocks(), 0);
  for (std::size_t s = 0; s < p.num_shards(); ++s) {
    for (const BlockId b : p.shards[s]) {
      ASSERT_LT(b, model.num_blocks());
      ASSERT_EQ(seen[b], 0) << "block " << b << " assigned twice";
      seen[b] = 1;
      ASSERT_EQ(p.shard_of[b], s);
    }
  }
  ASSERT_EQ(std::count(seen.begin(), seen.end(), 1),
            static_cast<std::ptrdiff_t>(model.num_blocks()));
  // Balanced: floor/ceil of n / num_shards.
  const std::size_t lo = model.num_blocks() / num_shards;
  const std::size_t hi = lo + (model.num_blocks() % num_shards ? 1 : 0);
  for (std::size_t s = 0; s < p.num_shards(); ++s) {
    ASSERT_GE(p.shards[s].size(), lo);
    ASSERT_LE(p.shards[s].size(), hi);
  }
}

void check_all_policies_cover(const SystemModel& m) {
  for (const std::size_t k : {1u, 2u, 3u, 4u, 7u}) {
    if (k > m.num_blocks()) {
      continue;
    }
    for (const PartitionPolicy pol : kAllPolicies) {
      SCOPED_TRACE(std::string(partition_policy_name(pol)) + " k=" +
                   std::to_string(k));
      check_cover(m, partition_blocks(m, k, pol), k);
    }
  }
}

TEST(Partition, EveryPolicyCoversMesh) {
  noc::NetworkConfig net;
  net.width = 4;
  net.height = 4;
  net.topology = noc::Topology::kMesh;
  const NocModel nm = build_noc_model(net);
  check_all_policies_cover(nm.model);
}

TEST(Partition, EveryPolicyCoversAsymmetricTorus) {
  noc::NetworkConfig net;
  net.width = 5;
  net.height = 3;
  net.topology = noc::Topology::kTorus;
  const NocModel nm = build_noc_model(net);
  check_all_policies_cover(nm.model);
}

TEST(Partition, EveryPolicyCoversRing) {
  const SystemModel ring = make_ring(17);
  check_all_policies_cover(ring);
}

TEST(Partition, SingleShardCutsNothing) {
  noc::NetworkConfig net;
  net.width = 3;
  net.height = 3;
  net.topology = noc::Topology::kTorus;
  const NocModel nm = build_noc_model(net);
  for (const PartitionPolicy pol : kAllPolicies) {
    const Partition p = partition_blocks(nm.model, 1, pol);
    EXPECT_EQ(count_cut_links(nm.model, p), 0u);
  }
}

TEST(Partition, SingleShardIsTheInOrderShardUnderEveryPolicy) {
  // One shard is the paper's engine: every block in model order, whatever
  // the policy asks for (no greedy growth to pay for at engine build).
  noc::NetworkConfig net;
  net.width = 4;
  net.height = 3;
  const NocModel nm = build_noc_model(net);
  const SystemModel ring = make_ring(9);
  for (const SystemModel* m : {&nm.model, &ring}) {
    std::vector<BlockId> in_order(m->num_blocks());
    for (BlockId b = 0; b < m->num_blocks(); ++b) {
      in_order[b] = b;
    }
    for (const PartitionPolicy pol : kAllPolicies) {
      SCOPED_TRACE(partition_policy_name(pol));
      const Partition p = partition_blocks(*m, 1, pol);
      ASSERT_EQ(p.num_shards(), 1u);
      EXPECT_EQ(p.shards[0], in_order);
      EXPECT_EQ(p.shard_of, std::vector<std::size_t>(m->num_blocks(), 0));
    }
  }
}

TEST(Partition, ExternalLinksNeverCountAsCut) {
  // A NoC model has 3 external links per router (local in/out/credit);
  // with one router per shard every *internal* link is cut, but the
  // externals must not be: they have no writer or no readers, so no
  // shard boundary can run through them.
  noc::NetworkConfig net;
  net.width = 2;
  net.height = 2;
  net.topology = noc::Topology::kMesh;
  const NocModel nm = build_noc_model(net);
  const Partition p =
      partition_blocks(nm.model, 4, PartitionPolicy::kRoundRobin);
  std::size_t internal = 0;
  for (LinkId l = 0; l < nm.model.num_links(); ++l) {
    const LinkInfo& info = nm.model.link(l);
    if (info.writer && !info.readers.empty()) {
      ++internal;
    }
  }
  EXPECT_EQ(count_cut_links(nm.model, p), internal);
}

TEST(Partition, GreedyCutsNoMoreThanRoundRobinOnNocs) {
  struct Spec {
    std::size_t w, h;
    noc::Topology topo;
  };
  const Spec specs[] = {{4, 4, noc::Topology::kMesh},
                        {4, 4, noc::Topology::kTorus},
                        {8, 8, noc::Topology::kMesh}};
  for (const Spec& spec : specs) {
    noc::NetworkConfig net;
    net.width = spec.w;
    net.height = spec.h;
    net.topology = spec.topo;
    const NocModel nm = build_noc_model(net);
    for (const std::size_t k : {2u, 4u, 8u}) {
      const std::size_t rr = count_cut_links(
          nm.model,
          partition_blocks(nm.model, k, PartitionPolicy::kRoundRobin));
      const std::size_t greedy = count_cut_links(
          nm.model,
          partition_blocks(nm.model, k, PartitionPolicy::kMinCutGreedy));
      EXPECT_LE(greedy, rr)
          << spec.w << "x" << spec.h
          << (spec.topo == noc::Topology::kMesh ? " mesh" : " torus")
          << " k=" << k;
    }
  }
}

TEST(Partition, GreedyCutsNoMoreThanRoundRobinOnRing) {
  // On a ring, round-robin cuts *every* link for k >= 2; the greedy
  // grower should keep runs together and cut only ~k of them. This
  // pins the policy actually doing its job, not just tying.
  const SystemModel ring = make_ring(24);
  const std::size_t rr = count_cut_links(
      ring, partition_blocks(ring, 4, PartitionPolicy::kRoundRobin));
  const std::size_t greedy = count_cut_links(
      ring, partition_blocks(ring, 4, PartitionPolicy::kMinCutGreedy));
  EXPECT_EQ(rr, 24u);
  EXPECT_LE(greedy, 8u);
}

TEST(Partition, RejectsBadShardCounts) {
  const SystemModel ring = make_ring(4);
  EXPECT_THROW(partition_blocks(ring, 0, PartitionPolicy::kRoundRobin), Error);
  EXPECT_THROW(partition_blocks(ring, 5, PartitionPolicy::kRoundRobin), Error);
}

}  // namespace
}  // namespace tmsim::core
