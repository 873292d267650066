#include "noc/topology.h"

#include "common/error.h"

namespace tmsim::noc {

Port opposite(Port p) {
  switch (p) {
    case Port::kNorth: return Port::kSouth;
    case Port::kSouth: return Port::kNorth;
    case Port::kEast: return Port::kWest;
    case Port::kWest: return Port::kEast;
    case Port::kLocal: break;
  }
  throw Error("opposite(): local port has no opposite");
}

std::optional<Coord> neighbour(const NetworkConfig& net, Coord c, Port p) {
  TMSIM_CHECK_MSG(p != Port::kLocal, "neighbour(): local port");
  const bool torus = net.topology == Topology::kTorus;
  Coord n = c;
  switch (p) {
    case Port::kNorth:
      if (c.y == 0) {
        if (!torus) return std::nullopt;
        n.y = net.height - 1;
      } else {
        n.y = c.y - 1;
      }
      break;
    case Port::kSouth:
      if (c.y + 1 == net.height) {
        if (!torus) return std::nullopt;
        n.y = 0;
      } else {
        n.y = c.y + 1;
      }
      break;
    case Port::kWest:
      if (c.x == 0) {
        if (!torus) return std::nullopt;
        n.x = net.width - 1;
      } else {
        n.x = c.x - 1;
      }
      break;
    case Port::kEast:
      if (c.x + 1 == net.width) {
        if (!torus) return std::nullopt;
        n.x = 0;
      } else {
        n.x = c.x + 1;
      }
      break;
    case Port::kLocal:
      break;
  }
  // A 1-wide (or 1-high) torus dimension would make a router its own
  // neighbour; treat that dimension as unconnected instead.
  if (n == c) return std::nullopt;
  return n;
}

namespace {

/// Signed steps to take in one dimension (positive = east/south) and the
/// resulting hop count, honouring torus wrap.
struct DimStep {
  int direction;      // -1, 0, +1
  std::size_t hops;
};

DimStep dim_step(std::size_t from, std::size_t to, std::size_t extent,
                 bool torus) {
  if (from == to) return {0, 0};
  if (!torus) {
    return to > from ? DimStep{+1, to - from} : DimStep{-1, from - to};
  }
  // Both below extent: no modulo needed (every HEAD flit routes here).
  const std::size_t fwd = to > from ? to - from : to + extent - from;  // east/south
  const std::size_t bwd = extent - fwd;                                // west/north
  // Shortest wrap direction; exact tie goes to the positive direction.
  return fwd <= bwd ? DimStep{+1, fwd} : DimStep{-1, bwd};
}

}  // namespace

Port route_xy(const NetworkConfig& net, Coord here, Coord dest) {
  const bool torus = net.topology == Topology::kTorus;
  const DimStep sx = dim_step(here.x, dest.x, net.width, torus);
  if (sx.direction != 0) {
    return sx.direction > 0 ? Port::kEast : Port::kWest;
  }
  const DimStep sy = dim_step(here.y, dest.y, net.height, torus);
  if (sy.direction != 0) {
    return sy.direction > 0 ? Port::kSouth : Port::kNorth;
  }
  return Port::kLocal;
}

std::size_t route_hops(const NetworkConfig& net, Coord src, Coord dst) {
  const bool torus = net.topology == Topology::kTorus;
  return dim_step(src.x, dst.x, net.width, torus).hops +
         dim_step(src.y, dst.y, net.height, torus).hops;
}

}  // namespace tmsim::noc
