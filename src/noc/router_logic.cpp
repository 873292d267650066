#include "noc/router_logic.h"

#include <bit>
#include <cstdint>

namespace tmsim::noc {

namespace {

/// Input port and VC of every queue index, per num_vcs: the per-grant
/// bookkeeping looks them up instead of dividing by num_vcs.
struct QueuePort {
  std::uint8_t port;
  std::uint8_t vc;
};

constexpr auto kQueuePorts = [] {
  std::array<std::array<QueuePort, kMaxQueues>, kMaxVcs> t{};
  for (std::size_t nv = 1; nv <= kMaxVcs; ++nv) {
    for (std::size_t q = 0; q < kPorts * nv; ++q) {
      t[nv - 1][q] = {static_cast<std::uint8_t>(q / nv),
                      static_cast<std::uint8_t>(q % nv)};
    }
  }
  return t;
}();

std::size_t in_port_of(std::size_t q, const RouterConfig& cfg) {
  return kQueuePorts[cfg.num_vcs - 1][q].port;
}

std::size_t vc_of(std::size_t q, const RouterConfig& cfg) {
  return kQueuePorts[cfg.num_vcs - 1][q].vc;
}

}  // namespace

std::optional<Port> queue_request(const RouterState& s, std::size_t q,
                                  const RouterEnv& env) {
  const QueueState& qs = s.queues[q];
  if (qs.fifo.empty()) {
    return std::nullopt;
  }
  const Flit& head = qs.fifo.front();
  if (qs.locked) {
    // Mid-packet: the route is held until the TAIL passes.
    TMSIM_CHECK_MSG(head.type == FlitType::kBody || head.type == FlitType::kTail,
                    "locked queue must hold BODY/TAIL at its head");
    TMSIM_CHECK_MSG(static_cast<std::size_t>(qs.out_port) < kPorts,
                    "locked route names no port");
    return qs.out_port;
  }
  TMSIM_CHECK_MSG(head.type == FlitType::kHead,
                  "unlocked queue must hold a HEAD at its head");
  const HeadFields h = decode_head(head.payload);
  return route_xy(*env.net, env.coord, Coord{h.dest_x, h.dest_y});
}

Grants compute_grants(const RouterState& s, const RouterEnv& env) {
  const RouterConfig& cfg = env.net->router;
  const std::size_t nq = cfg.num_queues();
  // Bit q of requests[o]: queue q may send and its head asks for port o.
  static_assert(kMaxQueues <= 32, "one request bit per queue");
  std::array<std::uint32_t, kPorts> requests{};
  for (std::size_t p = 0, q = 0; p < kPorts; ++p) {
    for (std::size_t v = 0; v < cfg.num_vcs; ++v, ++q) {
      const std::optional<Port> req = queue_request(s, q, env);
      if (!req.has_value()) {
        continue;
      }
      const OutVcState& ovc = s.out_vcs[RouterState::index(cfg, *req, v)];
      // Mid-packet flits flow only while this queue owns the output VC;
      // a HEAD may only claim a free one.
      const bool lock_ok = s.queues[q].locked
                               ? ovc.busy && ovc.owner_port == p
                               : !ovc.busy;
      if (ovc.credits != 0 && lock_ok) {
        requests[static_cast<std::size_t>(*req)] |= std::uint32_t{1} << q;
      }
    }
  }
  Grants g;
  for (std::size_t o = 0; o < kPorts; ++o) {
    const std::uint32_t req = requests[o];
    if (req == 0) {
      continue;
    }
    std::size_t start = s.rr_ptr[o];
    if (start >= nq) {
      start %= nq;
    }
    // start < nq <= 20: the shift stays inside the word.
    const std::uint32_t from_start = req & (~std::uint32_t{0} << start);
    g.granted[o] = std::countr_zero(from_start != 0 ? from_start : req);
  }
  return g;
}

RouterOutputs compute_outputs(const RouterState& s, const Grants& grants,
                              const RouterEnv& env) {
  const RouterConfig& cfg = env.net->router;
  RouterOutputs out;
  for (std::size_t o = 0; o < kPorts; ++o) {
    const int g = grants.granted[o];
    if (g < 0) {
      continue;
    }
    const std::size_t q = static_cast<std::size_t>(g);
    out.fwd_out[o] = LinkForward{
        /*valid=*/true,
        static_cast<std::uint8_t>(vc_of(q, cfg)),
        s.queues[q].fifo.front(),
    };
    out.credit_out[in_port_of(q, cfg)].set(vc_of(q, cfg));
  }
  return out;
}

RouterOutputs compute_outputs(const RouterState& s, const RouterEnv& env) {
  return compute_outputs(s, compute_grants(s, env), env);
}

RouterState compute_next_state(const RouterState& s, const RouterInputs& in,
                               const RouterEnv& env) {
  return compute_next_state(s, compute_grants(s, env), in, env);
}

RouterState compute_next_state(const RouterState& s, const Grants& grants,
                               const RouterInputs& in, const RouterEnv& env) {
  RouterState next = s;
  compute_next_state_into(s, grants, in, env, next);
  return next;
}

void compute_next_state_into(const RouterState& s, const Grants& grants,
                             const RouterInputs& in, const RouterEnv& env,
                             RouterState& next) {
  const RouterConfig& cfg = env.net->router;
  next = s;

  // 1. Pops: one granted queue per output port forwards its head flit.
  for (std::size_t o = 0; o < kPorts; ++o) {
    const int g = grants.granted[o];
    if (g < 0) {
      continue;
    }
    const std::size_t q = static_cast<std::size_t>(g);
    const std::size_t v = vc_of(q, cfg);
    const std::size_t ovc_idx = RouterState::index(cfg, static_cast<Port>(o), v);
    const Flit flit = next.queues[q].fifo.pop();

    if (flit.type == FlitType::kHead) {
      next.queues[q].locked = true;
      next.queues[q].out_port = static_cast<Port>(o);
      next.out_vcs[ovc_idx].busy = true;
      next.out_vcs[ovc_idx].owner_port =
          static_cast<std::uint8_t>(in_port_of(q, cfg));
    } else if (flit.type == FlitType::kTail) {
      next.queues[q].locked = false;
      next.out_vcs[ovc_idx].busy = false;
    }
    TMSIM_CHECK_MSG(next.out_vcs[ovc_idx].credits > 0,
                    "flit forwarded without a credit");
    --next.out_vcs[ovc_idx].credits;
    next.rr_ptr[o] =
        static_cast<std::uint8_t>(q + 1 == cfg.num_queues() ? 0 : q + 1);
  }

  // 2. Credit returns from downstream routers. The counter wraps at its
  // register width like synthesized hardware: under the dynamic schedule
  // (§4.2) this function can run against stale link values — e.g. last
  // cycle's credit wire still sitting in the link memory because the
  // downstream router has not been evaluated yet this cycle — and the
  // resulting next state is discarded when the block is re-evaluated.
  // Committed states never overflow (checked by check_credit_invariant).
  const std::uint8_t credit_mask =
      static_cast<std::uint8_t>((1u << cfg.credit_bits()) - 1);
  for (std::size_t o = 0; o < kPorts; ++o) {
    for (std::size_t v = 0; v < cfg.num_vcs; ++v) {
      if (in.credit_in[o].get(v)) {
        OutVcState& ovc =
            next.out_vcs[RouterState::index(cfg, static_cast<Port>(o), v)];
        ovc.credits = static_cast<std::uint8_t>((ovc.credits + 1) &
                                                credit_mask);
      }
    }
  }

  // 3. Pushes: flits arriving on the input links land in their VC queue.
  for (std::size_t p = 0; p < kPorts; ++p) {
    const LinkForward& f = in.fwd_in[p];
    if (!f.valid) {
      continue;
    }
    TMSIM_CHECK_MSG(f.flit.type != FlitType::kIdle,
                    "valid link carries an IDLE flit");
    TMSIM_CHECK_MSG(f.vc < cfg.num_vcs, "link vc out of range");
    QueueState& qs =
        next.queues[RouterState::index(cfg, static_cast<Port>(p), f.vc)];
    // push_overwrite, not push: a transient evaluation against a stale
    // forward link can replay last cycle's flit into a queue that is
    // already full; hardware would advance the write pointer regardless,
    // and the re-evaluation discards this state (see the credit comment
    // above). Committed states never overflow.
    qs.fifo.push_overwrite(f.flit);
  }
}

}  // namespace tmsim::noc
