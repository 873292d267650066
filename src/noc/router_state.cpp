#include "noc/router_state.h"

#include <string>

namespace tmsim::noc {

namespace {
constexpr const char* kCatQueues = "input queues";
constexpr const char* kCatControl = "control and arbitration";

std::string qname(std::size_t q, const char* what) {
  return "q" + std::to_string(q) + "." + what;
}

const RouterConfig& validated(const RouterConfig& cfg) {
  cfg.validate();
  return cfg;
}
}  // namespace

RouterState::RouterState(const RouterConfig& cfg)
    : queues(validated(cfg).num_queues(), QueueState(cfg.queue_depth)),
      // All downstream queues start empty: full credit.
      out_vcs(cfg.num_queues(),
              OutVcState{.credits =
                             static_cast<std::uint8_t>(cfg.queue_depth)}) {}

RouterStateCodec::RouterStateCodec(const RouterConfig& cfg) : cfg_(cfg) {
  cfg_.validate();
  const std::size_t nq = cfg_.num_queues();

  f_slot_.resize(nq);
  for (std::size_t q = 0; q < nq; ++q) {
    for (std::size_t s = 0; s < cfg_.queue_depth; ++s) {
      f_slot_[q].push_back(layout_.add_field(
          kCatQueues, qname(q, ("slot" + std::to_string(s)).c_str()),
          kFlitBits));
    }
  }
  for (std::size_t q = 0; q < nq; ++q) {
    f_rd_.push_back(layout_.add_field(kCatControl, qname(q, "rd"),
                                      cfg_.ptr_bits()));
    f_wr_.push_back(layout_.add_field(kCatControl, qname(q, "wr"),
                                      cfg_.ptr_bits()));
    f_full_.push_back(layout_.add_field(kCatControl, qname(q, "full"), 1));
    f_locked_.push_back(layout_.add_field(kCatControl, qname(q, "locked"), 1));
    f_outport_.push_back(
        layout_.add_field(kCatControl, qname(q, "out_port"), 3));
  }
  for (std::size_t o = 0; o < nq; ++o) {
    f_busy_.push_back(
        layout_.add_field(kCatControl, "ovc" + std::to_string(o) + ".busy", 1));
    f_owner_.push_back(layout_.add_field(
        kCatControl, "ovc" + std::to_string(o) + ".owner", 3));
    f_credits_.push_back(layout_.add_field(
        kCatControl, "ovc" + std::to_string(o) + ".credits",
        cfg_.credit_bits()));
  }
  for (std::size_t p = 0; p < kPorts; ++p) {
    f_rr_.push_back(layout_.add_field(
        kCatControl, "arb" + std::to_string(p) + ".rr", cfg_.rr_bits()));
  }
}

BitVector RouterStateCodec::serialize(const RouterState& s) const {
  BitVector word(layout_.total_bits());
  serialize_into(s, word);
  return word;
}

void RouterStateCodec::serialize_into(const RouterState& s,
                                      BitVector& word) const {
  const std::size_t nq = cfg_.num_queues();
  TMSIM_CHECK_MSG(s.queues.size() == nq && s.out_vcs.size() == nq &&
                      s.rr_ptr.size() == kPorts,
                  "router state shape mismatch");
  TMSIM_CHECK_MSG(word.width() == layout_.total_bits(),
                  "state word width mismatch");
  for (std::size_t q = 0; q < nq; ++q) {
    const QueueState& qs = s.queues[q];
    TMSIM_CHECK_MSG(qs.fifo.capacity() == cfg_.queue_depth,
                    "queue depth mismatch");
    for (std::size_t slot = 0; slot < cfg_.queue_depth; ++slot) {
      layout_.write(word, f_slot_[q][slot], encode_flit(qs.fifo.slot(slot)));
    }
    layout_.write(word, f_rd_[q], qs.fifo.read_pos());
    layout_.write(word, f_wr_[q], qs.fifo.write_pos());
    layout_.write(word, f_full_[q], qs.fifo.full() ? 1 : 0);
    layout_.write(word, f_locked_[q], qs.locked ? 1 : 0);
    layout_.write(word, f_outport_[q], static_cast<std::uint64_t>(qs.out_port));
  }
  for (std::size_t o = 0; o < nq; ++o) {
    const OutVcState& ovc = s.out_vcs[o];
    layout_.write(word, f_busy_[o], ovc.busy ? 1 : 0);
    layout_.write(word, f_owner_[o], ovc.owner_port);
    layout_.write(word, f_credits_[o], ovc.credits);
  }
  for (std::size_t p = 0; p < kPorts; ++p) {
    layout_.write(word, f_rr_[p], s.rr_ptr[p]);
  }
}

RouterState RouterStateCodec::deserialize(const BitVector& word) const {
  RouterState s(cfg_);
  deserialize_into(word, s);
  return s;
}

void RouterStateCodec::deserialize_into(const BitVector& word,
                                        RouterState& s) const {
  TMSIM_CHECK_MSG(word.width() == layout_.total_bits(),
                  "state word width mismatch");
  const std::size_t nq = cfg_.num_queues();
  TMSIM_CHECK_MSG(s.queues.size() == nq && s.out_vcs.size() == nq,
                  "router state shape mismatch");
  for (std::size_t q = 0; q < nq; ++q) {
    QueueState& qs = s.queues[q];
    for (std::size_t slot = 0; slot < cfg_.queue_depth; ++slot) {
      qs.fifo.slot(slot) = decode_flit(
          static_cast<std::uint32_t>(layout_.read(word, f_slot_[q][slot])));
    }
    const auto rd = static_cast<std::size_t>(layout_.read(word, f_rd_[q]));
    const auto wr = static_cast<std::size_t>(layout_.read(word, f_wr_[q]));
    const bool full = layout_.read(word, f_full_[q]) != 0;
    const std::size_t size =
        full ? cfg_.queue_depth
             : (wr + cfg_.queue_depth - rd) % cfg_.queue_depth;
    qs.fifo.restore(rd, wr, size);
    qs.locked = layout_.read(word, f_locked_[q]) != 0;
    // A 3-bit field: values 5..7 name no port. No reachable state holds
    // one, and a locked queue would index the output VCs out of range.
    const std::uint64_t out_port = layout_.read(word, f_outport_[q]);
    if (out_port >= kPorts) {
      throw ContextualError(
          "router state word: queue out_port names no port",
          {{"queue", std::to_string(q)},
           {"out_port", std::to_string(out_port)}});
    }
    qs.out_port = static_cast<Port>(out_port);
  }
  for (std::size_t o = 0; o < nq; ++o) {
    OutVcState& ovc = s.out_vcs[o];
    ovc.busy = layout_.read(word, f_busy_[o]) != 0;
    ovc.owner_port = static_cast<std::uint8_t>(layout_.read(word, f_owner_[o]));
    ovc.credits = static_cast<std::uint8_t>(layout_.read(word, f_credits_[o]));
  }
  for (std::size_t p = 0; p < kPorts; ++p) {
    s.rr_ptr[p] = static_cast<std::uint8_t>(layout_.read(word, f_rr_[p]));
  }
}

BitVector RouterStateCodec::reset_word() const {
  return serialize(RouterState(cfg_));
}

bool states_equal(const RouterStateCodec& codec, const RouterState& a,
                  const RouterState& b) {
  const std::size_t nq = codec.config().num_queues();
  for (const RouterState* s : {&a, &b}) {
    TMSIM_CHECK_MSG(s->queues.size() == nq && s->out_vcs.size() == nq &&
                        s->rr_ptr.size() == kPorts,
                    "router state shape mismatch");
  }
  return a == b;
}

}  // namespace tmsim::noc
