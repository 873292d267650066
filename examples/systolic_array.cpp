// Systolic array example — §7.1: "The same technique used for the NoC
// simulator can also be used for testing other parallel systems on an
// FPGA. In particular systolic algorithms with many equal parts with a
// small state space."
//
// An N×N output-stationary matrix-multiply array: A values flow east, B
// values flow south, every PE accumulates a·b. All boundaries are
// registered (the classic systolic discipline), so the §4.1 STATIC
// schedule applies: exactly N² delta cycles per system cycle, any order.
//
// The example builds the array from one shared PE implementation (the
// paper's F'_{i,j}: one circuit, many state words), streams two random
// matrices through it, and checks every accumulator against a plain
// matrix product.
//
//   $ ./examples/systolic_array [N]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/sharded_simulator.h"

namespace {

using namespace tmsim;
using namespace tmsim::core;

/// One processing element: acc += a_in * b_in; a and b pass through one
/// register stage. State = the 32-bit accumulator.
class MacPe : public SimBlock {
 public:
  std::size_t state_width() const override { return 32; }
  std::size_t num_inputs() const override { return 2; }   // a, b
  std::size_t input_width(std::size_t) const override { return 16; }
  std::size_t num_outputs() const override { return 2; }  // a, b
  std::size_t output_width(std::size_t) const override { return 16; }
  BitVector reset_state() const override { return BitVector(32); }

  void evaluate(const BitVector& old_state, std::span<const BitVector> in,
                BitVector& new_state,
                std::span<BitVector> out) const override {
    const std::uint64_t a = in[0].get_field(0, 16);
    const std::uint64_t b = in[1].get_field(0, 16);
    const std::uint64_t acc = old_state.get_field(0, 32);
    new_state.set_field(0, 32, (acc + a * b) & 0xffffffffull);
    out[0].set_field(0, 16, a);  // registered pass-through
    out[1].set_field(0, 16, b);
  }
  std::string type_name() const override { return "mac_pe"; }
};

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = argc >= 2 ? std::strtoul(argv[1], nullptr, 10) : 4;
  if (n < 2 || n > 16) {
    std::fprintf(stderr, "N must be 2..16\n");
    return 1;
  }

  // Build the array: one logic instance, N² blocks, 2N(N+1)-ish links.
  SystemModel model;
  auto pe = std::make_shared<MacPe>();
  std::vector<BlockId> blocks(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      blocks[i * n + j] = model.add_block(
          pe, "pe" + std::to_string(i) + "_" + std::to_string(j));
    }
  }
  // a-links: row i has N+1 links (external feed + N-1 internal + east
  // spill); likewise b-links per column.
  std::vector<LinkId> a_feed(n), b_feed(n);
  for (std::size_t i = 0; i < n; ++i) {
    LinkId prev = model.add_link("a_in" + std::to_string(i), 16,
                                 LinkKind::kRegistered);
    a_feed[i] = prev;
    for (std::size_t j = 0; j < n; ++j) {
      model.bind_input(blocks[i * n + j], 0, prev);
      prev = model.add_link(
          "a" + std::to_string(i) + "_" + std::to_string(j), 16,
          LinkKind::kRegistered);
      model.bind_output(blocks[i * n + j], 0, prev);
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    LinkId prev = model.add_link("b_in" + std::to_string(j), 16,
                                 LinkKind::kRegistered);
    b_feed[j] = prev;
    for (std::size_t i = 0; i < n; ++i) {
      model.bind_input(blocks[i * n + j], 1, prev);
      prev = model.add_link(
          "b" + std::to_string(i) + "_" + std::to_string(j), 16,
          LinkKind::kRegistered);
      model.bind_output(blocks[i * n + j], 1, prev);
    }
  }
  model.finalize();
  ShardedSimulator sim(model, {.schedule = SchedulePolicy::kStatic});

  // Random input matrices (small values so products stay in 32 bits).
  SplitMix64 rng(123);
  std::vector<std::vector<std::uint64_t>> A(n, std::vector<std::uint64_t>(n));
  std::vector<std::vector<std::uint64_t>> B(n, std::vector<std::uint64_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      A[i][j] = rng.next_below(256);
      B[i][j] = rng.next_below(256);
    }
  }

  // Staggered feed: A[i][k] enters row i before step k+i, B[k][j] enters
  // column j before step k+j; zeros otherwise (harmless: 0·x == 0).
  const std::size_t total_cycles = 3 * n + 2;
  for (std::size_t t = 0; t < total_cycles; ++t) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t a = (t >= i && t - i < n) ? A[i][t - i] : 0;
      sim.set_external_input(a_feed[i], make_bit_vector(16, a));
    }
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t b = (t >= j && t - j < n) ? B[t - j][j] : 0;
      sim.set_external_input(b_feed[j], make_bit_vector(16, b));
    }
    const StepStats st = sim.step();
    TMSIM_CHECK_MSG(st.delta_cycles == n * n,
                    "static schedule must cost exactly N^2 deltas");
  }

  // Check every accumulator against the plain product.
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      std::uint64_t ref = 0;
      for (std::size_t k = 0; k < n; ++k) {
        ref += A[i][k] * B[k][j];
      }
      const std::uint64_t got =
          sim.block_state(blocks[i * n + j]).get_field(0, 32);
      if (got != ref) {
        ++wrong;
        std::printf("MISMATCH C[%zu][%zu]: got %llu want %llu\n", i, j,
                    (unsigned long long)got, (unsigned long long)ref);
      }
    }
  }
  std::printf("%zux%zu systolic matrix multiply: %zu PEs, %llu delta "
              "cycles over %zu system cycles — %s\n",
              n, n, n * n,
              static_cast<unsigned long long>(sim.total_delta_cycles()),
              total_cycles,
              wrong == 0 ? "all accumulators match the reference product"
                         : "FAILED");
  return wrong == 0 ? 0 : 1;
}
