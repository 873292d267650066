// Micro-benchmarks (google-benchmark) of the primitives whose costs drive
// every number in Tables 3/4: one router evaluation (bare logic, and as
// a RouterBlock on typed states vs. through the state word), the
// state-word codec, the memory banks, and whole-engine steps across
// network sizes.
// Besides the console table, the run drops BENCH_micro_engines.json with
// one metric per benchmark (adjusted real time).
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/noc_block.h"
#include "core/state_memory.h"
#include "noc/network.h"
#include "noc/router_logic.h"
#include "noc/router_state.h"
#include "rtlsim/rtl_noc.h"
#include "sysc/sysc_noc.h"
#include "traffic/harness.h"

namespace {

using namespace tmsim;

noc::NetworkConfig net_of(std::size_t w, std::size_t h) {
  noc::NetworkConfig net;
  net.width = w;
  net.height = h;
  return net;
}

/// Serialized router state with one HEAD flit waiting in queue 0 — the
/// same load BM_RouterEvaluate uses.
BitVector head_flit_word(const noc::NetworkConfig& net) {
  noc::RouterState s(net.router);
  s.queues[0].fifo.push(
      noc::Flit{noc::FlitType::kHead, noc::make_head_payload(4, 2, 0, 1)});
  return noc::RouterStateCodec(net.router).serialize(s);
}

/// Idle (all-zero) link values, one per input or output port of `blk`.
std::vector<BitVector> zero_ports(const core::SimBlock& blk, bool inputs) {
  std::vector<BitVector> ports;
  const std::size_t n = inputs ? blk.num_inputs() : blk.num_outputs();
  for (std::size_t p = 0; p < n; ++p) {
    ports.emplace_back(inputs ? blk.input_width(p) : blk.output_width(p));
  }
  return ports;
}

void BM_RouterEvaluate(benchmark::State& state) {
  const noc::NetworkConfig net = net_of(6, 6);
  noc::RouterEnv env{&net, noc::Coord{2, 2}};
  noc::RouterState s(net.router);
  s.queues[0].fifo.push(
      noc::Flit{noc::FlitType::kHead, noc::make_head_payload(4, 2, 0, 1)});
  noc::RouterState next(net.router);
  noc::RouterInputs in;
  for (auto _ : state) {
    const noc::Grants g = compute_grants(s, env);
    benchmark::DoNotOptimize(compute_outputs(s, g, env));
    compute_next_state_into(s, g, in, env, next);
    benchmark::DoNotOptimize(next);
  }
}
BENCHMARK(BM_RouterEvaluate);

void BM_StateWordSerialize(benchmark::State& state) {
  const noc::RouterConfig cfg;
  const noc::RouterStateCodec codec(cfg);
  noc::RouterState s(cfg);
  BitVector word(codec.state_bits());
  for (auto _ : state) {
    codec.serialize_into(s, word);
    benchmark::DoNotOptimize(word);
  }
  state.SetBytesProcessed(state.iterations() * codec.state_bits() / 8);
}
BENCHMARK(BM_StateWordSerialize);

void BM_StateWordDeserialize(benchmark::State& state) {
  const noc::RouterConfig cfg;
  const noc::RouterStateCodec codec(cfg);
  const BitVector word = codec.reset_word();
  noc::RouterState s(cfg);
  for (auto _ : state) {
    codec.deserialize_into(word, s);
    benchmark::DoNotOptimize(s);
  }
  state.SetBytesProcessed(state.iterations() * codec.state_bits() / 8);
}
BENCHMARK(BM_StateWordDeserialize);

/// RouterBlock evaluation as the engines run it: typed old state in,
/// typed new state out, no codec pass.
void BM_RouterBlockEvaluateTyped(benchmark::State& state) {
  const noc::NetworkConfig net = net_of(6, 6);
  const core::NocModel nm = core::build_noc_model(net);
  const core::SimBlock& blk = *nm.model.block(14).logic;  // router (2,2)
  const std::unique_ptr<core::BlockState> old = blk.make_state();
  const std::unique_ptr<core::BlockState> next = blk.make_state();
  blk.decode_state(head_flit_word(net), *old);
  std::vector<BitVector> in = zero_ports(blk, /*inputs=*/true);
  std::vector<BitVector> out = zero_ports(blk, /*inputs=*/false);
  for (auto _ : state) {
    blk.evaluate_state(*old, in, *next, out);
    benchmark::DoNotOptimize(next.get());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RouterBlockEvaluateTyped);

/// The same evaluation through the word form: decode the 2112-bit word,
/// evaluate, encode — the codec share is this row minus the typed one.
void BM_RouterBlockEvaluateWord(benchmark::State& state) {
  const noc::NetworkConfig net = net_of(6, 6);
  const core::NocModel nm = core::build_noc_model(net);
  const core::SimBlock& blk = *nm.model.block(14).logic;  // router (2,2)
  const BitVector old = head_flit_word(net);
  BitVector next(blk.state_width());
  std::vector<BitVector> in = zero_ports(blk, /*inputs=*/true);
  std::vector<BitVector> out = zero_ports(blk, /*inputs=*/false);
  for (auto _ : state) {
    blk.evaluate(old, in, next, out);
    benchmark::DoNotOptimize(next.words().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RouterBlockEvaluateWord);

/// One system cycle of bank traffic for a 6×6 NoC's typed state memory:
/// every block's old state read and carried into the new bank (the
/// worklist's skip path), then the pointer flip.
void BM_StateMemoryRoundTrip(benchmark::State& state) {
  const noc::NetworkConfig net = net_of(6, 6);
  const core::NocModel nm = core::build_noc_model(net);
  core::StateMemory mem(core::block_logic(nm.model));
  const std::size_t n = mem.num_blocks();
  for (auto _ : state) {
    for (std::size_t b = 0; b < n; ++b) {
      benchmark::DoNotOptimize(&mem.read_old(b));
      mem.carry_over(b);
    }
    mem.swap_banks();
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StateMemoryRoundTrip);

/// One idle system cycle per engine and network size: the floor cost.
template <typename Sim>
void BM_EngineIdleStep(benchmark::State& state) {
  Sim sim(net_of(state.range(0), state.range(0)));
  for (auto _ : state) {
    sim.step();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_EngineIdleStep, noc::DirectNocSimulation)
    ->Arg(2)->Arg(4)->Arg(6)->Arg(8);
BENCHMARK_TEMPLATE(BM_EngineIdleStep, core::SeqNocSimulation)
    ->Arg(2)->Arg(4)->Arg(6)->Arg(8);
BENCHMARK_TEMPLATE(BM_EngineIdleStep, sysc::SyscNocSimulation)
    ->Arg(2)->Arg(4)->Arg(6);
BENCHMARK_TEMPLATE(BM_EngineIdleStep, rtlsim::RtlNocSimulation)
    ->Arg(2)->Arg(4)->Arg(6);

/// Loaded step (BE traffic at 10 %): the realistic per-cycle cost.
template <typename Sim>
void BM_EngineLoadedStep(benchmark::State& state) {
  Sim sim(net_of(6, 6));
  traffic::TrafficHarness::Options opts;
  opts.seed = 3;
  traffic::TrafficHarness h(sim, opts);
  h.set_be_load(0.10);
  for (auto _ : state) {
    h.run(1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_EngineLoadedStep, noc::DirectNocSimulation);
BENCHMARK_TEMPLATE(BM_EngineLoadedStep, core::SeqNocSimulation);
BENCHMARK_TEMPLATE(BM_EngineLoadedStep, sysc::SyscNocSimulation);
BENCHMARK_TEMPLATE(BM_EngineLoadedStep, rtlsim::RtlNocSimulation);

/// Console output as usual, plus one BenchMetric per finished run.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs) {
      collected.push_back({r.benchmark_name(), r.GetAdjustedRealTime(), "ns"});
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<tmsim::bench::BenchMetric> collected;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  tmsim::bench::emit_bench_json("micro_engines", {}, reporter.collected);
  return 0;
}
