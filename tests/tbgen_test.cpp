// Tests for the emitted self-checking Verilog testbench: structure, port
// coverage, stimulus/check counts consistent with the schedule, and the
// exact emitted text for designs covering every input and output class.
#include <gtest/gtest.h>

#include <set>

#include "arch/testbench.hpp"
#include "hwir/verilog.hpp"
#include "stt/enumerate.hpp"
#include "tensor/workloads.hpp"

namespace tensorlib::arch {
namespace {

namespace wl = tensor::workloads;

GeneratedAccelerator makeAcc(const std::string& label, std::int64_t pes) {
  const auto g = wl::gemm(pes, pes, pes);
  const auto spec = stt::findDataflowByLabel(g, label);
  EXPECT_TRUE(spec.has_value());
  stt::ArrayConfig cfg;
  cfg.rows = cfg.cols = pes;
  return generateAccelerator(*spec, cfg);
}

std::size_t countOccurrences(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size()))
    ++n;
  return n;
}

TEST(TbGen, EmitsSelfCheckingModule) {
  const auto acc = makeAcc("MNK-SST", 4);
  const auto g = wl::gemm(4, 4, 4);
  const auto env = tensor::makeRandomInputs(g, 3);
  const std::string tb = emitVerilogTestbench(acc, env);
  EXPECT_NE(tb.find("module tb_tensorlib_MNK_SST"), std::string::npos);
  EXPECT_NE(tb.find("always #5 clk = ~clk"), std::string::npos);
  EXPECT_NE(tb.find("TB PASS"), std::string::npos);
  EXPECT_NE(tb.find("$finish"), std::string::npos);
}

TEST(TbGen, InstantiatesEveryPort) {
  const auto acc = makeAcc("MNK-MMT", 4);
  const auto g = wl::gemm(4, 4, 4);
  const auto env = tensor::makeRandomInputs(g, 5);
  const std::string tb = emitVerilogTestbench(acc, env);
  for (hwir::NodeId id : acc.netlist.inputs())
    EXPECT_NE(tb.find("." + acc.netlist.node(id).name + "("), std::string::npos)
        << acc.netlist.node(id).name;
  for (hwir::NodeId id : acc.netlist.outputs())
    EXPECT_NE(tb.find("." + acc.netlist.node(id).name + "("), std::string::npos)
        << acc.netlist.node(id).name;
}

TEST(TbGen, ChecksOnePerOutputElement) {
  const auto acc = makeAcc("MNK-SST", 4);
  const auto g = wl::gemm(4, 4, 4);
  const auto env = tensor::makeRandomInputs(g, 7);
  const std::string tb = emitVerilogTestbench(acc, env);
  // 16 output elements -> 16 mismatch checks.
  EXPECT_EQ(countOccurrences(tb, "MISMATCH"), 16u);
}

TEST(TbGen, PairsWithDesignModule) {
  // The TB instantiates the module name the Verilog backend emits.
  const auto acc = makeAcc("MNK-TSS", 4);
  const auto g = wl::gemm(4, 4, 4);
  const auto env = tensor::makeRandomInputs(g, 9);
  const std::string design = hwir::emitVerilog(acc.netlist);
  const std::string tb = emitVerilogTestbench(acc, env);
  EXPECT_NE(design.find("module " + acc.netlist.name() + " ("),
            std::string::npos);
  EXPECT_NE(tb.find(acc.netlist.name() + " dut ("), std::string::npos);
}

TEST(TbGen, StimulusCyclesCoverComputePhase) {
  const auto acc = makeAcc("MNK-SST", 4);
  const auto g = wl::gemm(4, 4, 4);
  const auto env = tensor::makeRandomInputs(g, 11);
  const std::string tb = emitVerilogTestbench(acc, env);
  // Comment markers for every cycle up to at least compute end.
  for (std::int64_t c = 0; c < acc.loadCycles + acc.computeCycles; ++c)
    EXPECT_NE(tb.find("// cycle " + std::to_string(c) + "\n"),
              std::string::npos)
        << c;
}

/// 64-bit FNV-1a.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : text) h = (h ^ c) * 1099511628211ull;
  return h;
}

TEST(TbGen, EmittedTextIsPinned) {
  // (family, index into its enumerated list, data kind) on a 4x4 array,
  // inputs from makeRandomInputs(algebra, 1). The hashes pin the order and
  // content of every stimulus and sample line, so a schedule layout change
  // cannot silently reorder them.
  struct Pin {
    const char* family;
    std::size_t index;
    hwir::DataKind kind;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {"gemm", 0, hwir::DataKind::Float32, 0x41258a7e0b18ddfull},
      {"gemm", 2, hwir::DataKind::Bits, 0xe54fec1d38521710ull},
      {"gemm", 4, hwir::DataKind::Bits, 0x1b3b875fd42bb9fdull},
      {"gemm", 5, hwir::DataKind::Bits, 0x160adb4e3473cb5bull},
      {"batched-gemv", 0, hwir::DataKind::Bits, 0xf81dab1bca0f49b8ull},
      {"conv2d", 686, hwir::DataKind::Bits, 0xbbb4c906eb69c9aaull},
      {"conv2d", 687, hwir::DataKind::Bits, 0x8541ac8944d68d80ull},
      {"conv2d", 688, hwir::DataKind::Bits, 0x9b5b02e3be0b096cull},
  };
  const stt::ArrayConfig array{4, 4, 320.0, 32.0, 2};
  std::set<stt::DataflowClass> inputClasses, outputClasses;
  for (const Pin& pin : pins) {
    const wl::NamedWorkload* w = wl::findWorkload(pin.family);
    ASSERT_NE(w, nullptr) << pin.family;
    stt::EnumerationOptions options;
    options.dropAllUnicast = !w->allowAllUnicast;
    const auto specs = stt::enumerateDesignSpace(w->algebra, options);
    ASSERT_LT(pin.index, specs.size()) << pin.family;
    const stt::DataflowSpec& spec = specs[pin.index];
    for (const auto& role : spec.tensors())
      (role.isOutput ? outputClasses : inputClasses)
          .insert(role.dataflow.dataflowClass);

    HardwareConfig hw;
    hw.dataKind = pin.kind;
    if (pin.kind == hwir::DataKind::Float32) hw.dataWidth = 32;
    const auto acc = generateAccelerator(spec, array, hw);
    const std::string tb =
        emitVerilogTestbench(acc, tensor::makeRandomInputs(w->algebra, 1));
    EXPECT_EQ(fnv1a(tb), pin.hash)
        << pin.family << " #" << pin.index << " " << spec.label() << " 0x"
        << std::hex << fnv1a(tb);
  }
  using C = stt::DataflowClass;
  EXPECT_EQ(inputClasses,
            (std::set<C>{C::Unicast, C::Stationary, C::Systolic, C::Multicast,
                         C::Broadcast2D, C::MulticastStationary,
                         C::SystolicMulticast}));
  EXPECT_EQ(outputClasses, (std::set<C>{C::Unicast, C::Stationary,
                                        C::Systolic, C::Multicast}));
}

}  // namespace
}  // namespace tensorlib::arch
