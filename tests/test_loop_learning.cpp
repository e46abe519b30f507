// Tests for the per-loop machinery behind the learned unroll-factor case
// study: selective unrolling, loop features, and canonicalization.
#include <gtest/gtest.h>

#include "features/features.hpp"
#include "ir/analysis.hpp"
#include "ir/verifier.hpp"
#include "opt/pass.hpp"
#include "opt/pipelines.hpp"
#include "sim/interpreter.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace ilc;
using namespace ilc::ir;

TEST(UnrollSingle, UnrollsExactlyTheRequestedLoop) {
  wl::Workload w = wl::make_workload("dotprod");  // two sibling loops
  Function& fn = w.module.function(w.module.find_function("main"));
  const auto loops = find_loops(fn);
  ASSERT_GE(loops.size(), 2u);

  const std::size_t size_before = fn.size();
  ASSERT_TRUE(opt::unroll_single_loop(fn, loops[0].header, 4));
  const std::size_t grown = fn.size() - size_before;
  EXPECT_GT(grown, 0u);

  // The other loop must be untouched: its body size is unchanged.
  const auto loops_after = find_loops(fn);
  std::size_t other_body = 0;
  const std::size_t other_body_before = loops[1].blocks.size();  // proxy
  for (const auto& l : loops_after)
    if (l.header == loops[1].header) other_body = l.blocks.size();
  EXPECT_EQ(other_body, other_body_before);

  ASSERT_EQ(verify(w.module), "");
  sim::Simulator s(w.module, sim::amd_like());
  EXPECT_EQ(s.run().ret, w.expected_checksum);
}

TEST(UnrollSingle, ReturnsFalseForUnknownHeader) {
  wl::Workload w = wl::make_workload("fir");
  Function& fn = w.module.function(w.module.find_function("main"));
  EXPECT_FALSE(opt::unroll_single_loop(fn, 9999, 2));
}

TEST(UnrollSingle, RejectsNonInnermostLoops) {
  wl::Workload w = wl::make_workload("matmul");  // triple nest
  Function& fn = w.module.function(w.module.find_function("main"));
  const auto loops = find_loops(fn);
  // Find an outer loop: one containing another loop's header.
  BlockId outer = kNoBlock;
  for (const auto& a : loops)
    for (const auto& b : loops)
      if (a.header != b.header && a.contains(b.header)) outer = a.header;
  ASSERT_NE(outer, kNoBlock);
  EXPECT_FALSE(opt::unroll_single_loop(fn, outer, 2));
}

TEST(UnrollSingle, AllFactorsPreserveSemantics) {
  for (unsigned factor : {2u, 4u, 8u}) {
    wl::Workload w = wl::make_workload("crc32");
    Function& fn = w.module.function(w.module.find_function("main"));
    const auto loops = find_loops(fn);
    for (const auto& loop : loops)
      opt::unroll_single_loop(fn, loop.header, factor);
    opt::simplify_cfg(fn);
    ASSERT_EQ(verify(w.module), "");
    sim::Simulator s(w.module, sim::amd_like());
    EXPECT_EQ(s.run().ret, w.expected_checksum) << "factor " << factor;
  }
}

TEST(LoopFeatures, ShapeAndRanges) {
  wl::Workload w = wl::make_workload("mcf_lite");
  for (const auto& fn : w.module.functions()) {
    for (const auto& loop : find_loops(fn)) {
      const auto f = feat::extract_loop_features(fn, loop);
      ASSERT_EQ(f.size(), feat::loop_feature_names().size());
      EXPECT_GT(f[0], 0.0);               // body size
      EXPECT_GE(f[1], 1.0);               // blocks
      for (std::size_t i = 2; i <= 5; ++i) {
        EXPECT_GE(f[i], 0.0);
        EXPECT_LE(f[i], 1.0);             // ratios
      }
    }
  }
}

TEST(LoopFeatures, DiscriminateMemoryVsAluLoops) {
  wl::Workload mem = wl::make_workload("linklist");
  wl::Workload alu = wl::make_workload("sha_lite");
  auto loop_load_ratio = [](const ir::Module& m) {
    double best = 0;
    for (const auto& fn : m.functions())
      for (const auto& loop : find_loops(fn))
        best = std::max(best, feat::extract_loop_features(fn, loop)[2]);
    return best;
  };
  EXPECT_GT(loop_load_ratio(mem.module), loop_load_ratio(alu.module));
}

TEST(Canonicalize, IdempotentAndSemanticsPreserving) {
  for (const auto& name : {"adpcm", "mcf_lite", "stencil"}) {
    wl::Workload w = wl::make_workload(name);
    opt::canonicalize(w.module);
    ASSERT_EQ(verify(w.module), "") << name;
    const std::size_t once = w.module.code_size();
    opt::canonicalize(w.module);
    EXPECT_EQ(w.module.code_size(), once) << name << " not idempotent";
    sim::Simulator s(w.module, sim::amd_like());
    EXPECT_EQ(s.run().ret, w.expected_checksum) << name;
  }
}

TEST(Canonicalize, NeverGrowsCode) {
  for (const auto& name : wl::workload_names()) {
    wl::Workload w = wl::make_workload(name);
    const std::size_t before = w.module.code_size();
    opt::canonicalize(w.module);
    EXPECT_LE(w.module.code_size(), before) << name;
  }
}

}  // namespace
