// Optimizer correctness: the central property suite. For every pass and
// every workload, the optimized module must (a) verify and (b) return the
// same checksum — plus targeted unit tests of each transformation and
// fuzzed random pass sequences (the same population Fig. 2 searches over).
#include <gtest/gtest.h>

#include "ir/analysis.hpp"
#include "ir/builder.hpp"
#include "ir/fingerprint.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "opt/pass.hpp"
#include "opt/pipelines.hpp"
#include "sim/interpreter.hpp"
#include "support/rng.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace ilc;
using namespace ilc::ir;
using opt::PassId;

std::int64_t run_checksum(const Module& m) {
  sim::Simulator s(m, sim::amd_like());
  return s.run().ret;
}

// --- every pass preserves semantics on every workload -------------------

struct PassWorkloadCase {
  std::string workload;
  unsigned pass;
};

class PassPreservation
    : public ::testing::TestWithParam<PassWorkloadCase> {};

TEST_P(PassPreservation, ChecksumAndVerifierInvariant) {
  const auto& param = GetParam();
  wl::Workload w = wl::make_workload(param.workload);
  const auto id = static_cast<PassId>(param.pass);
  opt::run_pass(id, w.module);
  ASSERT_EQ(verify(w.module), "") << opt::pass_name(id);
  EXPECT_EQ(run_checksum(w.module), w.expected_checksum)
      << opt::pass_name(id) << " broke " << param.workload;
}

std::vector<PassWorkloadCase> all_pass_workload_cases() {
  std::vector<PassWorkloadCase> cases;
  for (const auto& name : wl::workload_names())
    for (unsigned p = 0; p < opt::kNumPasses; ++p)
      cases.push_back({name, p});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllPassesAllWorkloads, PassPreservation,
    ::testing::ValuesIn(all_pass_workload_cases()),
    [](const ::testing::TestParamInfo<PassWorkloadCase>& info) {
      return info.param.workload + "_" +
             opt::pass_name(static_cast<PassId>(info.param.pass));
    });

// --- random sequences (the Fig. 2 population) ---------------------------

class SequenceFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SequenceFuzz, RandomLength5SequencePreservesSemantics) {
  support::Rng rng(1000 + GetParam());
  const auto space = opt::sequence_space();
  // Mirror the paper's constraint: unrolling appears at most once.
  std::vector<PassId> seq;
  bool used_unroll = false;
  while (seq.size() < 5) {
    const PassId id = space[rng.next_below(space.size())];
    if (opt::is_unroll(id)) {
      if (used_unroll) continue;
      used_unroll = true;
    }
    seq.push_back(id);
  }
  for (const auto& name : {"adpcm", "mcf_lite", "crc32"}) {
    wl::Workload w = wl::make_workload(name);
    opt::run_sequence(w.module, seq);
    ASSERT_EQ(verify(w.module), "") << name;
    EXPECT_EQ(run_checksum(w.module), w.expected_checksum) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, SequenceFuzz, ::testing::Range(0, 12));

// The sequences SequenceFuzz never draws, which phase-ordering search and a
// pass manager will: 1-30 passes over all kNumPasses passes, repeats and
// repeated unrolls allowed. One case per workload, kWideFuzzSequences
// seeded sequences each (680 in all); the module is verified after every
// pass and the golden checksum checked at the end.
constexpr int kWideFuzzSequences = 40;

class WideSequenceFuzz : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WideSequenceFuzz, LongSequencesWithRepeatsPreserveSemantics) {
  const std::string& name = wl::workload_names()[GetParam()];
  const wl::Workload w = wl::make_workload(name);
  support::Rng rng(5000 + GetParam());
  for (int s = 0; s < kWideFuzzSequences; ++s) {
    std::vector<PassId> seq(1 + rng.next_below(30));
    std::string text;
    for (PassId& id : seq) {
      id = static_cast<PassId>(rng.next_below(opt::kNumPasses));
      if (!text.empty()) text += ',';
      text += opt::pass_name(id);
    }
    Module m = w.module;
    for (std::size_t i = 0; i < seq.size(); ++i) {
      opt::run_pass(seq[i], m);
      ASSERT_EQ(verify(m), "")
          << name << ": " << opt::pass_name(seq[i]) << " (pass " << i + 1
          << " of " << text << ") left an invalid module";
    }
    EXPECT_EQ(run_checksum(m), w.expected_checksum)
        << name << " miscompiled by " << text;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WideSequenceFuzz,
    ::testing::Range<std::size_t>(0, wl::workload_names().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return wl::workload_names()[info.param];
    });

// The search Evaluator's pass-transition memo treats a pass that reports
// no change as a no-op: it takes no fingerprint and replays skip the pass.
// That holds only if `false` means the module is untouched, so check it
// field by field for every pass, on every workload, from a seeded corpus
// of states (the base module plus the states random prefixes reach).
::testing::AssertionResult same_module(const Module& a, const Module& b) {
  auto differ = [](const std::string& what) {
    return ::testing::AssertionFailure() << what << " differs";
  };
  if (a.name != b.name) return differ("module name");
  if (a.ptr_bytes() != b.ptr_bytes()) return differ("ptr_bytes");
  if (a.functions().size() != b.functions().size())
    return differ("function count");
  for (std::size_t f = 0; f < a.functions().size(); ++f) {
    const Function& fa = a.functions()[f];
    const Function& fb = b.functions()[f];
    if (fa.name != fb.name || fa.num_args != fb.num_args ||
        fa.num_regs != fb.num_regs || fa.frame_size != fb.frame_size)
      return differ("header of " + fa.name);
    if (fa.blocks.size() != fb.blocks.size())
      return differ("block count of " + fa.name);
    for (std::size_t bi = 0; bi < fa.blocks.size(); ++bi)
      if (fa.blocks[bi].insts != fb.blocks[bi].insts)
        return differ(fa.name + " block " + std::to_string(bi));
  }
  if (a.records().size() != b.records().size()) return differ("record count");
  for (std::size_t r = 0; r < a.records().size(); ++r) {
    const RecordType& ra = a.records()[r];
    const RecordType& rb = b.records()[r];
    bool same = ra.name == rb.name && ra.fields.size() == rb.fields.size();
    for (std::size_t i = 0; same && i < ra.fields.size(); ++i)
      same = ra.fields[i].name == rb.fields[i].name &&
             ra.fields[i].kind == rb.fields[i].kind;
    if (!same) return differ("record " + ra.name);
  }
  if (a.globals().size() != b.globals().size()) return differ("global count");
  for (std::size_t g = 0; g < a.globals().size(); ++g) {
    const Global& ga = a.globals()[g];
    const Global& gb = b.globals()[g];
    bool same = ga.name == gb.name && ga.kind == gb.kind &&
                ga.count == gb.count && ga.elem_width == gb.elem_width &&
                ga.elem_is_ptr == gb.elem_is_ptr &&
                ga.ptr_target == gb.ptr_target && ga.init == gb.init &&
                ga.record == gb.record &&
                ga.field_init.size() == gb.field_init.size();
    for (std::size_t i = 0; same && i < ga.field_init.size(); ++i)
      same = ga.field_init[i].values == gb.field_init[i].values &&
             ga.field_init[i].ptr_target == gb.field_init[i].ptr_target;
    if (!same) return differ("global " + ga.name);
  }
  return ::testing::AssertionSuccess();
}

constexpr int kNoOpCorpusStates = 12;

class NoChangeMeansUntouched : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NoChangeMeansUntouched, EveryPassThatReportsNoChangeLeavesTheModule) {
  const std::string& name = wl::workload_names()[GetParam()];
  const wl::Workload w = wl::make_workload(name);
  support::Rng rng(7000 + GetParam());
  unsigned no_ops = 0;
  for (int s = 0; s < kNoOpCorpusStates; ++s) {
    // State 0 is the base module; the rest follow 1-8 random passes.
    Module state = w.module;
    std::string prefix;
    const std::size_t len = s == 0 ? 0 : 1 + rng.next_below(8);
    for (std::size_t i = 0; i < len; ++i) {
      const auto id = static_cast<PassId>(rng.next_below(opt::kNumPasses));
      opt::run_pass(id, state);
      if (!prefix.empty()) prefix += ',';
      prefix += opt::pass_name(id);
    }
    for (unsigned p = 0; p < opt::kNumPasses; ++p) {
      const auto id = static_cast<PassId>(p);
      Module m = state;
      if (opt::run_pass(id, m)) continue;
      ++no_ops;
      EXPECT_TRUE(same_module(m, state))
          << name << ": " << opt::pass_name(id) << " reported no change after ["
          << prefix << "]";
    }
  }
  EXPECT_GT(no_ops, 0u) << name;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, NoChangeMeansUntouched,
    ::testing::Range<std::size_t>(0, wl::workload_names().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return wl::workload_names()[info.param];
    });

TEST(Pipelines, FastPipelinePreservesEveryWorkload) {
  for (const auto& name : wl::workload_names()) {
    wl::Workload w = wl::make_workload(name);
    opt::run_sequence(w.module, opt::fast_pipeline());
    ASSERT_EQ(verify(w.module), "") << name;
    EXPECT_EQ(run_checksum(w.module), w.expected_checksum) << name;
  }
}

TEST(Pipelines, FastActuallySpeedsUpTheSuite) {
  // The sanity bar for the whole optimizer: FAST must beat -O0 broadly.
  unsigned wins = 0, total = 0;
  for (const auto& name : wl::workload_names()) {
    wl::Workload base = wl::make_workload(name);
    wl::Workload fast = wl::make_workload(name);
    opt::run_sequence(fast.module, opt::fast_pipeline());
    sim::Simulator s0(base.module, sim::amd_like());
    sim::Simulator s1(fast.module, sim::amd_like());
    const auto c0 = s0.run().cycles;
    const auto c1 = s1.run().cycles;
    ++total;
    if (c1 < c0) ++wins;
  }
  EXPECT_GE(wins * 100, total * 75)
      << "FAST should speed up at least 75% of the suite";
}

TEST(Pipelines, FlagEncodingRoundTrips) {
  support::Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const auto bits =
        static_cast<std::uint32_t>(rng.next_below(opt::OptFlags::kEncodings));
    const opt::OptFlags f = opt::OptFlags::decode(bits);
    EXPECT_EQ(opt::OptFlags::decode(f.encode()), f);
  }
  EXPECT_EQ(opt::o0_flags().to_string(), "O0");
  EXPECT_NE(opt::fast_flags().to_string().find("unroll4"), std::string::npos);
}

// --- targeted per-pass unit tests ----------------------------------------

TEST(ConstProp, FoldsAcrossBlocks) {
  Module m;
  FunctionBuilder b(m, "main", 0);
  Reg x = b.imm(21);
  BlockId next = b.new_block();
  b.jump(next);
  b.switch_to(next);
  Reg y = b.mul(x, b.imm(2));
  b.ret(y);
  b.finish();
  EXPECT_TRUE(opt::const_prop(m.function(0), m));
  // The multiply must have become a LoadImm 42.
  bool found = false;
  for (const auto& bb : m.function(0).blocks)
    for (const auto& inst : bb.insts)
      if (inst.op == Opcode::LoadImm && inst.imm == 42) found = true;
  EXPECT_TRUE(found);
  EXPECT_EQ(run_checksum(m), 42);
}

TEST(ConstProp, FoldsConstantBranches) {
  Module m;
  FunctionBuilder b(m, "main", 0);
  Reg c = b.imm(1);
  BlockId t = b.new_block(), f = b.new_block();
  b.br(c, t, f);
  b.switch_to(t);
  b.ret(b.imm(10));
  b.switch_to(f);
  b.ret(b.imm(20));
  b.finish();
  EXPECT_TRUE(opt::const_prop(m.function(0), m));
  EXPECT_EQ(m.function(0).blocks[0].terminator().op, Opcode::Jump);
  EXPECT_EQ(run_checksum(m), 10);
}

TEST(ConstProp, KeepsMergePointsConservative) {
  // x is 1 on one path and 2 on the other: must NOT fold the use.
  Module m;
  FunctionBuilder b(m, "main", 1);
  Reg x = b.fresh();
  BlockId t = b.new_block(), f = b.new_block(), join = b.new_block();
  b.br(b.arg(0), t, f);
  b.switch_to(t);
  b.imm_to(x, 1);
  b.jump(join);
  b.switch_to(f);
  b.imm_to(x, 2);
  b.jump(join);
  b.switch_to(join);
  b.ret(b.mul_i(x, 10));
  b.finish();
  opt::const_prop(m.function(0), m);
  sim::Simulator s(m, sim::amd_like());
  EXPECT_EQ(s.call("main", {1}).ret, 10);
  EXPECT_EQ(s.call("main", {0}).ret, 20);
}

TEST(ConstProp, DoesNotFoldTaggedImmediates) {
  Module m;
  RecordType t;
  t.fields = {{"p", FieldKind::Ptr}, {"v", FieldKind::I64}};
  const RecordId rec = m.add_record(t);
  Global g;
  g.name = "cells";
  g.kind = GlobalKind::RecordArray;
  g.record = rec;
  g.count = 4;
  const GlobalId gid = m.add_global(g);
  FunctionBuilder b(m, "main", 0);
  Reg addr = b.record_elem_addr(gid, b.imm(2));
  b.ret(b.load_field(addr, rec, 1));
  b.finish();
  opt::const_prop(m.function(0), m);
  // The tagged stride LoadImm must survive so PtrCompress can re-patch it.
  bool tagged_alive = false;
  for (const auto& bb : m.function(0).blocks)
    for (const auto& inst : bb.insts)
      if (inst.tag == ImmTag::RecordStride) tagged_alive = true;
  EXPECT_TRUE(tagged_alive);
  // And the whole thing still composes with compression.
  opt::compress_pointers(m);
  opt::const_prop(m.function(0), m);
  EXPECT_EQ(verify(m), "");
}

TEST(CopyProp, RewritesThroughCopies) {
  Module m;
  FunctionBuilder b(m, "main", 0);
  Reg x = b.imm(5);
  Reg y = b.mov(x);
  Reg z = b.mov(y);
  b.ret(b.add(z, z));
  b.finish();
  EXPECT_TRUE(opt::copy_prop(m.function(0)));
  const Instr& add = m.function(0).blocks[0].insts[3];
  EXPECT_EQ(add.a, x);
  EXPECT_EQ(add.b, x);
  EXPECT_EQ(run_checksum(m), 10);
}

TEST(CopyProp, StopsAtRedefinition) {
  Module m;
  FunctionBuilder b(m, "main", 0);
  Reg x = b.fresh();
  b.imm_to(x, 5);
  Reg y = b.mov(x);
  b.imm_to(x, 9);          // x redefined: y must NOT alias x anymore
  b.ret(b.add(y, x));      // 5 + 9
  b.finish();
  opt::copy_prop(m.function(0));
  EXPECT_EQ(run_checksum(m), 14);
}

TEST(Cse, ReusesPureExpressions) {
  Module m;
  FunctionBuilder b(m, "main", 0);
  Reg x = b.imm(6);
  Reg y = b.imm(7);
  Reg a = b.mul(x, y);
  Reg c = b.mul(x, y);  // duplicate
  b.ret(b.add(a, c));
  b.finish();
  EXPECT_TRUE(opt::local_cse(m.function(0)));
  EXPECT_EQ(m.function(0).blocks[0].insts[3].op, Opcode::Mov);
  EXPECT_EQ(run_checksum(m), 84);
}

TEST(Cse, CommutativeOperandsMatch) {
  Module m;
  FunctionBuilder b(m, "main", 0);
  Reg x = b.imm(6);
  Reg y = b.imm(7);
  Reg a = b.add(x, y);
  Reg c = b.add(y, x);  // same value, swapped operands
  b.ret(b.sub(a, c));
  b.finish();
  EXPECT_TRUE(opt::local_cse(m.function(0)));
  EXPECT_EQ(run_checksum(m), 0);
}

TEST(Cse, LoadsInvalidatedByStores) {
  Module m;
  Global g;
  g.name = "buf";
  g.elem_width = 8;
  g.count = 1;
  g.init = {5};
  const GlobalId buf = m.add_global(g);
  FunctionBuilder b(m, "main", 0);
  Reg base = b.global_addr(buf);
  Reg v1 = b.load(base, 0, MemWidth::W8);
  b.store(base, 0, b.imm(9), MemWidth::W8);
  Reg v2 = b.load(base, 0, MemWidth::W8);  // must NOT be CSE'd with v1
  b.ret(b.add(v1, v2));
  b.finish();
  opt::local_cse(m.function(0));
  EXPECT_EQ(run_checksum(m), 14);
}

TEST(Cse, RedundantLoadsWithoutInterveningStoreMerge) {
  Module m;
  Global g;
  g.name = "buf";
  g.elem_width = 8;
  g.count = 1;
  g.init = {5};
  const GlobalId buf = m.add_global(g);
  FunctionBuilder b(m, "main", 0);
  Reg base = b.global_addr(buf);
  Reg v1 = b.load(base, 0, MemWidth::W8);
  Reg v2 = b.load(base, 0, MemWidth::W8);
  b.ret(b.add(v1, v2));
  b.finish();
  EXPECT_TRUE(opt::local_cse(m.function(0)));
  EXPECT_EQ(run_checksum(m), 10);
}

TEST(Dce, RemovesDeadChainsKeepsStores) {
  Module m;
  Global g;
  g.name = "buf";
  g.elem_width = 8;
  g.count = 1;
  const GlobalId buf = m.add_global(g);
  FunctionBuilder b(m, "main", 0);
  Reg dead1 = b.imm(1);
  Reg dead2 = b.add(dead1, dead1);  // feeds nothing live
  (void)dead2;
  Reg base = b.global_addr(buf);
  b.store(base, 0, b.imm(3), MemWidth::W8);
  b.ret(b.load(base, 0, MemWidth::W8));
  b.finish();
  const std::size_t before = m.function(0).size();
  EXPECT_TRUE(opt::dce(m.function(0)));
  EXPECT_LT(m.function(0).size(), before);
  EXPECT_EQ(run_checksum(m), 3);
}

TEST(SimplifyCfg, MergesStraightLineChains) {
  Module m;
  FunctionBuilder b(m, "main", 0);
  Reg x = b.imm(4);
  BlockId b1 = b.new_block(), b2 = b.new_block();
  b.jump(b1);
  b.switch_to(b1);
  Reg y = b.add_i(x, 1);
  b.jump(b2);
  b.switch_to(b2);
  b.ret(y);
  b.finish();
  EXPECT_TRUE(opt::simplify_cfg(m.function(0)));
  EXPECT_EQ(m.function(0).blocks.size(), 1u);
  EXPECT_EQ(run_checksum(m), 5);
}

TEST(SimplifyCfg, RemovesUnreachableBlocks) {
  Module m;
  FunctionBuilder b(m, "main", 0);
  b.ret(b.imm(1));
  BlockId orphan = b.new_block();
  b.switch_to(orphan);
  b.ret(b.imm(2));
  b.finish();
  EXPECT_TRUE(opt::simplify_cfg(m.function(0)));
  EXPECT_EQ(m.function(0).blocks.size(), 1u);
}

TEST(Licm, HoistsInvariantComputation) {
  Module m;
  FunctionBuilder b(m, "main", 1);
  Reg bound = b.imm(100);
  Reg acc = b.fresh();
  b.imm_to(acc, 0);
  Reg i = b.fresh();
  b.imm_to(i, 0);
  BlockId head = b.new_block(), body = b.new_block(), exit = b.new_block();
  b.jump(head);
  b.switch_to(head);
  b.br(b.cmp_lt(i, bound), body, exit);
  b.switch_to(body);
  Reg inv = b.mul(b.arg(0), b.arg(0));  // invariant
  b.mov_to(acc, b.add(acc, inv));
  b.mov_to(i, b.add_i(i, 1));
  b.jump(head);
  b.switch_to(exit);
  b.ret(acc);
  b.finish();

  EXPECT_TRUE(opt::licm(m.function(0)));
  // The multiply must now be outside the loop.
  const auto loops = find_loops(m.function(0));
  ASSERT_FALSE(loops.empty());
  for (BlockId lb : loops[0].blocks)
    for (const Instr& inst : m.function(0).blocks[lb].insts)
      EXPECT_NE(inst.op, Opcode::Mul);
  sim::Simulator s(m, sim::amd_like());
  EXPECT_EQ(s.call("main", {3}).ret, 900);
}

TEST(Licm, DoesNotHoistVariantComputation) {
  wl::Workload w = wl::make_workload("fir");
  const std::uint64_t before = fingerprint(w.module);
  opt::licm(w.module.function(w.module.find_function("main")));
  // Whatever LICM did, semantics must hold (checksum check), and variant
  // loads must still be in the loop: checksum is the strong check here.
  (void)before;
  EXPECT_EQ(run_checksum(w.module), w.expected_checksum);
}

TEST(StrengthRed, MulByPowerOfTwoBecomesShift) {
  Module m;
  FunctionBuilder b(m, "main", 1);
  b.ret(b.mul(b.arg(0), b.imm(8)));
  b.finish();
  EXPECT_TRUE(opt::strength_reduce(m.function(0)));
  bool has_shl = false, has_mul = false;
  for (const auto& inst : m.function(0).blocks[0].insts) {
    has_shl |= inst.op == Opcode::Shl;
    has_mul |= inst.op == Opcode::Mul;
  }
  EXPECT_TRUE(has_shl);
  EXPECT_FALSE(has_mul);
  sim::Simulator s(m, sim::amd_like());
  EXPECT_EQ(s.call("main", {5}).ret, 40);
  EXPECT_EQ(s.call("main", {-5}).ret, -40);
}

TEST(StrengthRed, MulBy9BecomesShiftAdd) {
  Module m;
  FunctionBuilder b(m, "main", 1);
  b.ret(b.mul(b.imm(9), b.arg(0)));
  b.finish();
  EXPECT_TRUE(opt::strength_reduce(m.function(0)));
  sim::Simulator s(m, sim::amd_like());
  EXPECT_EQ(s.call("main", {7}).ret, 63);
}

TEST(Peephole, AlgebraicIdentities) {
  Module m;
  FunctionBuilder b(m, "main", 1);
  Reg zero = b.imm(0);
  Reg a = b.add(b.arg(0), zero);   // x + 0
  Reg c = b.xor_(a, a);            // x ^ x = 0
  Reg d = b.or_(c, b.arg(0));      // 0 | x
  b.ret(d);
  b.finish();
  EXPECT_TRUE(opt::peephole(m.function(0)));
  sim::Simulator s(m, sim::amd_like());
  EXPECT_EQ(s.call("main", {123}).ret, 123);
}

TEST(Inline, LeafCallDisappears) {
  Module m;
  FuncId leaf;
  {
    FunctionBuilder b(m, "sq", 1);
    b.ret(b.mul(b.arg(0), b.arg(0)));
    leaf = b.finish();
  }
  {
    FunctionBuilder b(m, "main", 0);
    Reg r = b.call(leaf, {b.imm(6)});
    b.ret(r);
    b.finish();
  }
  EXPECT_TRUE(opt::inline_calls(m));
  for (const auto& bb : m.function(m.find_function("main")).blocks)
    for (const auto& inst : bb.insts) EXPECT_NE(inst.op, Opcode::Call);
  EXPECT_EQ(verify(m), "");
  EXPECT_EQ(run_checksum(m), 36);
}

TEST(Inline, FrameOffsetsDoNotCollide) {
  Module m;
  FuncId leaf;
  {
    FunctionBuilder b(m, "spill", 1, 8);
    Reg slot = b.frame_addr(0);
    b.store(slot, 0, b.arg(0), MemWidth::W8);
    b.ret(b.load(slot, 0, MemWidth::W8));
    leaf = b.finish();
  }
  {
    FunctionBuilder b(m, "main", 0, 8);
    Reg slot = b.frame_addr(0);
    b.store(slot, 0, b.imm(100), MemWidth::W8);
    Reg r = b.call(leaf, {b.imm(42)});
    b.ret(b.add(r, b.load(slot, 0, MemWidth::W8)));
    b.finish();
  }
  EXPECT_TRUE(opt::inline_calls(m));
  EXPECT_EQ(verify(m), "");
  EXPECT_EQ(run_checksum(m), 142);
}

TEST(Inline, RecursionNotInlined) {
  Module m;
  FunctionBuilder b(m, "fib", 1);
  Reg n = b.arg(0);
  BlockId base = b.new_block(), rec = b.new_block();
  b.br(b.cmp_lt_i(n, 2), base, rec);
  b.switch_to(base);
  b.ret(n);
  b.switch_to(rec);
  Reg f1 = b.call(0, {b.sub_i(n, 1)});
  Reg f2 = b.call(0, {b.sub_i(n, 2)});
  b.ret(b.add(f1, f2));
  b.finish();
  EXPECT_FALSE(opt::inline_calls(m));
}

TEST(Schedule, SeparatesProducerFromConsumer) {
  Module m;
  FunctionBuilder b(m, "main", 0);
  Reg a = b.imm(3);
  Reg c = b.mul(a, a);      // long latency
  Reg d = b.add(c, a);      // depends on c
  Reg e = b.imm(50);        // independent work
  Reg f = b.imm(60);
  b.ret(b.add(d, b.add(e, f)));
  b.finish();
  wl::Workload w;  // unused
  (void)w;
  Module before = m;
  const bool changed = opt::schedule_blocks(m.function(0));
  EXPECT_EQ(run_checksum(m), run_checksum(before));
  if (changed) {
    sim::Simulator s1(before, sim::amd_like());
    sim::Simulator s2(m, sim::amd_like());
    EXPECT_LE(s2.run().cycles, s1.run().cycles);
  }
}

TEST(Unroll, DuplicatesInnermostBody) {
  wl::Workload w = wl::make_workload("fir");
  Function& fn = w.module.function(w.module.find_function("main"));
  const std::size_t before = fn.size();
  EXPECT_TRUE(opt::unroll_loops(fn, 4));
  EXPECT_GT(fn.size(), 2 * before / 1);  // substantially larger code
  EXPECT_EQ(verify(w.module), "");
  EXPECT_EQ(run_checksum(w.module), w.expected_checksum);
}

TEST(Unroll, ComposesWithSimplifyAndScheduleForSpeed) {
  wl::Workload base = wl::make_workload("fir");
  wl::Workload opt_w = wl::make_workload("fir");
  Function& fn = opt_w.module.function(opt_w.module.find_function("main"));
  opt::unroll_loops(fn, 4);
  opt::simplify_cfg(fn);
  opt::schedule_blocks(fn);
  EXPECT_EQ(run_checksum(opt_w.module), base.expected_checksum);
  sim::Simulator s0(base.module, sim::amd_like());
  sim::Simulator s1(opt_w.module, sim::amd_like());
  EXPECT_LT(s1.run().cycles, s0.run().cycles);
}

TEST(Prefetch, HelpsStreamsHurtsChases) {
  // Streaming phase benefits; mcf's pointer chase must not.
  wl::Workload stream = wl::make_workload("dotprod");
  wl::Workload pf = wl::make_workload("dotprod");
  for (auto& fn : pf.module.functions()) opt::insert_prefetch(fn);
  EXPECT_EQ(run_checksum(pf.module), stream.expected_checksum);
  sim::Simulator s0(stream.module, sim::amd_like());
  sim::Simulator s1(pf.module, sim::amd_like());
  const auto base_cycles = s0.run().cycles;
  const auto pf_cycles = s1.run().cycles;
  EXPECT_LT(pf_cycles, base_cycles) << "prefetch should help streaming";
}

TEST(PtrCompress, ShrinksMcfWorkingSetAndCutsMisses) {
  wl::Workload base = wl::make_workload("mcf_lite");
  wl::Workload comp = wl::make_workload("mcf_lite");
  EXPECT_TRUE(opt::compress_pointers(comp.module));
  EXPECT_FALSE(opt::compress_pointers(comp.module));  // idempotent
  ASSERT_EQ(verify(comp.module), "");
  EXPECT_EQ(run_checksum(comp.module), base.expected_checksum);

  sim::Simulator s0(base.module, sim::amd_like());
  sim::Simulator s1(comp.module, sim::amd_like());
  const auto r0 = s0.run();
  const auto r1 = s1.run();
  EXPECT_LT(r1.counters[sim::L1_TCM], r0.counters[sim::L1_TCM]);
  EXPECT_LT(r1.counters[sim::L2_TCA], r0.counters[sim::L2_TCA]);
  EXPECT_LT(r1.cycles, r0.cycles);
}

TEST(Reassoc, BalancesLongChainAndSpeedsUpDualIssue) {
  // acc = ((((((a+b)+c)+d)+e)+f)+g)+h — serial depth 7; balanced depth 3.
  auto build = [] {
    Module m;
    FunctionBuilder b(m, "main", 0);
    std::vector<Reg> leaves;
    for (int i = 0; i < 8; ++i) leaves.push_back(b.imm(i + 1));
    Reg acc = leaves[0];
    for (int i = 1; i < 8; ++i) acc = b.add(acc, leaves[i]);
    // Pad with an independent long chain so the block isn't issue-bound.
    Reg pad = b.imm(100);
    for (int i = 0; i < 8; ++i) pad = b.mul(pad, b.imm(1));
    b.ret(b.add(acc, b.and_i(pad, 0)));
    b.finish();
    return m;
  };
  Module plain = build();
  Module balanced = build();
  EXPECT_TRUE(opt::reassociate(balanced.function(0)));
  ASSERT_EQ(verify(balanced), "");
  EXPECT_EQ(run_checksum(balanced), run_checksum(plain));  // = 36
  EXPECT_EQ(run_checksum(balanced), 36);

  // With the list scheduler on top, the balanced form must win cycles on
  // the dual-issue machine.
  opt::schedule_blocks(plain.function(0));
  opt::schedule_blocks(balanced.function(0));
  sim::Simulator s0(plain, sim::amd_like());
  sim::Simulator s1(balanced, sim::amd_like());
  EXPECT_LT(s1.run().cycles, s0.run().cycles);
}

TEST(Reassoc, LeavesMultiUseIntermediatesAlone) {
  Module m;
  FunctionBuilder b(m, "main", 0);
  Reg a = b.imm(1), c = b.imm(2), d = b.imm(3);
  Reg t1 = b.add(a, c);
  Reg t2 = b.add(t1, d);
  // t1 used twice: the chain through it must not be consumed.
  b.ret(b.add(t2, t1));
  b.finish();
  const std::int64_t before = run_checksum(m);
  opt::reassociate(m.function(0));
  ASSERT_EQ(verify(m), "");
  EXPECT_EQ(run_checksum(m), before);
}

TEST(Reassoc, PreservesNonCommutativeOps) {
  Module m;
  FunctionBuilder b(m, "main", 0);
  Reg acc = b.imm(1000);
  for (int i = 0; i < 6; ++i) acc = b.sub(acc, b.imm(i + 1));
  b.ret(acc);
  b.finish();
  const std::int64_t before = run_checksum(m);
  EXPECT_FALSE(opt::reassociate(m.function(0)));  // sub is not in scope
  EXPECT_EQ(run_checksum(m), before);
}

TEST(Reassoc, WorksAcrossEveryAssociativeOpcode) {
  for (Opcode op : {Opcode::Add, Opcode::Mul, Opcode::And, Opcode::Or,
                    Opcode::Xor, Opcode::Min, Opcode::Max}) {
    Module m;
    FunctionBuilder b(m, "main", 0);
    Reg acc = b.imm(13);
    for (int i = 0; i < 6; ++i) acc = b.binop(op, acc, b.imm(7 + i));
    b.ret(acc);
    b.finish();
    const std::int64_t before = run_checksum(m);
    opt::reassociate(m.function(0));
    ASSERT_EQ(verify(m), "") << opcode_name(op);
    EXPECT_EQ(run_checksum(m), before) << opcode_name(op);
  }
}

TEST(PassRegistry, NamesRoundTrip) {
  for (unsigned i = 0; i < opt::kNumPasses; ++i) {
    const auto id = static_cast<PassId>(i);
    EXPECT_EQ(opt::pass_from_name(opt::pass_name(id)), id);
  }
  EXPECT_THROW(opt::pass_from_name("bogus"), support::CheckError);
  EXPECT_EQ(opt::sequence_space().size(), opt::kSequenceSpacePasses);
}

}  // namespace
