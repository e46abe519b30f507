#include "ir/printer.hpp"

#include <sstream>

namespace ilc::ir {

namespace {

std::string reg_name(Reg r) {
  if (r == kNoReg) return "_";
  return std::string("r").append(std::to_string(r));
}

}  // namespace

std::string to_string(const Instr& inst) {
  std::ostringstream os;
  switch (inst.op) {
    case Opcode::Nop:
      os << "nop";
      break;
    case Opcode::LoadImm:
      os << reg_name(inst.dst) << " = imm " << inst.imm;
      if (inst.tag == ImmTag::RecordStride) os << " !stride(rec" << inst.rec << ")";
      if (inst.tag == ImmTag::PtrWidth) os << " !ptrwidth";
      break;
    case Opcode::Mov:
    case Opcode::Neg:
    case Opcode::Not:
      os << reg_name(inst.dst) << " = " << opcode_name(inst.op) << " "
         << reg_name(inst.a);
      break;
    case Opcode::GlobalAddr:
      os << reg_name(inst.dst) << " = gaddr @" << inst.gid;
      break;
    case Opcode::FrameAddr:
      os << reg_name(inst.dst) << " = faddr +" << inst.imm;
      break;
    case Opcode::Load:
      os << reg_name(inst.dst) << " = load." << width_bytes(inst.width)
         << (inst.is_ptr ? "p" : "") << " [" << reg_name(inst.a) << " + "
         << inst.imm << "]";
      if (inst.tag == ImmTag::FieldOffset)
        os << " !field(rec" << inst.rec << "." << inst.field << ")";
      break;
    case Opcode::Store:
      os << "store." << width_bytes(inst.width) << (inst.is_ptr ? "p" : "")
         << " [" << reg_name(inst.a) << " + " << inst.imm << "], "
         << reg_name(inst.b);
      if (inst.tag == ImmTag::FieldOffset)
        os << " !field(rec" << inst.rec << "." << inst.field << ")";
      break;
    case Opcode::Prefetch:
      os << "prefetch [" << reg_name(inst.a) << " + " << inst.imm << "]";
      break;
    case Opcode::Jump:
      os << "jump bb" << inst.t1;
      break;
    case Opcode::Br:
      os << "br " << reg_name(inst.a) << ", bb" << inst.t1 << ", bb"
         << inst.t2;
      break;
    case Opcode::Ret:
      os << "ret";
      if (inst.a != kNoReg) os << " " << reg_name(inst.a);
      break;
    case Opcode::Call:
      if (inst.dst != kNoReg) os << reg_name(inst.dst) << " = ";
      os << "call @" << inst.callee << "(";
      for (unsigned i = 0; i < inst.nargs; ++i) {
        if (i) os << ", ";
        os << reg_name(inst.args[i]);
      }
      os << ")";
      break;
    default:
      os << reg_name(inst.dst) << " = " << opcode_name(inst.op) << " "
         << reg_name(inst.a) << ", " << reg_name(inst.b);
      break;
  }
  return os.str();
}

std::string to_string(const Function& fn) {
  std::ostringstream os;
  os << "func @" << fn.name << "(" << fn.num_args << ") regs=" << fn.num_regs
     << " frame=" << fn.frame_size << " {\n";
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    os << "bb" << b << ":\n";
    for (const Instr& inst : fn.blocks[b].insts)
      os << "  " << to_string(inst) << "\n";
  }
  os << "}\n";
  return os.str();
}

std::string to_string(const Module& mod) {
  std::ostringstream os;
  os << "module " << mod.name << " ptr=" << mod.ptr_bytes() << "\n";
  for (std::size_t r = 0; r < mod.records().size(); ++r) {
    const RecordType& rec = mod.records()[r];
    os << "record rec" << r << " " << rec.name << " {";
    for (std::size_t f = 0; f < rec.fields.size(); ++f) {
      if (f) os << ", ";
      os << rec.fields[f].name << ":" << field_kind_name(rec.fields[f].kind);
    }
    os << "}\n";
  }
  for (std::size_t g = 0; g < mod.globals().size(); ++g) {
    const Global& gl = mod.globals()[g];
    os << "global @" << g << " " << gl.name << " count=" << gl.count;
    if (gl.kind == GlobalKind::RecordArray)
      os << " record=rec" << gl.record;
    else
      os << " width=" << (gl.elem_is_ptr ? mod.ptr_bytes() : gl.elem_width)
         << (gl.elem_is_ptr ? " ptr" : "");
    os << "\n";
  }
  for (const Function& fn : mod.functions()) os << to_string(fn);
  return os.str();
}

}  // namespace ilc::ir
