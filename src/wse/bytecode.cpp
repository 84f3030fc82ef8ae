#include "wse/bytecode.hpp"

#include <sstream>

#include "common/error.hpp"

namespace fvdf::wse::bc {

const char* to_string(Op op) {
  switch (op) {
  case Op::VMOV: return "VMOV";
  case Op::VMOVI: return "VMOVI";
  case Op::VADD: return "VADD";
  case Op::VSUB: return "VSUB";
  case Op::VMUL: return "VMUL";
  case Op::VMULI: return "VMULI";
  case Op::VMULR: return "VMULR";
  case Op::VNEG: return "VNEG";
  case Op::VMAC: return "VMAC";
  case Op::VMACI: return "VMACI";
  case Op::VMACR: return "VMACR";
  case Op::VDOT: return "VDOT";
  case Op::SADD: return "SADD";
  case Op::SMUL: return "SMUL";
  case Op::SMULI: return "SMULI";
  case Op::LODS: return "LODS";
  case Op::STOS: return "STOS";
  case Op::MOVR: return "MOVR";
  case Op::UMOVI: return "UMOVI";
  case Op::UMUL: return "UMUL";
  case Op::UMULI: return "UMULI";
  case Op::USUB: return "USUB";
  case Op::UNEG: return "UNEG";
  case Op::URCP: return "URCP";
  case Op::UDIVI: return "UDIVI";
  case Op::UK2F: return "UK2F";
  case Op::RSTORE: return "RSTORE";
  case Op::FIXD: return "FIXD";
  case Op::ZDIR: return "ZDIR";
  case Op::SEND: return "SEND";
  case Op::SENDC: return "SENDC";
  case Op::RECV: return "RECV";
  case Op::ACT: return "ACT";
  case Op::ADVL: return "ADVL";
  case Op::HALT: return "HALT";
  case Op::PHASE: return "PHASE";
  case Op::PROG: return "PROG";
  case Op::JMP: return "JMP";
  case Op::JTOL: return "JTOL";
  case Op::JGTR: return "JGTR";
  case Op::JKGE: return "JKGE";
  case Op::DECJNZ: return "DECJNZ";
  case Op::DECRET: return "DECRET";
  case Op::SETU: return "SETU";
  case Op::KINC: return "KINC";
  case Op::CHKPOS: return "CHKPOS";
  case Op::SETH: return "SETH";
  case Op::SETC: return "SETC";
  case Op::JIND: return "JIND";
  case Op::RET: return "RET";
  case Op::kCount: break;
  }
  return "???";
}

Builder::Label Builder::make_label() {
  label_pc_.push_back(-1);
  return static_cast<Label>(label_pc_.size() - 1);
}

void Builder::bind(Label label) {
  FVDF_CHECK_MSG(label < label_pc_.size(), "bytecode: unknown label " << label);
  FVDF_CHECK_MSG(label_pc_[label] < 0,
                 "bytecode: label " << label << " bound twice");
  label_pc_[label] = static_cast<i64>(program_.code.size());
}

u8 Builder::dsd(Dsd d) {
  for (std::size_t i = 0; i < program_.dsds.size(); ++i) {
    const Dsd& e = program_.dsds[i];
    if (e.offset == d.offset && e.length == d.length && e.stride == d.stride) {
      return static_cast<u8>(i);
    }
  }
  FVDF_CHECK_MSG(program_.dsds.size() < 256, "bytecode: DSD table overflow");
  program_.dsds.push_back(d);
  return static_cast<u8>(program_.dsds.size() - 1);
}

u32 Builder::konst(u64 value) {
  for (std::size_t i = 0; i < program_.consts.size(); ++i) {
    if (program_.consts[i] == value) return static_cast<u32>(i);
  }
  program_.consts.push_back(value);
  return static_cast<u32>(program_.consts.size() - 1);
}

void Builder::branch(Op op, u8 a, u8 b, u8 c, Label l) {
  fixups_.emplace_back(static_cast<u32>(program_.code.size()), l);
  emit({op, a, b, c, 0, {}});
}

void Builder::branch_f(Op op, u8 a, f32 v, Label l) {
  fixups_.emplace_back(static_cast<u32>(program_.code.size()), l);
  emit(fimm(op, a, 0, 0, 0, v));
}

void Builder::branch_u(Op op, u8 a, u32 v, Label l) {
  fixups_.emplace_back(static_cast<u32>(program_.code.size()), l);
  emit(uimm(op, a, v));
}

void Builder::set_entry(Label l) { entry_label_ = static_cast<i64>(l); }

Program Builder::finish() {
  FVDF_CHECK_MSG(program_.code.size() < kNoPc,
                 "bytecode: program too large (" << program_.code.size()
                                                << " instructions)");
  for (const auto& [idx, label] : fixups_) {
    FVDF_CHECK_MSG(label < label_pc_.size(),
                   "bytecode: unknown label " << label);
    FVDF_CHECK_MSG(label_pc_[label] >= 0,
                   "bytecode: unbound label " << label << " referenced at pc "
                                             << idx);
    program_.code[idx].d = static_cast<u32>(label_pc_[label]);
  }
  if (entry_label_ >= 0) {
    const i64 pc = label_pc_[static_cast<std::size_t>(entry_label_)];
    FVDF_CHECK_MSG(pc >= 0, "bytecode: entry label unbound");
    program_.entry = static_cast<u16>(pc);
  }
  fixups_.clear();
  return std::move(program_);
}

ProgramManifest derive_manifest(const Program& program) {
  ProgramManifest m;
  for (const Instr& ins : program.code) {
    switch (ins.op) {
    case Op::SEND:
      m.declare_inject(ins.a, program.dsds[ins.b].length);
      m.advances |= ins.imm.u;
      if (ins.c != kInvalidColor) m.activates |= color_set_bit(ins.c);
      break;
    case Op::SENDC:
      m.declare_inject(ins.a, 0);
      m.advances |= ins.imm.u;
      break;
    case Op::RECV:
      m.handles |= color_set_bit(ins.a);
      if (ins.c != kInvalidColor) m.activates |= color_set_bit(ins.c);
      break;
    case Op::ACT:
      m.activates |= color_set_bit(ins.a);
      break;
    case Op::ADVL:
      m.advances |= ins.imm.u;
      break;
    case Op::SETH:
      // A bound handler color is a task color that can run here: the
      // program both handles it and (somewhere) activates it.
      m.handles |= color_set_bit(ins.a);
      m.activates |= color_set_bit(ins.a);
      break;
    default:
      break;
    }
  }
  return m;
}

std::vector<std::string> lint_program(const Program& program) {
  std::vector<std::string> defects;
  auto defect = [&defects](const std::string& msg) { defects.push_back(msg); };
  const std::size_t n = program.code.size();
  if (n == 0) {
    defect("empty instruction stream");
    return defects;
  }
  if (program.entry >= n) defect("entry pc out of range");
  auto check_target = [&](std::size_t pc, u32 d) {
    if (d >= n) {
      std::ostringstream os;
      os << "pc " << pc << ": branch target " << d << " out of range";
      defect(os.str());
    }
  };
  auto check_dsd = [&](std::size_t pc, u32 idx) {
    if (idx >= program.dsds.size()) {
      std::ostringstream os;
      os << "pc " << pc << ": DSD index " << idx << " out of range";
      defect(os.str());
    }
  };
  auto check_color = [&](std::size_t pc, u8 c, bool routable_only) {
    const bool bad = routable_only ? c >= kNumRoutableColors : c >= kNumColors;
    if (bad) {
      std::ostringstream os;
      os << "pc " << pc << ": invalid color " << static_cast<u32>(c);
      defect(os.str());
    }
  };
  auto check_freg = [&](std::size_t pc, u8 r) {
    if (r >= kNumFRegs) {
      std::ostringstream os;
      os << "pc " << pc << ": f-register f" << static_cast<u32>(r)
         << " out of range (kNumFRegs = " << kNumFRegs << ")";
      defect(os.str());
    }
  };
  auto check_ureg = [&](std::size_t pc, u8 r) {
    if (r >= kNumURegs) {
      std::ostringstream os;
      os << "pc " << pc << ": u-register u" << static_cast<u32>(r)
         << " out of range (kNumURegs = " << kNumURegs << ")";
      defect(os.str());
    }
  };
  auto check_creg = [&](std::size_t pc, u8 r) {
    if (r >= kNumCRegs) {
      std::ostringstream os;
      os << "pc " << pc << ": continuation register cont" << static_cast<u32>(r)
         << " out of range (kNumCRegs = " << kNumCRegs << ")";
      defect(os.str());
    }
  };
  for (std::size_t pc = 0; pc < n; ++pc) {
    const Instr& ins = program.code[pc];
    switch (ins.op) {
    case Op::VMOV: case Op::VNEG:
      check_dsd(pc, ins.a); check_dsd(pc, ins.b);
      break;
    case Op::VMOVI:
      check_dsd(pc, ins.a);
      break;
    case Op::VADD: case Op::VSUB: case Op::VMUL:
      check_dsd(pc, ins.a); check_dsd(pc, ins.b); check_dsd(pc, ins.c);
      break;
    case Op::VMULI:
      check_dsd(pc, ins.a); check_dsd(pc, ins.b);
      break;
    case Op::VMULR:
      check_dsd(pc, ins.a); check_dsd(pc, ins.b);
      if (ins.d >= kNumFRegs) {
        std::ostringstream os;
        os << "pc " << pc << ": VMULR f-register f" << ins.d
           << " out of range (kNumFRegs = " << kNumFRegs << ")";
        defect(os.str());
      }
      break;
    case Op::VMAC:
      check_dsd(pc, ins.a); check_dsd(pc, ins.b); check_dsd(pc, ins.c);
      check_dsd(pc, ins.d);
      break;
    case Op::VMACI:
      check_dsd(pc, ins.a); check_dsd(pc, ins.b); check_dsd(pc, ins.c);
      break;
    case Op::VMACR:
      check_dsd(pc, ins.a); check_dsd(pc, ins.b); check_dsd(pc, ins.c);
      if (ins.d >= kNumFRegs) {
        std::ostringstream os;
        os << "pc " << pc << ": VMACR f-register f" << ins.d
           << " out of range (kNumFRegs = " << kNumFRegs << ")";
        defect(os.str());
      }
      break;
    case Op::VDOT:
      check_freg(pc, ins.a);
      check_dsd(pc, ins.b); check_dsd(pc, ins.c);
      break;
    case Op::SADD: case Op::SMUL: case Op::UMUL: case Op::USUB:
      check_freg(pc, ins.a); check_freg(pc, ins.b); check_freg(pc, ins.c);
      break;
    case Op::SMULI: case Op::UMULI: case Op::UDIVI:
      check_freg(pc, ins.a); check_freg(pc, ins.b);
      break;
    case Op::LODS: case Op::STOS: case Op::RSTORE:
      check_freg(pc, ins.a);
      break;
    case Op::MOVR: case Op::UNEG: case Op::URCP:
      check_freg(pc, ins.a); check_freg(pc, ins.b);
      break;
    case Op::UMOVI: case Op::UK2F: case Op::CHKPOS: case Op::PROG:
      check_freg(pc, ins.a);
      break;
    case Op::FIXD:
      check_dsd(pc, ins.a); check_dsd(pc, ins.b);
      break;
    case Op::ZDIR:
      check_dsd(pc, ins.a);
      break;
    case Op::SEND:
      check_color(pc, ins.a, true);
      check_dsd(pc, ins.b);
      if (ins.c != kInvalidColor) check_color(pc, ins.c, false);
      break;
    case Op::SENDC:
      check_color(pc, ins.a, true);
      break;
    case Op::RECV:
      check_color(pc, ins.a, true);
      check_dsd(pc, ins.b);
      if (ins.c != kInvalidColor) check_color(pc, ins.c, false);
      break;
    case Op::ACT:
      check_color(pc, ins.a, false);
      break;
    case Op::JMP:
      check_target(pc, ins.d);
      break;
    case Op::JTOL:
      check_freg(pc, ins.a);
      check_target(pc, ins.d);
      break;
    case Op::JGTR:
      check_freg(pc, ins.a); check_freg(pc, ins.b);
      check_target(pc, ins.d);
      break;
    case Op::DECJNZ:
      check_ureg(pc, ins.a);
      check_target(pc, ins.d);
      break;
    case Op::DECRET: case Op::SETU:
      check_ureg(pc, ins.a);
      break;
    case Op::JKGE:
      check_target(pc, ins.d);
      if (ins.imm.u >= program.consts.size()) {
        std::ostringstream os;
        os << "pc " << pc << ": JKGE constant index " << ins.imm.u
           << " out of range (" << program.consts.size() << " consts)";
        defect(os.str());
      }
      break;
    case Op::SETH:
      check_color(pc, ins.a, false);
      check_target(pc, ins.d);
      break;
    case Op::SETC:
      check_creg(pc, ins.a);
      check_target(pc, ins.d);
      break;
    case Op::JIND:
      check_creg(pc, ins.a);
      break;
    default:
      break;
    }
  }
  // Fall-through off the end of the stream is an encoding bug: the last
  // instruction must unconditionally leave the interpreter loop.
  const Op last = program.code.back().op;
  if (last != Op::RET && last != Op::HALT && last != Op::JMP &&
      last != Op::JIND) {
    defect("stream does not end in RET/HALT/JMP/JIND");
  }
  return defects;
}

namespace {

void format_instr(std::ostream& os, const Program& p, std::size_t pc) {
  const Instr& ins = p.code[pc];
  auto dsd_str = [&p](u32 idx) {
    std::ostringstream s;
    if (idx < p.dsds.size()) {
      const Dsd& d = p.dsds[idx];
      s << "dsd" << idx << "[@" << d.offset << " len=" << d.length;
      if (d.stride != 1) s << " stride=" << d.stride;
      s << "]";
    } else {
      s << "dsd" << idx << "[?]";
    }
    return s.str();
  };
  os.width(5);
  os << pc << "  ";
  std::string mn = to_string(ins.op);
  os << mn;
  for (std::size_t i = mn.size(); i < 8; ++i) os << ' ';
  switch (ins.op) {
  case Op::VMOV: case Op::VNEG:
    os << dsd_str(ins.a) << ", " << dsd_str(ins.b);
    break;
  case Op::VMOVI:
    os << dsd_str(ins.a) << ", " << ins.imm.f;
    break;
  case Op::VADD: case Op::VSUB: case Op::VMUL:
    os << dsd_str(ins.a) << ", " << dsd_str(ins.b) << ", " << dsd_str(ins.c);
    break;
  case Op::VMULI:
    os << dsd_str(ins.a) << ", " << dsd_str(ins.b) << ", " << ins.imm.f;
    break;
  case Op::VMULR:
    os << dsd_str(ins.a) << ", " << dsd_str(ins.b) << ", f" << ins.d;
    break;
  case Op::VMAC:
    os << dsd_str(ins.a) << ", " << dsd_str(ins.b) << ", " << dsd_str(ins.c)
       << ", " << dsd_str(ins.d);
    break;
  case Op::VMACI:
    os << dsd_str(ins.a) << ", " << dsd_str(ins.b) << ", " << dsd_str(ins.c)
       << ", " << ins.imm.f;
    break;
  case Op::VMACR:
    os << dsd_str(ins.a) << ", " << dsd_str(ins.b) << ", " << dsd_str(ins.c)
       << ", f" << ins.d;
    break;
  case Op::VDOT:
    os << "f" << static_cast<u32>(ins.a) << ", " << dsd_str(ins.b) << ", "
       << dsd_str(ins.c);
    break;
  case Op::SADD: case Op::SMUL: case Op::UMUL: case Op::USUB:
    os << "f" << static_cast<u32>(ins.a) << ", f" << static_cast<u32>(ins.b)
       << ", f" << static_cast<u32>(ins.c);
    break;
  case Op::SMULI: case Op::UMULI: case Op::UDIVI:
    os << "f" << static_cast<u32>(ins.a) << ", f" << static_cast<u32>(ins.b)
       << ", " << ins.imm.f;
    break;
  case Op::LODS: case Op::STOS: case Op::RSTORE:
    os << "f" << static_cast<u32>(ins.a) << ", mem[" << ins.imm.u << "]";
    break;
  case Op::MOVR: case Op::UNEG: case Op::URCP:
    os << "f" << static_cast<u32>(ins.a) << ", f" << static_cast<u32>(ins.b);
    break;
  case Op::UMOVI:
    os << "f" << static_cast<u32>(ins.a) << ", " << ins.imm.f;
    break;
  case Op::UK2F: case Op::CHKPOS:
    os << "f" << static_cast<u32>(ins.a);
    break;
  case Op::FIXD:
    os << dsd_str(ins.a) << " -> " << dsd_str(ins.b) << ", list@"
       << ins.imm.u << " n=" << ins.d;
    break;
  case Op::ZDIR:
    os << dsd_str(ins.a) << ", list@" << ins.imm.u << " n=" << ins.d;
    break;
  case Op::SEND:
    os << "c" << static_cast<u32>(ins.a) << ", " << dsd_str(ins.b);
    if (ins.imm.u != 0) os << ", adv=0x" << std::hex << ins.imm.u << std::dec;
    if (ins.c != kInvalidColor) os << ", done=c" << static_cast<u32>(ins.c);
    break;
  case Op::SENDC:
    os << "c" << static_cast<u32>(ins.a);
    if (ins.imm.u != 0) os << ", adv=0x" << std::hex << ins.imm.u << std::dec;
    break;
  case Op::RECV:
    os << "c" << static_cast<u32>(ins.a) << ", " << dsd_str(ins.b);
    if (ins.c != kInvalidColor) os << ", done=c" << static_cast<u32>(ins.c);
    break;
  case Op::ACT:
    os << "c" << static_cast<u32>(ins.a);
    break;
  case Op::ADVL:
    os << "0x" << std::hex << ins.imm.u << std::dec;
    break;
  case Op::PHASE:
    os << static_cast<u32>(ins.a);
    break;
  case Op::PROG:
    os << "f" << static_cast<u32>(ins.a) << ", k+" << static_cast<u32>(ins.b);
    break;
  case Op::JMP:
    os << "-> " << ins.d;
    break;
  case Op::JTOL:
    os << "f" << static_cast<u32>(ins.a) << " < " << ins.imm.f << " -> "
       << ins.d;
    break;
  case Op::JGTR:
    os << "f" << static_cast<u32>(ins.a) << " > f" << static_cast<u32>(ins.b)
       << " -> " << ins.d;
    break;
  case Op::JKGE:
    os << "k >= const" << ins.imm.u;
    if (ins.imm.u < p.consts.size()) os << " (" << p.consts[ins.imm.u] << ")";
    os << " -> " << ins.d;
    break;
  case Op::DECJNZ:
    os << "u" << static_cast<u32>(ins.a) << " -> " << ins.d;
    break;
  case Op::DECRET:
    os << "u" << static_cast<u32>(ins.a);
    break;
  case Op::SETU:
    os << "u" << static_cast<u32>(ins.a) << ", " << ins.imm.u;
    break;
  case Op::SETH:
    os << "c" << static_cast<u32>(ins.a) << " -> " << ins.d;
    break;
  case Op::SETC:
    os << "cont" << static_cast<u32>(ins.a) << " -> " << ins.d;
    break;
  case Op::JIND:
    os << "cont" << static_cast<u32>(ins.a);
    break;
  case Op::HALT: case Op::KINC: case Op::RET: case Op::kCount:
    break;
  }
}

} // namespace

std::string disassemble(const Program& program) {
  std::ostringstream os;
  os << "program \"" << program.name << "\": " << program.code.size()
     << " instructions, " << program.dsds.size() << " DSDs, "
     << program.consts.size() << " consts, entry pc " << program.entry
     << "\n";
  for (std::size_t pc = 0; pc < program.code.size(); ++pc) {
    format_instr(os, program, pc);
    os << "\n";
  }
  return os.str();
}

} // namespace fvdf::wse::bc

namespace fvdf::wse {

ProgramManifest PeProgram::manifest(PeCoord, i64, i64) const {
  const bc::Program* program = bytecode();
  return program != nullptr ? bc::derive_manifest(*program) : ProgramManifest{};
}

} // namespace fvdf::wse
