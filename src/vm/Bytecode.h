//===- vm/Bytecode.h - Flat bytecode for the campaign VM ------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A flat, register-based bytecode compiled from the tree IR, executed by
/// the threaded-code VM in vm/VM.h. The encoding is designed so that the
/// VM can reproduce the tree-walking interpreter's observable semantics
/// *exactly* — same step accounting, same value-step numbering (and
/// therefore the same fault-injection sites), same traps:
///
///  - Registers mirror interp/ModuleLayout: per frame, arguments occupy
///    regs [0, numArgs) and every value-producing instruction keeps its
///    interpreter slot number, so a FaultPlan flips bits in the same
///    (InstructionId, BitIndex) site on either backend. Above the frame
///    slots sit one staging register per phi and one register per
///    distinct constant (materialized at frame entry), making every
///    operand a plain register read.
///  - Basic blocks are laid out in function order; branches carry
///    absolute code offsets, so a branch to the next block is a
///    fallthrough in all but program-counter assignment.
///  - Phi moves are pre-resolved per CFG edge: the edge copies each
///    incoming value into the phi's staging register (Stage ops, not
///    steps), and a single PhiCommit op at the block top performs the
///    interpreter's atomic parallel commit — one budget check for the
///    whole group, then one step + one value step per phi in block
///    order.
///
/// The compiler refuses (returns null) rather than guesses when it meets
/// a construct outside this contract; callers fall back to the
/// interpreter.
///
//===----------------------------------------------------------------------===//

#ifndef IPAS_VM_BYTECODE_H
#define IPAS_VM_BYTECODE_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ipas {

class ModuleLayout;

namespace vm {

/// X-macro over every VM opcode; keeps the enum, the dispatch table and
/// the disassembler mnemonics in one place (order is load-bearing).
#define IPAS_VM_OPS(X)                                                         \
  X(BinAdd)                                                                    \
  X(BinSub)                                                                    \
  X(BinMul)                                                                    \
  X(BinAnd)                                                                    \
  X(BinOr)                                                                     \
  X(BinXor)                                                                    \
  X(BinShl)                                                                    \
  X(BinAShr)                                                                   \
  X(BinI1)                                                                     \
  X(SDiv)                                                                      \
  X(SRem)                                                                      \
  X(FAdd)                                                                      \
  X(FSub)                                                                      \
  X(FMul)                                                                      \
  X(FDiv)                                                                      \
  X(ICmpEQ)                                                                    \
  X(ICmpNE)                                                                    \
  X(ICmpLT)                                                                    \
  X(ICmpLE)                                                                    \
  X(ICmpGT)                                                                    \
  X(ICmpGE)                                                                    \
  X(UCmpEQ)                                                                    \
  X(UCmpNE)                                                                    \
  X(UCmpLT)                                                                    \
  X(UCmpLE)                                                                    \
  X(UCmpGT)                                                                    \
  X(UCmpGE)                                                                    \
  X(FCmpEQ)                                                                    \
  X(FCmpNE)                                                                    \
  X(FCmpLT)                                                                    \
  X(FCmpLE)                                                                    \
  X(FCmpGT)                                                                    \
  X(FCmpGE)                                                                    \
  X(SIToFP)                                                                    \
  X(FPToSI)                                                                    \
  X(ZExt)                                                                      \
  X(Bitcast)                                                                   \
  X(Alloca)                                                                    \
  X(Load)                                                                      \
  X(LoadI1)                                                                    \
  X(Store)                                                                     \
  X(Gep)                                                                       \
  X(Select)                                                                    \
  X(SelectI1)                                                                  \
  X(Check)                                                                     \
  X(Stage)                                                                     \
  X(PhiCommit)                                                                 \
  X(Br)                                                                        \
  X(CondBr)                                                                    \
  X(Goto)                                                                      \
  X(Call)                                                                      \
  X(Ret)                                                                       \
  X(RetVoid)                                                                   \
  X(ISqrt)                                                                     \
  X(IFabs)                                                                     \
  X(ISin)                                                                      \
  X(ICos)                                                                      \
  X(IExp)                                                                      \
  X(ILog)                                                                      \
  X(IPow)                                                                      \
  X(IFloor)                                                                    \
  X(IFMin)                                                                     \
  X(IFMax)                                                                     \
  X(IIMin)                                                                     \
  X(IIMax)                                                                     \
  X(IMalloc)                                                                   \
  X(IFree)                                                                     \
  X(IRandSeed)                                                                 \
  X(IRandI64)                                                                  \
  X(IRandF64)                                                                  \
  X(IMpiRank)                                                                  \
  X(IMpiSize)                                                                  \
  X(IMpiBarrier)                                                               \
  X(IMpiIdentity)                                                              \
  X(IMpiCopy)

enum class VmOp : uint8_t {
#define IPAS_VM_OP_ENUM(N) N,
  IPAS_VM_OPS(IPAS_VM_OP_ENUM)
#undef IPAS_VM_OP_ENUM
};

constexpr unsigned kNumVmOps = 0
#define IPAS_VM_OP_COUNT(N) +1
    IPAS_VM_OPS(IPAS_VM_OP_COUNT)
#undef IPAS_VM_OP_COUNT
    ;

const char *vmOpName(VmOp Op);

/// Register index meaning "no register" (void call results).
constexpr uint16_t kNoReg = 0xffff;

/// One decoded instruction. A is the destination register for
/// value-producing ops; B/C/D are operand registers; X/Y are absolute
/// code offsets (branches), table indices (PhiCommit, Call, Alloca), the
/// intrinsic and argument count of an MPI collective (IMpiBarrier,
/// IMpiIdentity, IMpiCopy: arguments in B, C, D), or unused. Id is the
/// source instruction id — the fault-attribution key recorded in
/// `.iprec` streams.
struct VmInst {
  VmOp Op;
  uint16_t A = 0;
  uint16_t B = 0;
  uint16_t C = 0;
  uint16_t D = 0;
  uint32_t Id = 0;
  int32_t X = 0;
  int32_t Y = 0;
};

/// Per-phi commit descriptor: copy Stage into Dest as one interpreter
/// value step, flipping bits at Width when the fault plan hits.
struct VmPhiMeta {
  uint16_t Dest = 0;
  uint16_t Stage = 0;
  uint8_t Width = 64;
  uint32_t Id = 0;
};

struct VmFunction {
  std::string Name;
  uint32_t CodeStart = 0;
  uint32_t CodeEnd = 0;
  uint16_t NumArgs = 0;
  /// First phi staging register (== interp ModuleLayout frameSlots).
  uint16_t FirstStage = 0;
  /// Frame slots (== interp ModuleLayout frameSlots) plus staging regs.
  uint16_t NumRegs = 0;
  /// Constants occupy regs [ConstBase, ConstBase + ConstPool.size()).
  uint16_t ConstBase = 0;
  /// 0 = void, 1 = i1, 64 otherwise; flip width of the call-result
  /// commit in the caller.
  uint8_t RetWidth = 0;
  std::vector<uint64_t> ConstPool;

  uint32_t regsTotal() const {
    return static_cast<uint32_t>(ConstBase) +
           static_cast<uint32_t>(ConstPool.size());
  }
};

struct VmProgram {
  std::vector<VmInst> Code;
  std::vector<VmFunction> Functions;
  std::vector<VmPhiMeta> PhiMetas;
  /// Call argument source registers (caller frame), Call.Y indexes here.
  std::vector<uint16_t> ArgRegs;
  /// 64-bit immediates (alloca slot counts), Inst.X indexes here.
  std::vector<uint64_t> Aux64;
  std::map<std::string, uint32_t> FunctionIndex;

  /// Function index by name; UINT32_MAX when absent.
  uint32_t indexOf(const std::string &Name) const {
    auto It = FunctionIndex.find(Name);
    return It == FunctionIndex.end() ? UINT32_MAX : It->second;
  }
};

/// Compiles \p Layout's module to bytecode. Returns null (and sets
/// \p Err) when the module uses a construct the VM contract does not
/// cover; callers must then fall back to the tree-walking interpreter.
std::unique_ptr<VmProgram> compile(const ModuleLayout &Layout,
                                   std::string *Err = nullptr);

/// Textual listing of one function (or the whole program when \p FnName
/// is empty) for the bytecode golden tests. Branch targets render as
/// absolute code offsets; a branch to the next offset is annotated
/// "; fallthrough".
std::string disassemble(const VmProgram &P, const std::string &FnName = "");

/// Seeds a deliberate miscompile (swaps the operands of the first
/// subtraction) so the backend-differential oracle's selftest can prove
/// it catches real VM bugs. Returns false when the program contains no
/// suitable instruction.
bool injectSelftestBug(VmProgram &P);

} // namespace vm
} // namespace ipas

#endif // IPAS_VM_BYTECODE_H
