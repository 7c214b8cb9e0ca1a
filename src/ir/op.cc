#include "ir/op.h"

#include <array>
#include <cmath>
#include <string>

#include "sim/logging.h"

namespace marionette
{

namespace
{

constexpr std::array<OpInfo,
                     static_cast<std::size_t>(Opcode::NumOpcodes)>
opTable = {{
    // mnemonic       class                arity  mem    ctrl
    {"const",      OpClass::Constant,       0, false, false},
    {"add",        OpClass::IntAlu,         2, false, false},
    {"sub",        OpClass::IntAlu,         2, false, false},
    {"mul",        OpClass::IntMul,         2, false, false},
    {"div",        OpClass::IntDiv,         2, false, false},
    {"rem",        OpClass::IntDiv,         2, false, false},
    {"mac",        OpClass::IntMul,         3, false, false},
    {"abs",        OpClass::IntAlu,         1, false, false},
    {"min",        OpClass::IntAlu,         2, false, false},
    {"max",        OpClass::IntAlu,         2, false, false},
    {"neg",        OpClass::IntAlu,         1, false, false},
    {"and",        OpClass::IntAlu,         2, false, false},
    {"or",         OpClass::IntAlu,         2, false, false},
    {"xor",        OpClass::IntAlu,         2, false, false},
    {"not",        OpClass::IntAlu,         1, false, false},
    {"shl",        OpClass::IntAlu,         2, false, false},
    {"shr",        OpClass::IntAlu,         2, false, false},
    {"sra",        OpClass::IntAlu,         2, false, false},
    {"cmpeq",      OpClass::IntAlu,         2, false, false},
    {"cmpne",      OpClass::IntAlu,         2, false, false},
    {"cmplt",      OpClass::IntAlu,         2, false, false},
    {"cmple",      OpClass::IntAlu,         2, false, false},
    {"cmpgt",      OpClass::IntAlu,         2, false, false},
    {"cmpge",      OpClass::IntAlu,         2, false, false},
    {"select",     OpClass::Steering,       3, false, false},
    {"phi",        OpClass::Steering,       2, false, false},
    {"copy",       OpClass::Steering,       1, false, false},
    {"load",       OpClass::Memory,         1, true,  false},
    {"store",      OpClass::Memory,         2, true,  false},
    {"log2fix",    OpClass::Nonlinear,      1, false, false},
    {"sigmoidfix", OpClass::Nonlinear,      1, false, false},
    {"sqrtfix",    OpClass::Nonlinear,      1, false, false},
    {"branch",     OpClass::Control,        1, false, true},
    {"loop",       OpClass::Control,        2, false, true},
    {"nop",        OpClass::Misc,           0, false, false},
}};

} // namespace

const OpInfo &
opInfo(Opcode op)
{
    auto idx = static_cast<std::size_t>(op);
    MARIONETTE_ASSERT(idx < opTable.size(), "bad opcode %zu", idx);
    return opTable[idx];
}

std::string_view
opName(Opcode op)
{
    return opInfo(op).mnemonic;
}

bool
isControlOp(Opcode op)
{
    return opInfo(op).isControl;
}

bool
isMemoryOp(Opcode op)
{
    return opInfo(op).isMemory;
}

bool
isNonlinearOp(Opcode op)
{
    return opInfo(op).cls == OpClass::Nonlinear;
}

namespace
{

/**
 * Fixed-point helpers for the nonlinear fitting units.  Inputs and
 * outputs use Q16.16; the approximations are piecewise and match what
 * a small lookup-table FU would produce, which is all the benchmarks
 * (Sigmoid, the log in Fig. 9's kernel) require.
 */
Word
log2Fix(Word x)
{
    if (x <= 0)
        return std::numeric_limits<Word>::min() / 2;
    // Integer part: position of the MSB relative to the Q16 point.
    UWord ux = static_cast<UWord>(x);
    int msb = 31;
    while (msb > 0 && ((ux >> msb) & 1u) == 0)
        --msb;
    Word ipart = (msb - 16) << 16;
    // Fractional part by 8 squaring steps (classic fixed-point log2).
    std::uint64_t z = (static_cast<std::uint64_t>(ux) << 16) >> msb;
    Word fpart = 0;
    for (int i = 0; i < 8; ++i) {
        z = (z * z) >> 16;
        fpart <<= 1;
        if (z >= (2ull << 16)) {
            z >>= 1;
            fpart |= 1;
        }
    }
    return ipart + (fpart << 8);
}

Word
sigmoidFix(Word x)
{
    // Piecewise logistic approximation in Q16.16: a cubic on the
    // central interval, linear ramps that meet the cubic at the
    // breakpoints, saturation at |x| >= 6.  Continuity at the
    // breakpoints keeps the function monotone, which downstream
    // kernels (and the property tests) rely on.
    const Word one = 1 << 16;
    const Word six = 6 << 16;
    if (x >= six)
        return one;
    if (x <= -six)
        return 0;
    // The cubic 0.5 + x/4 - x^3/48 peaks exactly at |x| = 2, so
    // that is the monotone breakpoint.
    const Word lim = 2 << 16;
    // Cubic value at +lim: 0.5 + 0.5 - 8/48 = 5/6.
    const Word c_lim = static_cast<Word>(65536.0 * 5 / 6);
    // Ramp slope so the ramp reaches 1.0 exactly at |x| = 6.
    const Word slope_q16 =
        static_cast<Word>((one - c_lim) / 4.0);
    if (x > lim || x < -lim) {
        Word ax = x < 0 ? -x : x;
        Word rise = static_cast<Word>(
            (static_cast<std::int64_t>(ax - lim) * slope_q16) >>
            16);
        Word val = c_lim + rise;
        if (val > one)
            val = one;
        return x > 0 ? val : one - val;
    }
    std::int64_t xl = x;
    std::int64_t x3 = (((xl * xl) >> 16) * xl) >> 16;
    std::int64_t y = (one >> 1) + (xl >> 2) - x3 / 48;
    if (y < 0)
        y = 0;
    if (y > one)
        y = one;
    return static_cast<Word>(y);
}

Word
sqrtFix(Word x)
{
    if (x <= 0)
        return 0;
    // Integer Newton iteration on the raw value.
    UWord v = static_cast<UWord>(x);
    UWord r = v;
    UWord prev = 0;
    while (r != prev) {
        prev = r;
        r = (r + v / r) >> 1;
    }
    return static_cast<Word>(r);
}

/** -a in two's complement: -INT_MIN wraps to INT_MIN. */
Word
negate(Word a)
{
    return static_cast<Word>(0u - static_cast<UWord>(a));
}

} // namespace

Word
evalOp(Opcode op, Word a, Word b, Word c)
{
    switch (op) {
      case Opcode::Const:
        return a;
      case Opcode::Add:
        return static_cast<Word>(static_cast<UWord>(a) +
                                 static_cast<UWord>(b));
      case Opcode::Sub:
        return static_cast<Word>(static_cast<UWord>(a) -
                                 static_cast<UWord>(b));
      case Opcode::Mul:
        return static_cast<Word>(static_cast<UWord>(a) *
                                 static_cast<UWord>(b));
      // x / 0 yields 0; INT_MIN / -1 wraps to INT_MIN (remainder 0)
      // in two's complement, like Add, Sub and Mul.
      case Opcode::Div:
        return b == 0 ? 0 : b == -1 ? negate(a) : a / b;
      case Opcode::Rem:
        return b == 0 || b == -1 ? 0 : a % b;
      case Opcode::Mac:
        return static_cast<Word>(static_cast<UWord>(a) *
                                 static_cast<UWord>(b) +
                                 static_cast<UWord>(c));
      case Opcode::Abs:
        return a < 0 ? negate(a) : a;
      case Opcode::Min:
        return a < b ? a : b;
      case Opcode::Max:
        return a > b ? a : b;
      case Opcode::Neg:
        return negate(a);
      case Opcode::And:
        return a & b;
      case Opcode::Or:
        return a | b;
      case Opcode::Xor:
        return a ^ b;
      case Opcode::Not:
        return ~a;
      case Opcode::Shl:
        return static_cast<Word>(static_cast<UWord>(a)
                                 << (static_cast<UWord>(b) & 31u));
      case Opcode::Shr:
        return static_cast<Word>(static_cast<UWord>(a) >>
                                 (static_cast<UWord>(b) & 31u));
      case Opcode::Sra:
        return a >> (static_cast<UWord>(b) & 31u);
      case Opcode::CmpEq:
        return a == b;
      case Opcode::CmpNe:
        return a != b;
      case Opcode::CmpLt:
        return a < b;
      case Opcode::CmpLe:
        return a <= b;
      case Opcode::CmpGt:
        return a > b;
      case Opcode::CmpGe:
        return a >= b;
      case Opcode::Select:
        return a != 0 ? b : c;
      case Opcode::Phi:
        // Functional evaluation of phi picks the active reaching
        // value; the machine resolves which operand is live, so the
        // plain evaluator treats operand a as the selected one.
        return a;
      case Opcode::Copy:
        return a;
      case Opcode::Log2Fix:
        return log2Fix(a);
      case Opcode::SigmoidFix:
        return sigmoidFix(a);
      case Opcode::SqrtFix:
        return sqrtFix(a);
      case Opcode::Branch:
        return a != 0;
      case Opcode::Loop:
        return a < b;
      case Opcode::Nop:
        return 0;
      case Opcode::Load:
      case Opcode::Store:
        MARIONETTE_PANIC("memory op %s has no pure evaluation",
                         std::string(opName(op)).c_str());
      default:
        MARIONETTE_PANIC("evalOp: unhandled opcode %d",
                         static_cast<int>(op));
    }
}

} // namespace marionette
